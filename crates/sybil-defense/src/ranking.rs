//! Conductance-ranking community detector (Viswanath et al., SIGCOMM
//! 2010).
//!
//! Viswanath et al. showed that SybilGuard/SybilLimit/SybilInfer/SumUp all
//! reduce to the same primitive: *rank nodes by how well they sit inside
//! the verifier's local community, and cut where conductance is best*. We
//! implement that primitive directly: approximate Personalized PageRank
//! (Andersen–Chung–Lang push) from the verifier, order nodes by
//! degree-normalized PPR, sweep for the minimum-conductance prefix, and
//! accept exactly the nodes inside it.

use crate::common::{SybilDefense, Verdict};
use osn_graph::{NodeId, TemporalGraph};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Mutex, PoisonError};

/// Conductance-sweep community detector.
pub struct ConductanceRanking {
    /// PPR teleport probability α.
    pub alpha: f64,
    /// Push tolerance ε (smaller = larger explored neighborhood).
    pub epsilon: f64,
    /// Cap on the sweep prefix (community size ceiling).
    pub max_community: usize,
    /// Floor on the sweep prefix: tiny min-conductance pockets (a clique
    /// of close friends) are not meaningful honest regions.
    pub min_community: usize,
    cache: Mutex<Option<(NodeId, HashSet<NodeId>)>>,
}

impl ConductanceRanking {
    /// Detector with defaults suited to 10³–10⁵ node graphs.
    pub fn new() -> Self {
        ConductanceRanking {
            alpha: 0.15,
            epsilon: 1e-5,
            max_community: 50_000,
            min_community: 16,
            cache: Mutex::new(None),
        }
    }

    /// Approximate PPR vector from `seed` (ACL push algorithm).
    fn ppr(&self, g: &TemporalGraph, seed: NodeId) -> HashMap<NodeId, f64> {
        let mut p: HashMap<NodeId, f64> = HashMap::new();
        let mut r: HashMap<NodeId, f64> = HashMap::new();
        r.insert(seed, 1.0);
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        queue.push_back(seed);
        let mut queued: HashSet<NodeId> = HashSet::new();
        queued.insert(seed);
        while let Some(u) = queue.pop_front() {
            queued.remove(&u);
            let d = g.degree(u).max(1) as f64;
            let ru = *r.get(&u).unwrap_or(&0.0);
            if ru < self.epsilon * d {
                continue;
            }
            // Push.
            *p.entry(u).or_insert(0.0) += self.alpha * ru;
            let spread = (1.0 - self.alpha) * ru / (2.0 * d);
            let ru_residual = (1.0 - self.alpha) * ru / 2.0;
            r.insert(u, ru_residual);
            if ru_residual >= self.epsilon * d && queued.insert(u) {
                queue.push_back(u);
            }
            for nb in g.neighbors(u) {
                let e = r.entry(nb.node).or_insert(0.0);
                *e += spread;
                let dn = g.degree(nb.node).max(1) as f64;
                if *e >= self.epsilon * dn && queued.insert(nb.node) {
                    queue.push_back(nb.node);
                }
            }
        }
        p
    }

    /// The minimum-conductance sweep community around `seed`.
    pub fn community(&self, g: &TemporalGraph, seed: NodeId) -> HashSet<NodeId> {
        let p = self.ppr(g, seed);
        let mut order: Vec<(NodeId, f64)> = p
            .into_iter()
            .map(|(n, v)| (n, v / g.degree(n).max(1) as f64))
            .collect();
        order.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        order.truncate(self.max_community);
        // Sweep: conductance of each prefix; track counts incrementally.
        let mut members: HashSet<NodeId> = HashSet::new();
        let mut vol = 0usize;
        let mut cut = 0usize;
        let total_vol = g.volume();
        let mut best = (f64::INFINITY, 0usize);
        for (i, (n, _)) in order.iter().enumerate() {
            let d = g.degree(*n);
            let inside = g
                .neighbors(*n)
                .iter()
                .filter(|nb| members.contains(&nb.node))
                .count();
            members.insert(*n);
            vol += d;
            cut = cut + d - 2 * inside;
            let denom = vol.min(total_vol.saturating_sub(vol));
            if denom > 0 && i + 1 >= self.min_community {
                let phi = cut as f64 / denom as f64;
                if phi < best.0 {
                    best = (phi, i + 1);
                }
            }
        }
        order.truncate(best.1.max(1));
        order.into_iter().map(|(n, _)| n).collect()
    }

    fn community_for(&self, g: &TemporalGraph, verifier: NodeId) -> HashSet<NodeId> {
        // A panic mid-compute leaves the cache as it was (it is replaced by
        // one assignment below), so a poisoned guard still holds valid data.
        let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((v, c)) = cache.as_ref() {
            if *v == verifier {
                return c.clone();
            }
        }
        let c = self.community(g, verifier);
        *cache = Some((verifier, c.clone()));
        c
    }
}

impl Default for ConductanceRanking {
    fn default() -> Self {
        Self::new()
    }
}

impl SybilDefense for ConductanceRanking {
    fn name(&self) -> &'static str {
        "ConductanceRanking"
    }

    fn verify(&self, g: &TemporalGraph, verifier: NodeId, suspect: NodeId) -> Verdict {
        if g.degree(verifier) == 0 || g.degree(suspect) == 0 {
            return Verdict::Reject;
        }
        if self.community_for(g, verifier).contains(&suspect) {
            Verdict::Accept
        } else {
            Verdict::Reject
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{evaluate_defense, injected_cluster_graph};
    use osn_graph::Timestamp;
    use rand::prelude::*;

    #[test]
    fn community_of_barbell_is_one_side() {
        // Two dense 20-cliques joined by one bridge.
        let mut g = TemporalGraph::with_nodes(40);
        for side in 0..2u32 {
            let base = side * 20;
            for i in 0..20u32 {
                for j in (i + 1)..20u32 {
                    g.add_edge(NodeId(base + i), NodeId(base + j), Timestamp::ZERO)
                        .unwrap();
                }
            }
        }
        g.add_edge(NodeId(0), NodeId(20), Timestamp::ZERO).unwrap();
        let cr = ConductanceRanking::new();
        let community = cr.community(&g, NodeId(5));
        let in_left = community.iter().filter(|n| n.0 < 20).count();
        let in_right = community.len() - in_left;
        assert!(
            in_left >= 18 && in_right <= 2,
            "community should be the left clique: {in_left} left / {in_right} right"
        );
    }

    #[test]
    fn separates_injected_cluster() {
        let mut rng = StdRng::seed_from_u64(4);
        let (g, first_sybil) = injected_cluster_graph(500, 80, 3, &mut rng);
        let cr = ConductanceRanking::new();
        let sybils: Vec<NodeId> = (0..30).map(|i| NodeId(first_sybil.0 + i)).collect();
        let honest: Vec<NodeId> = (10..40).map(NodeId).collect();
        let eval = evaluate_defense(&cr, &g, NodeId(0), &sybils, &honest);
        assert!(
            eval.sybil_acceptance_rate() < 0.3,
            "sybil acceptance {}",
            eval.sybil_acceptance_rate()
        );
    }

    #[test]
    fn ppr_mass_concentrates_near_seed() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = osn_graph::generators::barabasi_albert(300, 3, Timestamp::ZERO, &mut rng);
        let cr = ConductanceRanking::new();
        let p = cr.ppr(&g, NodeId(7));
        let seed_mass = p.get(&NodeId(7)).copied().unwrap_or(0.0);
        assert!(seed_mass > 0.0);
        // Seed should be among the highest-mass nodes.
        let higher = p.values().filter(|&&v| v > seed_mass).count();
        assert!(higher < 5, "{higher} nodes outrank the seed");
    }

    #[test]
    fn isolated_rejected() {
        let g = TemporalGraph::with_nodes(2);
        let cr = ConductanceRanking::new();
        assert_eq!(cr.verify(&g, NodeId(0), NodeId(1)), Verdict::Reject);
    }
}
