//! The paper's offline measurement pass, timed in `persist-restart`'s
//! traced run on the same `SimConfig::small` input.
//!
//! A pass freezes the graph, sweeps first-k clustering, extracts every
//! account's features and evaluates four graph defenses over Sybil and
//! honest suspects drawn from the labels. Each traced operation runs it
//! at 1 thread (the reference) and at 2 threads (timed per layer); the
//! outputs must be identical bit for bit.

use crate::metrics::Metrics;
use crate::trace::Tracer;
use osn_graph::clustering::first_k_clustering_all;
use osn_graph::{par, CsrSnapshot, NodeId, TemporalGraph};
use osn_sim::scale::splitmix64;
use osn_sim::SimOutput;
use serde_json::{json, Value};
use std::time::Instant;
use sybil_defense::{
    evaluate_defense, DefenseEvaluation, SumUp, SybilDefense, SybilGuard, SybilInfer, SybilLimit,
};
use sybil_features::clustering::FIRST_K;
use sybil_features::FeatureExtractor;

/// Suspects per class; the defenses' cost is linear in it.
const SUSPECTS: usize = 6;
/// The two thread counts a pass runs at: (timed, reference).
const THREADS: (usize, usize) = (2, 1);

/// Who verifies whom in the defense evaluations.
struct Suspects {
    verifier: NodeId,
    sybils: Vec<NodeId>,
    honest: Vec<NodeId>,
}

/// Up to `count` of `candidates` with degree at least `min_degree`, in a
/// seeded order.
fn pick(
    g: &TemporalGraph,
    candidates: &[NodeId],
    min_degree: usize,
    count: usize,
    seed: u64,
) -> Vec<NodeId> {
    let mut pool: Vec<NodeId> = candidates
        .iter()
        .copied()
        .filter(|&n| g.degree(n) >= min_degree)
        .collect();
    pool.sort_by_key(|n| splitmix64(seed ^ u64::from(n.0)));
    pool.truncate(count);
    pool
}

fn suspects(out: &SimOutput, seed: u64) -> Suspects {
    let g = &out.graph;
    let (mut sybils, mut honest) = (Vec::new(), Vec::new());
    for (i, a) in out.accounts.iter().enumerate() {
        let n = NodeId(i as u32);
        if a.is_sybil() {
            sybils.push(n);
        } else {
            honest.push(n);
        }
    }
    // Verifier: an honest user of solid but not extreme degree.
    let mut by_degree: Vec<NodeId> = honest
        .iter()
        .copied()
        .filter(|&n| g.degree(n) >= 10)
        .collect();
    by_degree.sort_by_key(|&n| (g.degree(n), n.0));
    let verifier = by_degree
        .get(by_degree.len() / 2)
        .copied()
        .unwrap_or(NodeId(0));
    Suspects {
        verifier,
        sybils: pick(g, &sybils, 5, SUSPECTS, seed ^ 0xDEF),
        honest: pick(g, &honest, 5, SUSPECTS, seed ^ 0xDEF ^ 1),
    }
}

/// Everything a pass computes, with floats as bits so equality is exact.
#[derive(PartialEq)]
struct PassOutput {
    snapshot_edges: usize,
    clustering: Vec<u64>,
    features: Vec<[u64; 5]>,
    defenses: Vec<DefenseEvaluation>,
}

/// The per-layer metric each timed step of a pass reports.
const STEPS: [&str; 7] = [
    "graph.freeze_s",
    "graph.clustering_sweep_s",
    "features.extract_s",
    "defense.sybilguard_s",
    "defense.sybillimit_s",
    "defense.sybilinfer_s",
    "defense.sumup_s",
];

/// One analysis pass; each step is a span when `tr` is given. Returns
/// the outputs and each step's seconds, in [`STEPS`] order.
fn pass(
    out: &SimOutput,
    s: &Suspects,
    seed: u64,
    mut tr: Option<(&mut Tracer, usize)>,
) -> (PassOutput, Vec<f64>) {
    let g = &out.graph;
    let mut secs = Vec::with_capacity(STEPS.len());
    let mut step = |name: &'static str, f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        match tr.as_mut() {
            Some((tr, parent)) => {
                tr.time(name, Some(*parent), f);
            }
            None => f(),
        }
        secs.push(t0.elapsed().as_secs_f64());
    };
    let mut snapshot_edges = 0;
    step(STEPS[0], &mut || {
        snapshot_edges = CsrSnapshot::freeze(g).num_edges()
    });
    let mut clustering = Vec::new();
    step(STEPS[1], &mut || {
        clustering = first_k_clustering_all(g, FIRST_K)
            .iter()
            .map(|c| c.to_bits())
            .collect()
    });
    let mut features = Vec::new();
    step(STEPS[2], &mut || {
        let nodes: Vec<NodeId> = g.nodes().collect();
        features = FeatureExtractor::new(out)
            .features_for_all(&nodes)
            .iter()
            .map(|f| {
                [
                    f.inv_freq_1h,
                    f.inv_freq_400h,
                    f.outgoing_accept_ratio,
                    f.incoming_accept_ratio,
                    f.clustering_coefficient,
                ]
                .map(f64::to_bits)
            })
            .collect()
    });
    let mut defenses = Vec::new();
    let eval = |d: &dyn SybilDefense| evaluate_defense(d, g, s.verifier, &s.sybils, &s.honest);
    step(STEPS[3], &mut || {
        defenses.push(eval(&SybilGuard::new(g, None, seed ^ 1)))
    });
    step(STEPS[4], &mut || {
        defenses.push(eval(&SybilLimit::new(g, seed ^ 3)))
    });
    step(STEPS[5], &mut || {
        defenses.push(eval(&SybilInfer::new(g, seed ^ 5)))
    });
    step(STEPS[6], &mut || {
        defenses.push(eval(&SumUp::new(2 * SUSPECTS)))
    });
    let output = PassOutput {
        snapshot_edges,
        clustering,
        features,
        defenses,
    };
    (output, secs)
}

fn set_threads(n: usize) {
    std::env::set_var(par::THREADS_ENV, n.to_string());
}

/// The offline layers of one input, with the reference output to check
/// every pass against.
pub struct Offline {
    suspects: Suspects,
    seed: u64,
    reference: Option<PassOutput>,
    /// 2-thread (traced) and 1-thread pass walls, per operation.
    walls: (Vec<f64>, Vec<f64>),
}

impl Offline {
    /// Draw the suspects for `out` from `seed`.
    pub fn new(out: &SimOutput, seed: u64) -> Self {
        Offline {
            suspects: suspects(out, seed),
            seed,
            reference: None,
            walls: (Vec::new(), Vec::new()),
        }
    }

    /// One traced operation inside span `parent`: the 1-thread pass,
    /// then the 2-thread pass with a span per layer. Records the layer
    /// times (and, when `timed`, both walls); `Some(problem)` when either
    /// output differs from the reference. Leaves the thread count at 2.
    pub fn traced_op(
        &mut self,
        m: &mut Metrics,
        tr: &mut Tracer,
        parent: usize,
        out: &SimOutput,
        timed: bool,
    ) -> Option<String> {
        let mut problems = Vec::new();
        set_threads(THREADS.1);
        let t0 = Instant::now();
        let (got, _) = pass(out, &self.suspects, self.seed, None);
        let one = t0.elapsed().as_secs_f64();
        problems.extend(self.check("1-thread pass", got));
        set_threads(THREADS.0);
        let pass_span = tr.open("offline.pass", Some(parent));
        let (got, secs) = pass(out, &self.suspects, self.seed, Some((tr, pass_span)));
        let two = tr.close(pass_span);
        if timed {
            self.walls.0.push(two);
            self.walls.1.push(one);
        }
        for (name, v) in STEPS.iter().zip(secs) {
            m.layer(name, v);
        }
        problems.extend(self.check("2-thread pass", got));
        (!problems.is_empty()).then(|| problems.join("; "))
    }

    /// `Some(problem)` unless `got` equals the reference (set on first use).
    fn check(&mut self, what: &str, got: PassOutput) -> Option<String> {
        match &self.reference {
            None => {
                self.reference = Some(got);
                None
            }
            Some(want) => {
                (*want != got).then(|| format!("{what}: output differs from the reference"))
            }
        }
    }

    /// Pass walls `(2-thread, 1-thread)` of every timed operation.
    pub fn walls(&self) -> &(Vec<f64>, Vec<f64>) {
        &self.walls
    }

    /// Suspect counts and each defense's verdict counts, for the detail line.
    pub fn summary(&self) -> Value {
        let names = ["SybilGuard", "SybilLimit", "SybilInfer", "SumUp"];
        let defenses: Vec<Value> = self
            .reference
            .iter()
            .flat_map(|r| names.iter().zip(&r.defenses))
            .map(|(name, d)| {
                json!({
                    "defense": *name,
                    "sybils_accepted": d.sybils_accepted,
                    "sybils_total": d.sybils_total,
                    "honest_rejected": d.honest_rejected,
                    "honest_total": d.honest_total,
                })
            })
            .collect();
        json!({"defenses": defenses})
    }
}
