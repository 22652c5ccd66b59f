//! Thread-count bit-identity smoke test — the sanitizer stand-in.
//!
//! Miri cannot execute the scoped-thread `par::` layer, so the sanitizer
//! story (DESIGN.md §Sanitizers) leans on end-to-end evidence instead:
//! run the full-population analytics sweeps with `RENREN_THREADS=1` and
//! `RENREN_THREADS=8` and require byte-identical outputs. Any data race
//! or order-dependent merge in the parallel substrate that affects
//! results shows up here as a diff; a crash shows up as a nonzero exit.
//!
//! Run with `cargo run --release -p sybil-bench --bin thread_identity`.

use osn_graph::{clustering, NodeId};
use sybil_bench::set_threads;
use sybil_features::{clustering as fclustering, FeatureExtractor, FeatureVector};

fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    set_threads(n);
    f()
}

fn main() {
    let out = sybil_bench::small_fixture();
    let g = &out.graph;
    let nodes: Vec<NodeId> = g.nodes().collect();
    let fx = FeatureExtractor::new(out);
    eprintln!(
        "thread_identity: {} nodes, {} edges, comparing RENREN_THREADS=1 vs 8",
        g.num_nodes(),
        g.num_edges()
    );

    let feat_1: Vec<FeatureVector> = with_threads(1, || fx.features_for_all(&nodes));
    let feat_8: Vec<FeatureVector> = with_threads(8, || fx.features_for_all(&nodes));
    assert_eq!(feat_1, feat_8, "feature extraction must be thread-count invariant");

    let cc_1 = with_threads(1, || clustering::first_k_clustering_all(g, fclustering::FIRST_K));
    let cc_8 = with_threads(8, || clustering::first_k_clustering_all(g, fclustering::FIRST_K));
    assert_eq!(
        cc_1.iter().map(|v| v.to_bits()).collect::<Vec<u64>>(),
        cc_8.iter().map(|v| v.to_bits()).collect::<Vec<u64>>(),
        "clustering sweep must be bit-identical across thread counts"
    );

    println!(
        "thread_identity: OK ({} feature vectors, {} clustering coefficients bit-identical)",
        feat_1.len(),
        cc_1.len()
    );
}
