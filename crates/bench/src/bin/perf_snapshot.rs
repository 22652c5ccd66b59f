//! Machine-readable performance check for the CSR snapshot + parallel
//! analytics substrate.
//!
//! Times the full-population clustering sweep, feature extraction, and
//! defense route computation on the seed `TemporalGraph` path (serial,
//! hash-probe kernels) against the `CsrSnapshot` path at 1 and N worker
//! threads, verifies the outputs are bit-identical, and writes
//! `BENCH_parallel.json` at the workspace root.
//!
//! Run with `cargo run --release -p sybil-bench --bin perf_snapshot`.

use osn_graph::{clustering, par, CsrSnapshot, NodeId};
use sybil_bench::{set_threads, time_ms, write_report};
use sybil_defense::{evaluate_defense, SybilLimit};
use sybil_features::{clustering as fclustering, invitation, ratios, FeatureExtractor,
    FeatureVector};

/// The acceptance floor on both full-population sweeps' speedup over the
/// serial graph path.
const MIN_SPEEDUP: f64 = 2.0;

/// The seed implementation of feature extraction: a serial per-node loop
/// whose clustering term walks the `TemporalGraph` with O(k²) hash-probe
/// pairs — the path `features_for_all` replaced.
fn features_baseline(fx: &FeatureExtractor<'_>, nodes: &[NodeId]) -> Vec<FeatureVector> {
    let out = fx.output();
    nodes
        .iter()
        .map(|&n| {
            let sent: Vec<osn_graph::Timestamp> = fx
                .sent_by(n)
                .iter()
                .map(|&i| out.log.get(i as usize).sent_at)
                .collect();
            FeatureVector {
                inv_freq_1h: invitation::mean_per_active_window(&sent, 1),
                inv_freq_400h: invitation::mean_per_active_window(&sent, 400),
                outgoing_accept_ratio: ratios::outgoing_accept_ratio(out, fx.sent_by(n)),
                incoming_accept_ratio: ratios::incoming_accept_ratio(out, fx.received_by(n)),
                clustering_coefficient: fclustering::first50_cc(&out.graph, n),
            }
        })
        .collect()
}

fn main() {
    // Honor a RENREN_THREADS override for the N-thread legs, but never
    // benchmark below the 4 workers the acceptance criterion is stated at.
    let threads = par::num_threads().max(4);
    let reps = 3;
    let out = sybil_bench::small_fixture();
    let g = &out.graph;
    let nodes: Vec<NodeId> = g.nodes().collect();
    eprintln!(
        "perf_snapshot: {} nodes, {} edges, {} worker threads",
        g.num_nodes(),
        g.num_edges(),
        threads
    );

    let (snap_build_ms, snap) = time_ms(reps, || CsrSnapshot::freeze(g));

    // --- Full-population first-50 clustering sweep (the Fig. 4 metric). ---
    let (cc_serial_ms, cc_serial) = time_ms(reps, || {
        nodes
            .iter()
            .map(|&n| clustering::first_k_clustering(g, n, fclustering::FIRST_K))
            .collect::<Vec<f64>>()
    });
    set_threads(1);
    let (cc_snap1_ms, cc_snap1) =
        time_ms(reps, || clustering::first_k_clustering_all(g, fclustering::FIRST_K));
    set_threads(threads);
    let (cc_snapn_ms, cc_snapn) =
        time_ms(reps, || clustering::first_k_clustering_all(g, fclustering::FIRST_K));
    assert_eq!(cc_serial, cc_snap1, "snapshot sweep must be bit-identical");
    assert_eq!(cc_serial, cc_snapn, "parallel sweep must be bit-identical");

    // --- Full-population feature extraction. ---
    let fx = FeatureExtractor::new(out);
    let (feat_serial_ms, feat_serial) = time_ms(reps, || features_baseline(&fx, &nodes));
    set_threads(1);
    let (feat_snap1_ms, feat_snap1) = time_ms(reps, || fx.features_for_all(&nodes));
    set_threads(threads);
    let (feat_snapn_ms, feat_snapn) = time_ms(reps, || fx.features_for_all(&nodes));
    assert_eq!(feat_serial, feat_snap1, "feature vectors must be bit-identical");
    assert_eq!(feat_serial, feat_snapn, "parallel features must be bit-identical");

    // --- Defense random routes (SybilLimit tails over sampled suspects). ---
    let sl = SybilLimit::new(g, 7);
    let suspects: Vec<NodeId> = nodes.iter().copied().take(12).collect();
    let verifier = *nodes.last().unwrap();
    set_threads(1);
    let (def_1t_ms, def_1t) =
        time_ms(reps, || evaluate_defense(&sl, g, verifier, &suspects, &suspects));
    set_threads(threads);
    let (def_nt_ms, def_nt) =
        time_ms(reps, || evaluate_defense(&sl, g, verifier, &suspects, &suspects));
    assert_eq!(def_1t, def_nt, "defense verdicts must be thread-count invariant");

    let cc_speedup = cc_serial_ms / cc_snapn_ms;
    let feat_speedup = feat_serial_ms / feat_snapn_ms;
    let n_nodes = g.num_nodes();
    let n_edges = g.num_edges();
    let snap_edges = snap.num_edges();
    let fixture = serde_json::json!({"nodes": n_nodes, "edges": n_edges});
    let sweep = serde_json::json!({
        "serial_graph_ms": cc_serial_ms,
        "snapshot_1_thread_ms": cc_snap1_ms,
        "snapshot_n_threads_ms": cc_snapn_ms,
        "speedup_vs_serial": cc_speedup,
    });
    let features = serde_json::json!({
        "serial_graph_ms": feat_serial_ms,
        "snapshot_1_thread_ms": feat_snap1_ms,
        "snapshot_n_threads_ms": feat_snapn_ms,
        "speedup_vs_serial": feat_speedup,
    });
    let defense = serde_json::json!({
        "one_thread_ms": def_1t_ms,
        "n_threads_ms": def_nt_ms,
    });
    let report = serde_json::json!({
        "bench": "perf_snapshot",
        "fixture": fixture,
        "threads": threads,
        "reps": reps,
        "snapshot_build_ms": snap_build_ms,
        "snapshot_num_edges": snap_edges,
        "clustering_sweep": sweep,
        "feature_extraction": features,
        "defense_walks": defense,
        "bit_identical": true,
    });
    write_report("BENCH_parallel.json", &report).expect("write BENCH_parallel.json");
    eprintln!(
        "clustering sweep speedup {cc_speedup:.2}x, feature extraction speedup {feat_speedup:.2}x"
    );
    assert!(
        cc_speedup >= MIN_SPEEDUP && feat_speedup >= MIN_SPEEDUP,
        "acceptance: >=2x speedup required (clustering {cc_speedup:.2}x, features {feat_speedup:.2}x)"
    );
}
