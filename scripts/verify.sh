#!/usr/bin/env bash
# Repo verification: the tier-1 gate from ROADMAP.md plus a zero-warning
# clippy pass, the sybil-lint semantic audit (with its <5s runtime
# budget, --fix-allowlist byte-identity, and SARIF-catalog snapshot
# gates), the thread-count bit-identity smoke test (the sanitizer
# stand-in — see DESIGN.md), the serving-engine serve-vs-replay
# equivalence smoke, the metrics bit-identity guard (logical section of
# metrics.json across threads × shards), the release test suites, the
# kill + warm-restart drill, and the acceptance-bench bins.
#
# Each acceptance-bench bin (perf_snapshot, scale_sweep --smoke,
# obs_overhead, chaos_bench, restart_bench) asserts its own gates — the
# bound lives once, in the bin — and a failed gate exits nonzero, which
# fails this script. Only the committed BENCH_scale.json 5M row, which
# no step here rewrites, is checked from JSON.
# Run from the workspace root: ./scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."
root="$(pwd)"

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== lint: cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== lint: sybil-lint determinism & invariant audit (D + S series) =="
# Release binary (built by the tier-1 step) so the <5s budget measures
# the analysis — token rules, call-graph resolution, whole-workspace
# effect inference (S109–S112), and the loop-context cost analysis
# (S113–S117) — not rustc.
lint_bin="$root/target/release/sybil-lint"
python3 - "$lint_bin" <<'PY'
import subprocess, sys, time
t0 = time.monotonic()
rc = subprocess.call([sys.argv[1], "--workspace"])
dt = time.monotonic() - t0
print(f"lint budget: {dt:.2f}s (<5s required)")
sys.exit(rc if rc else (0 if dt < 5.0 else 1))
PY

echo "== lint: zero stale allowlist entries (--fix-allowlist is a no-op) =="
# Every lint.toml entry must match a live finding; a clean tree means
# --fix-allowlist rewrites the file byte-identically.
lint_orig="$(mktemp)"
cp lint.toml "$lint_orig"
"$lint_bin" --workspace --fix-allowlist >/dev/null
if ! cmp -s lint.toml "$lint_orig"; then
    cp "$lint_orig" lint.toml
    rm -f "$lint_orig"
    echo "lint.toml has stale allowlist entries (--fix-allowlist changed it)"
    exit 1
fi
rm -f "$lint_orig"

echo "== lint: SARIF output validates against the committed catalog =="
# `--format sarif` must stay parseable SARIF 2.1.0 whose rule catalog
# (ids, summaries, --explain-sourced fullDescriptions, helpUris) is
# byte-stable; the findings themselves churn with line numbers, so the
# snapshot pins the catalog only. Regen:
#   sybil-lint --workspace --format sarif | python3 -c 'import json,sys; \
#     json.dump(json.load(sys.stdin)["runs"][0]["tool"]["driver"]["rules"], \
#     open("crates/sybil-lint/tests/fixtures/sarif_catalog.json","w"), indent=2)'
"$lint_bin" --workspace --format sarif > "$root/target/verify_ws.sarif"
python3 - "$root/target/verify_ws.sarif" \
    "$root/crates/sybil-lint/tests/fixtures/sarif_catalog.json" <<'PY'
import json, sys
sarif = json.load(open(sys.argv[1]))
assert sarif["version"] == "2.1.0", sarif["version"]
assert "sarif-2.1.0" in sarif["$schema"], sarif["$schema"]
run = sarif["runs"][0]
driver = run["tool"]["driver"]
assert driver["name"] == "sybil-lint", driver["name"]
rules = driver["rules"]
for r in rules:
    missing = [k for k in ("id", "shortDescription", "fullDescription", "helpUri") if k not in r]
    assert not missing, f"rule {r.get('id')} missing {missing}"
snapshot = json.load(open(sys.argv[2]))
if json.dumps(rules, sort_keys=True) != json.dumps(snapshot, sort_keys=True):
    print("SARIF rule catalog drifted from the committed snapshot "
          "(crates/sybil-lint/tests/fixtures/sarif_catalog.json); regen per "
          "the comment in verify.sh if the change is intentional")
    sys.exit(1)
n_sup = sum(1 for res in run.get("results", []) if res.get("suppressions"))
print(f"sarif smoke: {len(rules)} rules in catalog, "
      f"{len(run.get('results', []))} results ({n_sup} suppressed), catalog matches snapshot")
PY

echo "== sanitizer stand-in: RENREN_THREADS=1 vs 8 bit-identity =="
# Miri cannot execute the scoped-thread par:: layer, so race detection
# leans on end-to-end thread-count invariance instead.
cargo run -q --release -p sybil-bench --bin thread_identity

echo "== bench-regression guard: perf_snapshot =="
# Run in a temp dir so BENCH_parallel.json never dirties the checkout.
# The bin asserts bit-identity and its parallel-speedup floor.
bench_tmp="$(mktemp -d)"
trap 'rm -rf "$bench_tmp"' EXIT
(cd "$bench_tmp" && cargo run -q --release -p sybil-bench --bin perf_snapshot \
    --manifest-path "$root/Cargo.toml" >/dev/null)

echo "== serving engine: serve-vs-replay equivalence at 1 and 8 shards =="
# The sharded engine must reproduce the sequential replay byte-for-byte
# regardless of shard count; `repro serve` embeds both byte-comparisons
# (static and adaptive) in its JSON, so assert them at two thread counts.
for threads in 1 8; do
    out_dir="$bench_tmp/serve_t$threads"
    RENREN_THREADS=$threads cargo run -q --release -p sybil-repro --bin repro -- \
        --scale tiny --out "$out_dir" serve >/dev/null
    python3 - "$out_dir/tiny-seed1/serve.json" "$threads" <<'PY'
import json, sys
r = json.load(open(sys.argv[1]))
ok = r["matches_replay_static"] and r["matches_replay_adaptive"]
print(f"serve guard (RENREN_THREADS={sys.argv[2]}, shards={r['shards']}): "
      f"static≡replay={r['matches_replay_static']}, "
      f"adaptive≡replay={r['matches_replay_adaptive']}")
sys.exit(0 if ok else 1)
PY
done

echo "== observability: logical metrics bit-identity across threads × shards =="
# `repro --metrics` writes metrics.json; its `logical` section is the
# determinism contract — byte-identical across RENREN_THREADS and shard
# counts (`sharded` and `wall` sections are config- and time-dependent).
for threads in 1 8; do
    for shards in 1 8; do
        m_dir="$bench_tmp/metrics_t${threads}_s${shards}"
        RENREN_THREADS=$threads cargo run -q --release -p sybil-repro --bin repro -- \
            --scale tiny --out "$m_dir" --shards "$shards" --metrics "$m_dir" \
            serve >/dev/null
    done
done
python3 - "$bench_tmp" <<'PY'
import json, sys, os
base = sys.argv[1]
configs = [(t, s) for t in (1, 8) for s in (1, 8)]
logical = {}
for t, s in configs:
    path = os.path.join(base, f"metrics_t{t}_s{s}", "metrics.json")
    logical[(t, s)] = json.dumps(json.load(open(path))["logical"], sort_keys=True)
ref = logical[(1, 1)]
ok = all(v == ref for v in logical.values())
n = len(json.loads(ref))
print(f"metrics guard: {n} logical metrics, "
      f"identical across threads×shards {configs}: {ok}")
sys.exit(0 if ok else 1)
PY

echo "== scale: scale_sweep smoke (20k + 200k accounts) =="
# The CI-sized slice of the million-account sweep: the bin asserts that
# serve stays byte-identical to replay and inside the RSS budget at both
# smoke sizes. The full sweep's output is the committed BENCH_scale.json.
(cd "$bench_tmp" && cargo run -q --release -p sybil-bench --bin scale_sweep \
    --manifest-path "$root/Cargo.toml" -- --smoke >/dev/null)

echo "== scale: committed BENCH_scale.json 5M-account floor =="
# Regression guard on the committed full-sweep record: the 5M row must
# exist, be bit-identical, stay under its RSS budget, and sustain the
# 10M event-scans/sec aggregate floor at 8 shards.
python3 - "$root/BENCH_scale.json" <<'PY'
import json, sys
r = json.load(open(sys.argv[1]))
row = next((x for x in r["rows"] if x["accounts"] == 5_000_000), None)
if row is None:
    print("scale guard: committed BENCH_scale.json has no 5M-account row")
    sys.exit(1)
scan8 = row["scan_events_per_sec_8shards"]
ok = row["bit_identical"] and row["under_budget"] and scan8 >= 10_000_000
print(f"scale guard: 5M row scan8={scan8/1e6:.1f}M/s (>=10M required), "
      f"bit_identical={row['bit_identical']}, under_budget={row['under_budget']}")
sys.exit(0 if ok else 1)
PY

echo "== observability: instrumentation overhead gate =="
# Metrics on vs off: identical reports, and the overhead bound the bin
# asserts on the serving critical path.
(cd "$bench_tmp" && cargo run -q --release -p sybil-bench --bin obs_overhead \
    --manifest-path "$root/Cargo.toml" >/dev/null)

echo "== release tests: store, chaos, serve, lint, bench harness =="
# The headline chaos invariant — any fault schedule yields output
# byte-identical to the fault-free run OR a typed ChaosError, never
# silent divergence — plus the journal round-trip at 1/2/8 shards, the
# SYBS golden-bytes test, the kill/restart proptest, the typed
# corrupt-count tests for both on-disk formats, the store's
# single-writer lock, the serve determinism proptests, the sybil-lint
# fixture tests, and the shared bench-harness tests.
cargo test -q --release -p sybil-store -p sybil-chaos -p sybil-serve -p sybil-lint -p sybil-bench

echo "== chaos: crash-recovery smoke + journal overhead gate =="
# Seeded mid-stream shard crash must recover from the write-ahead
# journal byte-identical to the fault-free replay, and journaling every
# epoch must stay inside the overhead bound the bin asserts.
(cd "$bench_tmp" && cargo run -q --release -p sybil-bench --bin chaos_bench \
    --manifest-path "$root/Cargo.toml" >/dev/null)

echo "== persistence: kill + warm-restart drill (repro restart) =="
# A seed-derived mid-stream kill must warm-restart from the snapshot
# store + journal tail to a report byte-identical to the uninterrupted
# run — the sybil-store proptest's invariant, on the real repro stream.
r_dir="$bench_tmp/restart_drill"
cargo run -q --release -p sybil-repro --bin repro -- \
    --scale tiny --out "$r_dir" --store "$r_dir/store" restart >/dev/null
python3 - "$r_dir/tiny-seed1/restart.json" <<'PY'
import json, sys
r = json.load(open(sys.argv[1]))
ok = r["matches_oracle"] and r["resumed_from"] is not None and r["checkpoints"]
print(f"restart drill: killed at epoch {r['kill_epoch']}, resumed from "
      f"checkpoint {r['resumed_from']} (+{r['tail_replayed']} journal epochs), "
      f"report≡oracle={r['matches_oracle']}")
sys.exit(0 if ok else 1)
PY

echo "== persistence: checkpoint overhead + restart-latency gates =="
# Checkpoint writes (paired against a journal-only plane, so the delta
# is the snapshot cost alone) must stay inside the overhead bound the
# bin asserts, persisted runs must report byte-identically to plain,
# and a near-end warm restart must beat the cold replay it replaces.
(cd "$bench_tmp" && cargo run -q --release -p sybil-bench --bin restart_bench \
    --manifest-path "$root/Cargo.toml" >/dev/null)

echo "verify: OK"
