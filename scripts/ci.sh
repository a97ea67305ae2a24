#!/usr/bin/env bash
# Repo gate: tier-1 (release build + root test suite), the full workspace
# test matrix, and clippy with warnings-as-errors.
#
# Every dependency resolves to an in-tree shim crate under shims/ (see
# README "Offline builds"), so the whole gate runs with no network access.
# Pass --offline (or export CARGO_NET_OFFLINE=true) to forbid registry
# access outright; the script also falls back to --offline by itself when
# the registry is unreachable.
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_FLAGS=()
if [[ "${1:-}" == "--offline" ]] || [[ "${CARGO_NET_OFFLINE:-}" == "true" ]]; then
  CARGO_FLAGS+=(--offline)
elif ! cargo fetch --quiet >/dev/null 2>&1; then
  echo "ci: registry unreachable, continuing with --offline"
  CARGO_FLAGS+=(--offline)
fi

run() {
  echo "+ cargo $*"
  cargo "$@"
}

# Tier-1: release build + root test suite.
run build --release "${CARGO_FLAGS[@]}"
run test -q "${CARGO_FLAGS[@]}"

# Full workspace suites (unit + integration + property tests, incl. shims).
run test -q --workspace "${CARGO_FLAGS[@]}"

# The benchmark is a package of its own (mcbench/, outside the workspace):
# its unit tests, then a smoke run — one pass of each of the five workloads
# at a tenth of the simulated length, every pass checked. The smoke run
# writes only under target/mcbench/.
run test -q --manifest-path mcbench/Cargo.toml "${CARGO_FLAGS[@]}"
run run --release -q --manifest-path mcbench/Cargo.toml "${CARGO_FLAGS[@]}" -- --smoke >/dev/null
echo "ci: mcbench smoke OK (target/mcbench/results.json)"

# Lints: the tree stays warning-free.
run clippy --workspace --all-targets "${CARGO_FLAGS[@]}" -- -D warnings

# Blocking determinism/unit-safety gate (see DESIGN.md "Static invariants").
# Writes the machine-readable report to results/simlint_report.json.
# Includes the probe-unique rule: ProbeId names stay unique workspace-wide.
run run -q -p simlint "${CARGO_FLAGS[@]}" -- --workspace
echo "ci: simlint report at results/simlint_report.json"

# Model-checking gate: exhaustively explore the CI configuration (3 nodes,
# window 2, loss budget 2, plus dup/reorder/crash budgets) of the reliable-
# multicast protocol and fail on any invariant violation or deadlock. The
# run is deterministic (fixed BFS order) and bounded by a state-count and
# wall budget; it writes results/simcheck_report.json (DESIGN.md §13).
run run -q --release -p simcheck "${CARGO_FLAGS[@]}" -- --ci
echo "ci: simcheck report at results/simcheck_report.json"

# Observability gate: one probed run must export a Perfetto-loadable Chrome
# trace-event document (--check re-parses it and validates ph/ts/pid/tid,
# B/E balance and per-track timestamp monotonicity) with the attribution
# buckets summing to the measured mean.
run run -q --release -p bench "${CARGO_FLAGS[@]}" --bin trace_explore -- \
  --nodes 16 --size 4096 --mode nic --shape adaptive --check
echo "ci: trace schema OK (results/trace_nic_16n_4096B.json)"

# Causal-tracing gate: the flow graph of the headline configuration must be
# acyclic with complete lineages, and every measured window's critical-path
# buckets must sum exactly to the completion latency (DESIGN.md §12).
run run -q --release -p bench "${CARGO_FLAGS[@]}" --bin flow_explore -- \
  --nodes 16 --size 4096 --mode nic --shape adaptive --check >/dev/null
echo "ci: flow check OK (lineages complete, critical-path buckets exact)"

# Sustained-traffic gate: a many-group Zipf workload under deliberate
# group-table pressure (32 slots, 64 groups) must produce a complete
# summary (schema keys present), monotone latency percentiles, a Jain
# fairness index in (0, 1], and a conserved group table (every install
# freed by the disband path) — see DESIGN.md §14. The run also records a
# fresh `workload_explore` dispatch-rate point, gated below; the committed
# baseline is snapshotted first and restored after.
perf_snapshot=$(mktemp)
cp results/perf_baseline.json "$perf_snapshot"
run run -q --release -p bench "${CARGO_FLAGS[@]}" --bin workload_explore -- \
  --nodes 32 --groups 64 --zipf 1.2 --rate 20000 --duration-ms 2 --check >/dev/null
echo "ci: workload check OK (schema, percentile monotonicity, fairness, group-table conservation)"

# Health-monitoring gate: a lossy many-group workload with the streaming
# detectors armed must (a) raise a retx_storm incident with causal FlowId
# evidence, (b) emit the incident stream in canonical order, (c) produce a
# byte-identical health summary across shard counts, and (d) overflow no
# telemetry ring (DESIGN.md §16). The fresh artifact is then self-diffed
# against the committed one with report_diff: identical configuration must
# produce an identical report, so the differ's "silent on equal inputs"
# contract and the artifact's byte-stability are both gated here.
health_snapshot=$(mktemp)
cp results/health_explore.json "$health_snapshot"
run run -q --release -p bench "${CARGO_FLAGS[@]}" --bin health_explore -- --check >/dev/null
echo "ci: health check OK (storm evidence, canonical order, shard-invariant, no ring drops)"
run run -q --release -p bench "${CARGO_FLAGS[@]}" --bin report_diff -- \
  "$health_snapshot" results/health_explore.json
mv "$health_snapshot" results/health_explore.json
echo "ci: report_diff OK (re-run of identical config diffs clean)"

# Artifact-freshness gate: rerun every figure, ablation and extension
# binary whose default run takes seconds and report_diff its fresh JSON
# against a snapshot of the committed one, so an artifact the current code
# no longer reproduces fails the build instead of going stale. Each binary
# also merges a perf record into results/perf_baseline.json, which is why
# this runs inside the perf_baseline snapshot window (restored below).
fresh_bins=(
  fig3_multisend fig4_mpi_bcast fig5_gm_multicast fig6_skew fig7_skew_scaling
  gm_allsize ablation_ack_coalesce ablation_loss ablation_multisend_impl
  ablation_retx_buffer ablation_token ablation_tree ext_allbcast ext_allreduce
  ext_nic_barrier ext_rndv_bcast ext_throughput
)
artifact_snapshots=$(mktemp -d)
for bin in "${fresh_bins[@]}"; do
  cp "results/$bin.json" "$artifact_snapshots/$bin.json"
  run run -q --release -p bench "${CARGO_FLAGS[@]}" --bin "$bin" >/dev/null
  run run -q --release -p bench "${CARGO_FLAGS[@]}" --bin report_diff -- \
    "$artifact_snapshots/$bin.json" "results/$bin.json"
done
rm -r "$artifact_snapshots"
echo "ci: ${#fresh_bins[@]} figure/ablation/extension artifacts regenerate identically"

# Perf-regression gate: re-measure the scalability sweep's dispatch rate
# and the steady-state workload's, and compare events_per_sec against the
# committed baseline; more than 25% regression fails the build. Rates are
# per-second, so the short gate run and the full baseline run compare
# fairly; the gate skips itself across hosts with different core counts.
# MYRI_CI_NO_PERF=1 opts out (e.g. on heavily loaded or throttled runners).
if [[ "${MYRI_CI_NO_PERF:-}" == "1" ]]; then
  mv "$perf_snapshot" results/perf_baseline.json
  echo "ci: perf gate skipped (MYRI_CI_NO_PERF=1)"
else
  sweep_snapshot=$(mktemp)
  cp results/ext_scalability.json "$sweep_snapshot"
  run run -q --release -p bench "${CARGO_FLAGS[@]}" --bin ext_scalability -- \
    --iters 10 --warmup 2 >/dev/null
  run run -q --release -p bench "${CARGO_FLAGS[@]}" --bin perf_gate -- \
    ext_scalability "$perf_snapshot" results/perf_baseline.json 0.25
  run run -q --release -p bench "${CARGO_FLAGS[@]}" --bin perf_gate -- \
    workload_explore "$perf_snapshot" results/perf_baseline.json 0.25
  # Allocation-churn gate: re-measure with the counting allocator compiled
  # in (records under `ext_scalability_alloc` so it never collides with the
  # timing baseline) and fail on a >10% allocs-per-event regression. The
  # baseline was recorded with the same --iters/--warmup so fixed setup
  # allocations amortize identically.
  run run -q --release -p bench --features alloc-count "${CARGO_FLAGS[@]}" \
    --bin ext_scalability -- --iters 3 --warmup 1 >/dev/null
  run run -q --release -p bench "${CARGO_FLAGS[@]}" --bin perf_gate -- \
    ext_scalability_alloc "$perf_snapshot" results/perf_baseline.json 0.25
  # The gate runs used reduced iterations; restore the committed artifacts.
  mv "$perf_snapshot" results/perf_baseline.json
  mv "$sweep_snapshot" results/ext_scalability.json
fi

echo "ci: all green"
