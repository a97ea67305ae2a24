#!/usr/bin/env bash
# Repo gate: tier-1 (release build + root test suite), the full workspace
# test matrix, and clippy and rustdoc with warnings-as-errors.
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
# They include crates/bench/tests/counts.rs, which pins the exact events and
# heap allocations of one run on each run path; wall-clock cost is
# mcbench's to measure.
run test -q --workspace "${CARGO_FLAGS[@]}"

# One-CPU pass: on a multi-core host sharded runs take the threaded window
# loop, so pin the parity and determinism suites (and gm-mpi's unit tests,
# which run MPI programs on one and two shards) to one core to run the
# calling-thread loop with several shards end to end, as a single-core host
# does.
if command -v taskset >/dev/null 2>&1; then
  echo "+ taskset -c 0 cargo test -q -p nic-mcast --test parallel_parity --test determinism"
  taskset -c 0 cargo test -q -p nic-mcast --test parallel_parity --test determinism "${CARGO_FLAGS[@]}"
  echo "+ taskset -c 0 cargo test -q -p gm-mpi --lib"
  taskset -c 0 cargo test -q -p gm-mpi --lib "${CARGO_FLAGS[@]}"
else
  echo "ci: taskset not found, skipping the one-CPU parity pass"
fi

# Examples: build every one in release mode and run it (together they take
# under a second). The first 8 lines quickstart prints must match the
# README's Quickstart block byte for byte.
run build --release --examples "${CARGO_FLAGS[@]}"
examples_out=$(mktemp -d)
examples=(examples/*.rs)
for src in "${examples[@]}"; do
  ex=$(basename "$src" .rs)
  echo "+ cargo run --release -q --example $ex"
  cargo run --release -q "${CARGO_FLAGS[@]}" --example "$ex" >"$examples_out/$ex.txt"
done
readme_quickstart=$(awk '/^\$ cargo run --release --example quickstart$/ { on = 1; next }
  on && /^```$/ { exit } on' README.md)
if [[ "$(head -n 8 "$examples_out/quickstart.txt")" != "$readme_quickstart" ]]; then
  echo "ci: quickstart output differs from the README Quickstart block:" >&2
  diff <(printf '%s\n' "$readme_quickstart") <(head -n 8 "$examples_out/quickstart.txt") >&2 || true
  exit 1
fi
rm -r "$examples_out"
echo "ci: ${#examples[@]} examples run, quickstart matches the README"

# The benchmark is a package of its own (mcbench/, outside the workspace):
# its unit tests, then a smoke run — one pass of each of the five workloads
# at a tenth of the simulated length, every pass checked. The smoke run
# writes only under target/mcbench/.
run test -q --manifest-path mcbench/Cargo.toml "${CARGO_FLAGS[@]}"
run run --release -q --manifest-path mcbench/Cargo.toml "${CARGO_FLAGS[@]}" -- --smoke >/dev/null
echo "ci: mcbench smoke OK (target/mcbench/results.json)"

# Lints: the tree stays warning-free. With the root clippy.toml and the
# workspace lint table this is also the determinism and hygiene gate (see
# DESIGN.md "Static invariants"): no HashMap/HashSet, no Instant::now or
# SystemTime::now, no thread::spawn or thread::scope, no unwrap() outside
# tests, and no #[allow]: a suppression is an #[expect] with a reason, and
# one that suppresses nothing fails. The unit, expect-message and
# probe-name rules are tests/source_rules.rs, part of the tier-1 suite.
run clippy --workspace --all-targets "${CARGO_FLAGS[@]}" -- -D warnings
# Formatting: every workspace member is rustfmt-clean (mcbench, a workspace
# of its own, is not covered).
run fmt --all -- --check
# The benchmark keeps the unwrap rule too; reading the wall clock is its job.
run clippy --manifest-path mcbench/Cargo.toml --all-targets "${CARGO_FLAGS[@]}" -- \
  -D warnings -D clippy::unwrap_used -A clippy::disallowed_methods

# Docs: rustdoc with warnings-as-errors, so a broken intra-doc link, a
# public doc that links a private item or a redundant link target fails.
echo "+ RUSTDOCFLAGS=\"-D warnings\" cargo doc --no-deps --workspace"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace "${CARGO_FLAGS[@]}"

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
# buckets summing to the measured mean. The fresh trace is then diffed
# against a snapshot of the committed one, so a timeline the current code
# no longer reproduces fails the build.
trace_snapshot=$(mktemp)
cp results/trace_nic_16n_4096B.json "$trace_snapshot"
run run -q --release -p bench "${CARGO_FLAGS[@]}" --bin trace_explore -- \
  --nodes 16 --size 4096 --mode nic --shape adaptive --check
run run -q --release -p bench "${CARGO_FLAGS[@]}" --bin report_diff -- \
  "$trace_snapshot" results/trace_nic_16n_4096B.json
mv "$trace_snapshot" results/trace_nic_16n_4096B.json
echo "ci: trace schema OK, results/trace_nic_16n_4096B.json regenerates identically"

# Figure 2 gate: fig2_timelines prints each probe record's name, label,
# phase and span length for three scenarios, so a record that reads back
# differently from how it was recorded changes this text.
fig2_out=$(mktemp)
echo "+ cargo run -q --release -p bench --bin fig2_timelines > $fig2_out"
cargo run -q --release -p bench "${CARGO_FLAGS[@]}" --bin fig2_timelines >"$fig2_out"
diff -u results/fig2_timelines.txt "$fig2_out"
rm "$fig2_out"
echo "ci: results/fig2_timelines.txt regenerates identically"

# Explorer smoke: the interactive explorer must build and run an explicit
# postal tree and print it (no other gate runs this binary).
run run -q --release -p bench "${CARGO_FLAGS[@]}" --bin explore -- \
  --nodes 8 --shape postal:3:1 --iters 20 --warmup 2 --tree >/dev/null
echo "ci: explore smoke OK"

# Causal-tracing gate: the flow graph of the headline configuration must be
# acyclic with complete lineages, and every measured window's critical-path
# buckets must sum exactly to the completion latency (DESIGN.md §12). The
# same configuration runs again at 2% loss on 4 shards, and the stdout of
# both runs (flow counts, critical paths, their buckets, gauge summaries)
# must match results/flow_explore.txt byte for byte. The barrier-wait count
# is cut from the sharded-execution line: it counts threaded windows, so it
# depends on whether the host had a free core for every shard.
flow_args=(--nodes 16 --size 4096 --mode nic --shape adaptive --check)
flow_out=$(mktemp)
echo "+ cargo run -q --release -p bench --bin flow_explore -- ${flow_args[*]} [--loss 0.02 --shards 4]"
{
  cargo run -q --release -p bench "${CARGO_FLAGS[@]}" --bin flow_explore -- "${flow_args[@]}"
  cargo run -q --release -p bench "${CARGO_FLAGS[@]}" --bin flow_explore -- "${flow_args[@]}" \
    --loss 0.02 --shards 4
} | sed -E 's/, [0-9]+ barrier waits$//' >"$flow_out"
diff -u results/flow_explore.txt "$flow_out"
rm "$flow_out"
echo "ci: flow check OK (lineages complete, critical-path buckets exact, results/flow_explore.txt regenerates identically)"

# Sustained-traffic gate: a many-group Zipf workload (32 nodes, 64
# groups) must produce a complete summary (schema keys present), monotone
# latency percentiles, a Jain fairness index in (0, 1], and a conserved
# group table (every install freed by the disband path) — see DESIGN.md
# §14. A second run puts 200 fan-out-4 groups on 8 group-table slots and 2
# shards, so installs wait for admission and sends are deferred behind
# them. The stdout of both runs (latency percentiles, goodput, fairness,
# group-table occupancy, per-shard events) must match
# results/workload_explore.txt byte for byte. The barrier-wait count is cut
# from the middle of the sharded-execution line, as in the flow gate.
workload_out=$(mktemp)
echo "+ cargo run -q --release -p bench --bin workload_explore -- [CI run] [admission-pressure run]"
{
  cargo run -q --release -p bench "${CARGO_FLAGS[@]}" --bin workload_explore -- \
    --nodes 32 --groups 64 --zipf 1.2 --rate 20000 --duration-ms 2 --check
  cargo run -q --release -p bench "${CARGO_FLAGS[@]}" --bin workload_explore -- \
    --nodes 32 --groups 200 --fanout 4 --slots 8 --rate 5000 --duration-ms 4 --shards 2 --check
} | sed -E 's/, [0-9]+ barrier waits,/,/' >"$workload_out"
diff -u results/workload_explore.txt "$workload_out"
rm "$workload_out"
echo "ci: workload check OK (schema, percentile monotonicity, fairness, group-table conservation, results/workload_explore.txt regenerates identically)"

# Health-monitoring gate: a lossy many-group workload with the streaming
# detectors armed must (a) raise a retx_storm incident with causal FlowId
# evidence, (b) emit the incident stream in canonical order, and (c) produce
# a byte-identical health summary across shard counts (DESIGN.md §16). The
# fresh artifact is then self-diffed
# against the committed one with report_diff: identical configuration must
# produce an identical report, so the differ's "silent on equal inputs"
# contract and the artifact's byte-stability are both gated here.
health_snapshot=$(mktemp)
cp results/health_explore.json "$health_snapshot"
run run -q --release -p bench "${CARGO_FLAGS[@]}" --bin health_explore -- --check >/dev/null
echo "ci: health check OK (storm evidence, canonical order, shard-invariant)"
run run -q --release -p bench "${CARGO_FLAGS[@]}" --bin report_diff -- \
  "$health_snapshot" results/health_explore.json
mv "$health_snapshot" results/health_explore.json
echo "ci: report_diff OK (re-run of identical config diffs clean)"

# Checked pass: the health gate and both flow-gate runs again, built in
# the `checked` profile (release plus debug assertions), so the
# `debug_assert!`s that optimized observed runs rely on hold on them too:
# each shard's probe and gauge stream is in time order for the canonical
# merge, and the merged stream is for the flow graph and the incident
# evidence. Their output must match the committed artifacts, as above.
health_snapshot=$(mktemp)
cp results/health_explore.json "$health_snapshot"
run run -q --profile checked -p bench "${CARGO_FLAGS[@]}" --bin health_explore -- --check >/dev/null
run run -q --release -p bench "${CARGO_FLAGS[@]}" --bin report_diff -- \
  "$health_snapshot" results/health_explore.json
mv "$health_snapshot" results/health_explore.json
flow_out=$(mktemp)
echo "+ cargo run -q --profile checked -p bench --bin flow_explore -- ${flow_args[*]} [--loss 0.02 --shards 4]"
{
  cargo run -q --profile checked -p bench "${CARGO_FLAGS[@]}" --bin flow_explore -- "${flow_args[@]}"
  cargo run -q --profile checked -p bench "${CARGO_FLAGS[@]}" --bin flow_explore -- \
    "${flow_args[@]}" --loss 0.02 --shards 4
} | sed -E 's/, [0-9]+ barrier waits$//' >"$flow_out"
diff -u results/flow_explore.txt "$flow_out"
rm "$flow_out"
# The firmware figures too: the ablations and both collectives drive every
# forwarding variant (free-pool and per-destination tokens, held SRAM,
# loss, barrier and allreduce releases), so the pool-conservation and
# buffer-reference assertions hold on optimized runs of them. Each JSON
# must match the committed one.
checked_bins=(
  ablation_token ablation_retx_buffer ablation_multisend_impl ablation_loss
  ext_nic_barrier ext_allreduce
)
checked_snapshots=$(mktemp -d)
for bin in "${checked_bins[@]}"; do
  cp "results/$bin.json" "$checked_snapshots/$bin.json"
  echo "+ cargo run -q --profile checked -p bench --bin $bin"
  cargo run -q --profile checked -p bench "${CARGO_FLAGS[@]}" --bin "$bin" >/dev/null
  run run -q --release -p bench "${CARGO_FLAGS[@]}" --bin report_diff -- \
    "$checked_snapshots/$bin.json" "results/$bin.json"
  mv "$checked_snapshots/$bin.json" "results/$bin.json"
done
rm -r "$checked_snapshots"
echo "ci: checked pass OK (health, flow and ${#checked_bins[@]} firmware-figure gates with debug assertions, artifacts identical)"

# Artifact-freshness gate: rerun every figure, ablation and extension
# binary whose default run takes seconds and report_diff its fresh JSON
# against a snapshot of the committed one, so an artifact the current code
# no longer reproduces fails the build instead of going stale. Each
# binary's stdout (its console tables) must match its log under
# results/logs/ byte for byte too. Cargo is called directly here, since
# `run` echoes the command to stdout; the "(results written to ...)" line
# goes to stderr and is not part of a log. To refresh a log when a figure
# moves on purpose, rerun the binary with its stdout redirected to it.
fresh_bins=(
  fig3_multisend fig4_mpi_bcast fig5_gm_multicast fig6_skew fig7_skew_scaling
  gm_allsize ablation_ack_coalesce ablation_loss ablation_multisend_impl
  ablation_retx_buffer ablation_token ablation_tree ext_allbcast ext_allreduce
  ext_nic_barrier ext_rndv_bcast ext_scalability ext_throughput
)
artifact_snapshots=$(mktemp -d)
for bin in "${fresh_bins[@]}"; do
  cp "results/$bin.json" "$artifact_snapshots/$bin.json"
  echo "+ cargo run -q --release -p bench --bin $bin > $artifact_snapshots/$bin.txt"
  cargo run -q --release -p bench "${CARGO_FLAGS[@]}" --bin "$bin" >"$artifact_snapshots/$bin.txt"
  diff -u "results/logs/$bin.txt" "$artifact_snapshots/$bin.txt"
  run run -q --release -p bench "${CARGO_FLAGS[@]}" --bin report_diff -- \
    "$artifact_snapshots/$bin.json" "results/$bin.json"
done
# Two binaries write no JSON, so their stdout is their whole artifact:
# the Fig. 1 feature matrix, and the §6.1 unicast-parity table, whose run
# also asserts that the multicast extension leaves unicast latency
# unchanged.
for bin in fig1_features check_unicast_parity; do
  echo "+ cargo run -q --release -p bench --bin $bin > $artifact_snapshots/$bin.txt"
  cargo run -q --release -p bench "${CARGO_FLAGS[@]}" --bin "$bin" >"$artifact_snapshots/$bin.txt"
  diff -u "results/logs/$bin.txt" "$artifact_snapshots/$bin.txt"
done
# Fig. 5 by the paper's own method, the maximum over every leaf as the
# probe: a run off the committed flags writes no JSON, so its stdout is
# its whole artifact.
allprobes_log=fig5_gm_multicast_allprobes.txt
echo "+ cargo run -q --release -p bench --bin fig5_gm_multicast -- --all-probes > $artifact_snapshots/$allprobes_log"
cargo run -q --release -p bench "${CARGO_FLAGS[@]}" --bin fig5_gm_multicast -- --all-probes \
  >"$artifact_snapshots/$allprobes_log"
diff -u "results/logs/$allprobes_log" "$artifact_snapshots/$allprobes_log"
echo "ci: ${#fresh_bins[@]} figure/ablation/extension artifacts and $((${#fresh_bins[@]} + 3)) stdout logs regenerate identically"

# MPI shard-parity gate: the skew-scaling, MPI-broadcast and NIC-barrier
# figures rerun on 2 shards must reproduce the committed artifacts byte for
# byte, so MPI aggregates that depend on the cross-rank dispatch order fail
# the build.
shard_bins=(fig7_skew_scaling fig4_mpi_bcast ext_nic_barrier)
for bin in "${shard_bins[@]}"; do
  echo "+ MYRI_SIM_SHARDS=2 cargo run -q --release -p bench --bin $bin"
  MYRI_SIM_SHARDS=2 cargo run -q --release -p bench "${CARGO_FLAGS[@]}" --bin "$bin" >/dev/null
  run run -q --release -p bench "${CARGO_FLAGS[@]}" --bin report_diff -- \
    "$artifact_snapshots/$bin.json" "results/$bin.json"
done
rm -r "$artifact_snapshots"
echo "ci: ${shard_bins[*]} regenerate identically on 2 shards"

echo "ci: all green"
