#!/usr/bin/env bash
# One-shot merge gate: everything the CI story requires, in order.
#
#   1. Default-preset build + the full ctest suite (tier-1), then the
#      same build and suite on a `git archive HEAD` export, so only
#      committed files count.
#   2. vtopo-lint over src/, bench/, perfbench/ and examples/
#      (tools/check_lint.sh).
#   3. Figure 5/6/7 identity: the FNV-golden guard binary, plus a
#      byte-diff of two independent runs of each figure driver — the
#      pipelines must be deterministic at the output-byte level, not
#      just hash-stable.
#   4. Chaos gate: the fault-injection and property-based suites
#      (ctest -L "fault|proptest") plus the 30-second fault_bench
#      smoke (goodput retained + recovery latency, exactly-once).
#   5. QoS gate: the criticality-aware request-path suites (ctest -L
#      qos), whose QosRuntime.QosOnOutputInvariantAcrossShardCounts is
#      the mixed-class determinism check (bulk and critical at shards
#      1/2/4), plus byte-diffs of the QoS-ENABLED fig7 pipeline: its
#      --qos class-summary path must stay deterministic across --jobs
#      and shard counts.
#   6. Threads-backend gate (ctest -L threads): the sim-vs-threads
#      differential oracle, the real-thread quiescence battery and the
#      executor tests.
#   7. Multi-tenant service gate (ctest -L svc): admission/partitioner
#      units, the tenant-isolation differential oracle, the tenant
#      property battery and the service_bench smoke (which itself gates
#      on compact-vs-striped interference), plus byte-diffs of the
#      service canonical report across host threads and shard counts.
#   8. Sanitizer sweep (tools/check_sanitize.sh): ASan+UBSan suites,
#      TSan over the threaded paths (including the threads transport
#      backend and the service's host-parallel job runner), --jobs
#      byte-diffs.
#
# The sanitizer sweep is the slow half; skip it with --fast when
# iterating (the full gate is what CI runs).
#
# Usage: tools/check_all.sh [--fast]
set -euo pipefail

cd "$(dirname "$0")/.."

fast=0
if [[ "${1:-}" == "--fast" ]]; then
  fast=1
  shift
fi

echo "== build + tier-1 ctest =="
cmake --preset default
cmake --build --preset default -j "$(nproc)"
ctest --preset default -j "$(nproc)" --output-on-failure

echo "== clean checkout =="
# Tier-1 again on exactly the committed tree: a file that exists only in
# this working tree (untracked, or matched by .gitignore) cannot keep a
# broken HEAD green.
clean_dir=$(mktemp -d)
trap 'rm -rf "$clean_dir"' EXIT
git archive HEAD | tar -x -C "$clean_dir"
(
  cd "$clean_dir"
  cmake --preset default
  cmake --build --preset default -j "$(nproc)"
  ctest --preset default -j "$(nproc)" --output-on-failure
)
rm -rf "$clean_dir"

echo "== lint =="
tools/check_lint.sh

echo "== figure identity =="
# The golden guard compares figs 5/6/7 canonical output against FNV
# hashes captured from the pre-pooling tree; the sharded guard pins the
# sharded-engine golden family and shard-count/thread-mode invariance.
./build/tests/fig_identity_test
./build/tests/sharded_identity_test

# Determinism at the byte level: each driver run twice must produce
# identical bytes (quick/small configs keep this to seconds).
fig_out=$(mktemp -d)
trap 'rm -rf "$fig_out"' EXIT

./build/bench/fig5_memory --max-procs 3072 --jobs 2 >"$fig_out/fig5_a.txt"
./build/bench/fig5_memory --max-procs 3072 --jobs 2 >"$fig_out/fig5_b.txt"
diff -u "$fig_out/fig5_a.txt" "$fig_out/fig5_b.txt"

./build/bench/fig6_vector_contention --quick --nodes 16 --ppn 2 \
  --iters 2 --jobs 2 >"$fig_out/fig6_a.txt"
./build/bench/fig6_vector_contention --quick --nodes 16 --ppn 2 \
  --iters 2 --jobs 2 >"$fig_out/fig6_b.txt"
diff -u "$fig_out/fig6_a.txt" "$fig_out/fig6_b.txt"

./build/bench/fig7_fetchadd_contention --quick --nodes 16 --ppn 2 \
  --iters 2 --jobs 2 >"$fig_out/fig7_a.txt"
./build/bench/fig7_fetchadd_contention --quick --nodes 16 --ppn 2 \
  --iters 2 --jobs 2 >"$fig_out/fig7_b.txt"
diff -u "$fig_out/fig7_a.txt" "$fig_out/fig7_b.txt"

echo "== chaos (fault + proptest) =="
ctest --test-dir build -L "fault|proptest" -j "$(nproc)" --output-on-failure
./build/bench/fault_bench --quick --out "$fig_out/BENCH_fault_smoke.json"

echo "== qos =="
ctest --test-dir build -L qos -j "$(nproc)" --output-on-failure

# QoS-enabled determinism: fig7 --qos issues only (critical)
# fetch-adds, so these diffs check its --qos class-summary path across
# the threaded --jobs sweep and across shard counts. Mixed bulk and
# critical traffic is QosRuntime.QosOnOutputInvariantAcrossShardCounts
# in the ctest -L qos selection above.
./build/bench/fig7_fetchadd_contention --quick --qos --nodes 16 --ppn 2 \
  --iters 2 --jobs 1 >"$fig_out/fig7_qos_j1.txt"
./build/bench/fig7_fetchadd_contention --quick --qos --nodes 16 --ppn 2 \
  --iters 2 --jobs 4 >"$fig_out/fig7_qos_j4.txt"
diff -u "$fig_out/fig7_qos_j1.txt" "$fig_out/fig7_qos_j4.txt"

# The "# engine sharded (--shards N)" header names the shard count, so
# strip it: every data byte below it must be identical.
./build/bench/fig7_fetchadd_contention --quick --qos --nodes 16 --ppn 2 \
  --iters 2 --jobs 2 --shards 2 | grep -v '^# engine' \
  >"$fig_out/fig7_qos_s2.txt"
./build/bench/fig7_fetchadd_contention --quick --qos --nodes 16 --ppn 2 \
  --iters 2 --jobs 2 --shards 4 | grep -v '^# engine' \
  >"$fig_out/fig7_qos_s4.txt"
diff -u "$fig_out/fig7_qos_s2.txt" "$fig_out/fig7_qos_s4.txt"

echo "== threads backend =="
# Real-thread transport: the differential oracle (sim vs threads
# completion sets, checksums, credit conservation), the quiescence
# battery and the executor tests (timing, FIFO, fairness, wake-ups).
# Timing is nondeterministic by design, so this gate checks invariants,
# not bytes; the TSan pass over the same selection lives in
# tools/check_sanitize.sh.
ctest --test-dir build -L threads -j "$(nproc)" --output-on-failure

echo "== multi-tenant service =="
# Admission, partitioning, tenant isolation, tenant properties, and the
# service_bench smoke (interference-index gates: compact == 1.0, striped
# measurably above it).
ctest --test-dir build -L svc -j "$(nproc)" --output-on-failure

# Service determinism at the byte level: the uncoupled canonical report
# must be identical across host job threads and across shard counts.
svc_mix="dft:nodes=4,ops=24;synthetic:nodes=4,at=20000,ops=4;ccsd:nodes=8,at=40000,ops=16"
./build/tools/vtopo_run service="$svc_mix" slots=16 shards=2 jobs=1 \
  canonical=1 >"$fig_out/svc_j1.txt"
./build/tools/vtopo_run service="$svc_mix" slots=16 shards=2 jobs=4 \
  canonical=1 >"$fig_out/svc_j4.txt"
diff -u "$fig_out/svc_j1.txt" "$fig_out/svc_j4.txt"
./build/tools/vtopo_run service="$svc_mix" slots=16 shards=4 jobs=2 \
  canonical=1 >"$fig_out/svc_s4.txt"
diff -u "$fig_out/svc_j1.txt" "$fig_out/svc_s4.txt"

if [[ "$fast" -eq 1 ]]; then
  echo "check_all (--fast): build, ctest, lint, figure identity, chaos, qos, threads, svc clean"
  exit 0
fi

echo "== sanitizers =="
tools/check_sanitize.sh

echo "check_all: build, ctest, lint, figure identity, chaos, qos, threads, svc, sanitizers clean"
