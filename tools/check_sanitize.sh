#!/usr/bin/env bash
# Sanitizer sweep over the suites where lifetime and threading bugs
# would hide.
#
#   1. ASan+UBSan over the sim + armci suites (the pooling/recycling
#      layers are exactly where lifetime bugs sit).
#   2. TSan (+VTOPO_VALIDATE) over the parallel paths: the --jobs sweep
#      harness and the hotpath bench worker threads, plus a byte-diff of
#      --jobs 4 against --jobs 1 output — determinism under threads, not
#      just race-freedom.
#   3. TSan over the sharded engine with real worker threads: the
#      sharded identity suite (byte-identity at shards 1/2/4/8 and
#      kThreads vs kSerial) and the hotpath bench's --shards 4
#      --shard-threads path (window barriers, mailboxes, remote frees).
#   4. TSan over the QoS battery (ctest -L qos): the class-weighted CHT
#      queue, including the sharded mixed-class storm test
#      (QosRuntime.QosOnOutputInvariantAcrossShardCounts) and the
#      qos_bench smoke, with the race detector watching.
#   5. TSan over the threads transport backend (ctest -L threads): one
#      real worker thread per node, cross-thread request/ack/response
#      posts through the inboxes, shared-memory payload copies and the
#      realtime Future handshake — the differential oracle and the
#      executor tests with the race detector on. Their 2-node runtimes
#      (three workers) take the spin-then-park path on hosts with three
#      or more cores; the 4- and 8-node ones park at every wait.
#   6. TSan over the multi-tenant service battery (ctest -L svc): the
#      uncoupled scheduler's one-host-thread-per-running-job path plus
#      a byte-diff of the canonical report at jobs 4 vs 1 — the service
#      must be race-free AND deterministic under host parallelism.
#
# Any sanitizer report aborts the run (-fno-sanitize-recover=all) and
# fails the script.
#
# Usage: tools/check_sanitize.sh [extra ctest args...]
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== ASan+UBSan =="
cmake --preset asan
cmake --build --preset asan -j "$(nproc)"
ctest --preset asan -j "$(nproc)" "$@"

echo "== TSan =="
cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)"
ctest --test-dir build-tsan -j "$(nproc)" -L "sim|bench" \
  --output-on-failure "$@"

tsan_out=$(mktemp -d)
trap 'rm -rf "$tsan_out"' EXIT

# The figure drivers thread their sweeps with --jobs N; the parallel run
# must be race-free AND byte-identical to the serial one.
./build-tsan/bench/fig5_memory --max-procs 3072 --jobs 1 \
  >"$tsan_out/fig5_serial.txt"
./build-tsan/bench/fig5_memory --max-procs 3072 --jobs 4 \
  >"$tsan_out/fig5_jobs4.txt"
diff -u "$tsan_out/fig5_serial.txt" "$tsan_out/fig5_jobs4.txt"

./build-tsan/bench/fig7_fetchadd_contention --quick --nodes 32 --ppn 2 \
  --iters 2 --jobs 1 >"$tsan_out/fig7_serial.txt"
./build-tsan/bench/fig7_fetchadd_contention --quick --nodes 32 --ppn 2 \
  --iters 2 --jobs 4 >"$tsan_out/fig7_jobs4.txt"
diff -u "$tsan_out/fig7_serial.txt" "$tsan_out/fig7_jobs4.txt"

# Thread-pool startup/teardown in the hotpath bench, plus the sharded
# engine's one-thread-per-shard parallel phase. Its JSON goes to the
# scratch dir, not over the committed BENCH_hotpath.json and
# BENCH_realtime.json.
./build-tsan/bench/hotpath_bench --quick --shards 4 --shard-threads \
  --out "$tsan_out/BENCH_hotpath.json" \
  --realtime-out "$tsan_out/BENCH_realtime.json" >/dev/null

# Sharded engine under real threads: byte-identity across shard counts
# and thread modes with the race detector watching the window protocol.
./build-tsan/tests/sharded_identity_test

# Criticality-aware QoS battery: class-weighted queue scheduling, the
# sharded mixed-class storm invariance test and the qos_bench smoke.
ctest --test-dir build-tsan -L qos -j "$(nproc)" --output-on-failure

# Threads transport backend: per-node workers with private timer heaps,
# mutex-guarded inboxes and shared-memory copies. The differential
# oracle (including its 2-node, spin-path runs), the quiescence battery
# and the executor tests (never early, FIFO, no starvation, no lost
# wake-up, idle workers park) run with the race detector watching every
# cross-thread post and payload copy.
ctest --test-dir build-tsan -L threads -j "$(nproc)" --output-on-failure

# Multi-tenant service battery: admission/partitioner units, tenant
# isolation, tenant properties and the service smoke, then the
# host-parallel scheduler (one std::thread per running job) byte-diffed
# against its serial run with the race detector watching.
ctest --test-dir build-tsan -L svc -j "$(nproc)" --output-on-failure
svc_mix="dft:nodes=4,ops=24;synthetic:nodes=4,at=20000,ops=4;ccsd:nodes=8,at=40000,ops=16"
./build-tsan/tools/vtopo_run service="$svc_mix" slots=16 shards=2 \
  jobs=1 canonical=1 >"$tsan_out/svc_j1.txt"
./build-tsan/tools/vtopo_run service="$svc_mix" slots=16 shards=2 \
  jobs=4 canonical=1 >"$tsan_out/svc_j4.txt"
diff -u "$tsan_out/svc_j1.txt" "$tsan_out/svc_j4.txt"

echo "sanitize: ASan+UBSan suites, TSan suites, --jobs byte-diffs, sharded-engine, qos, threads-backend and svc batteries clean"
