#!/usr/bin/env bash
# CI gate: tier-1 test suite in the normal configuration, then again under
# AddressSanitizer + UndefinedBehaviorSanitizer (DNSV_SANITIZE), then a
# ThreadSanitizer build (DNSV_TSAN — TSan cannot share a binary with ASan)
# driving the threaded serving shell: the tests/server/ loopback suite plus
# the multi-worker throughput smoke, where the UDP workers (each blocked in
# recvmmsg), per-worker stats, and snapshot swaps actually race if they are
# going to.
#
#   $ ci/check.sh            # all passes
#   $ ci/check.sh --fast     # normal pass only
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)

run_pass() {
  local build_dir=$1
  shift
  cmake -B "$build_dir" -S . "$@"
  cmake --build "$build_dir" -j "$jobs"
  ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"
  # Stale-cache gate: the pipeline tests again with the full solver stack
  # (query cache + interval pre-solver) forced on and every cached/presolved
  # verdict re-checked against Z3 — any disagreement crashes the test
  # (docs/SMT.md). Covers the verification pipeline end to end.
  DNSV_SOLVER_FORCE=shadow ctest --test-dir "$build_dir" --output-on-failure \
    -j "$jobs" -R 'Pipeline|Verify|SolverStack'
  # MiniGo lint gate: the embedded engine sources must stay diagnostic-free.
  "$build_dir"/tools/dnsv-lint --werror
  # Wire fuzz gate (docs/WIRE.md): fixed-seed round-trip + engine-vs-spec
  # differential + interp-vs-compiled backend differential (docs/BACKEND.md)
  # over all six engine versions. Running it inside run_pass means the second
  # invocation executes the whole harness — AOT-generated code included —
  # under ASan/UBSan, which is where the no-crash/no-hang invariant is
  # actually enforced.
  "$build_dir"/tools/dnsv-fuzz --smoke
  # Serving-shell gate (docs/SERVER.md): a short loopback UDP throughput run
  # at 1 worker vs N workers. Emits BENCH_server.json with the single- vs
  # multi-worker queries/sec; under the sanitized pass this doubles as a race
  # check on the recvmmsg UDP workers, the stats blocks, and the snapshot
  # swap.
  "$build_dir"/bench/server_throughput --smoke
  # Incremental-verification gate (docs/INCREMENTAL.md): cold-verify into a
  # fresh store, then re-verify warm. The harness exits non-zero unless every
  # warm run replays byte-identically with zero new Z3 checks and >=95% layer
  # reuse, and the edited-version scenario recomputes only the dirty cone.
  # Inside run_pass the whole store stack — container parsing, tamper
  # rejection, report codec — also executes under ASan/UBSan in pass 2 (the
  # tests/store/ suite, tamper tests included, runs in the ctest line above).
  "$build_dir"/bench/incremental_verify --smoke
}

echo "=== pass 1: normal build + ctest ==="
run_pass build

# Prune-ablation gate: over all six engine versions, the interprocedural
# analysis suite must discharge at least as many panic guards as the PR-2
# baseline pruner and never leave more solver checks, with byte-identical
# verdicts in all three modes (off / baseline / interproc). The harness
# itself asserts all of that and exits non-zero on any regression; it also
# refreshes BENCH_prune.json with one record per (version, analysis) pair.
build/bench/prune_ablation

# Store-binding gate: the DNSV_STORE_DIR environment path, twice against a
# fresh store. The second run must be served from the store (replayed) with
# every layer reused — the operator-visible form of the incremental_verify
# assertions above.
store_dir=$(mktemp -d)
DNSV_STORE_DIR="$store_dir" build/examples/verify_zone golden > /dev/null
warm_out=$(DNSV_STORE_DIR="$store_dir" build/examples/verify_zone golden)
rm -rf "$store_dir"
grep -q "incremental: replayed" <<<"$warm_out"
grep -Eq "layers ([0-9]+)/\1 reused" <<<"$warm_out"

if [[ "${1:-}" == "--fast" ]]; then
  echo "=== --fast: skipping sanitizer pass ==="
  exit 0
fi

echo "=== pass 2: DNSV_SANITIZE=address,undefined build + ctest ==="
# halt_on_error: fail the test on the first UBSan report instead of printing
# and continuing; detect_leaks stays on (the engine cache is reachable at
# exit, so it does not trip LeakSanitizer).
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
run_pass build-asan -DDNSV_SANITIZE=address,undefined

echo "=== pass 3: DNSV_TSAN=ON build + threaded server suite ==="
# halt_on_error: a single race report fails the run. second_deadlock_stack
# makes lock-order reports actionable. The pass is scoped to the threaded
# serving shell — TSan slows Z3-heavy verification tests by an order of
# magnitude for no additional coverage (the explore workers share no state
# by construction, and the ASan pass already runs them threaded).
export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
cmake -B build-tsan -S . -DDNSV_TSAN=ON
cmake --build build-tsan -j "$jobs" --target server_test server_throughput
ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
  -R 'DnsServerTest|ServerStatsTest|ServePacketTest|CacheKey|PacketCacheTest|CachedServeTest|CacheDifferentialTest|DnsServerCacheTest|MinimumResponseTtl'
build-tsan/bench/server_throughput --smoke

echo "=== all checks passed ==="
