#!/usr/bin/env bash
# CI gate: tier-1 test suite in the normal configuration, then again under
# AddressSanitizer + UndefinedBehaviorSanitizer (DNSV_SANITIZE), then a
# ThreadSanitizer build (DNSV_TSAN — TSan cannot share a binary with ASan)
# driving the threaded serving shell: the tests/server/ loopback suite,
# whose sustained multi-worker load test is where the UDP workers (each
# blocked in recvmmsg), per-worker stats, the packet cache and snapshot swaps
# actually race if they are going to — plus the symbolic state the verifier's
# threads share.
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
  # Incremental-verification gate (docs/INCREMENTAL.md): cold-verify into a
  # fresh store, then re-verify warm. The harness exits non-zero unless every
  # warm run replays byte-identically with zero new Z3 checks, the shadow run
  # cross-checks the stored report, and the edited-version scenario serves
  # its spec exploration from the context.
  # Inside run_pass the whole store stack — container parsing, tamper
  # rejection, report codec — also executes under ASan/UBSan in pass 2 (the
  # tests/store/ suite, tamper tests included, runs in the ctest line above).
  "$build_dir"/bench/incremental_verify --smoke
}

echo "=== pass 1: normal build + ctest ==="
run_pass build

# Prune-ablation gate: over every engine version, pruning on must give the
# verdicts, issues and path counts of pruning off, discharge guards, and
# never leave more solver checks. The harness asserts all of that and exits
# non-zero on any regression; it also refreshes BENCH_prune.json with one
# record per version.
build/bench/prune_ablation

# Solver-ablation gate: direct Z3 vs the query cache + interval pre-solver on
# every engine version — byte-identical verdicts and counterexamples, and
# strictly fewer Z3 checks with the layers on. Refreshes BENCH_solver.json.
build/bench/solver_ablation

# Store-binding gate: the DNSV_STORE_DIR environment path, twice against a
# fresh store. The second run must be served from the store (replayed), which
# counts every layer as reused — the operator-visible form of the
# incremental_verify assertions above.
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

echo "=== pass 3: DNSV_TSAN=ON build + threaded server suite + shared symbolic state ==="
# halt_on_error: a single race report fails the run. second_deadlock_stack
# makes lock-order reports actionable. The pass is scoped to the threaded
# serving shell and to the symbolic state that threads share — TSan slows
# Z3-heavy verification tests by an order of magnitude, so the whole
# pipeline suite stays in the ASan pass. Explore workers and compare stages
# share immutable symbolic nodes (the lifted values behind VerifyContext's
# spec-exploration cache) through atomic reference counts, and write a node
# only while they own it alone (src/sym/shared.h); the small parallel-explore
# pipeline test (a spec-cache fill, then two concurrent hits) and the
# sharing tests of tests/sym/ are where that would race.
export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
cmake -B build-tsan -S . -DDNSV_TSAN=ON
cmake --build build-tsan -j "$jobs" --target server_test dnsv_test sym_test
ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
  -R 'DnsServerTest|ServerStatsTest|ServePacketTest|CacheKey|PacketCacheTest|CachedServeTest|CacheDifferentialTest|DnsServerCacheTest|MinimumResponseTtl|PipelineSpecCache.ParallelFillThenConcurrentHits|SymSharingTest|SymExecTest.(StoresAfterAFork|AllocOnOneBranch|SummaryWriteBack)'

echo "=== all checks passed ==="
