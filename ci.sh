#!/bin/sh
# ci.sh — the repository's verification gate.
#
#   ./ci.sh          # gofmt + vet + build + tests + race detector
#   ./ci.sh quick    # gofmt + vet + build + tests + race on the
#                    # telemetry packages only (skips the slow full pass)
#
# The -race pass matters here: the composition pipeline is concurrent
# (parallel QASSA local phase, lock-free indexed registry reads, memoized
# ontology reasoning, lock-free metrics/span instrumentation) and the
# test suite includes churn/cancellation/scrape tests written to catch
# data races.
set -eu

cd "$(dirname "$0")"

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

# The differential suites and the golden decision digest compare
# decisions bit for bit and must not depend on scheduling: run them on
# one core and on every core, several times, so an assertion on a
# scheduler-dependent observation fails on the first multi-core pass
# instead of by luck.
for procs in 1 "$(nproc)"; do
	echo "== GOMAXPROCS=$procs go test -count=3 -run 'TestDifferential|TestDecisionDigest' . ./internal/core ./internal/baseline ./internal/registry"
	GOMAXPROCS=$procs go test -count=3 -run 'TestDifferential|TestDecisionDigest' . ./internal/core ./internal/baseline ./internal/registry
done

# The failover-under-churn test judges one failover against one
# consistent registry view; a scan that reads each alternate at a
# different instant fails it about once in a hundred multi-core runs,
# so run it 200 times on every core.
echo "== GOMAXPROCS=$(nproc) go test -count=200 -run 'TestSubstituteUnderRegistryChurn\$' ./internal/adapt"
GOMAXPROCS=$(nproc) go test -count=200 -run 'TestSubstituteUnderRegistryChurn$' ./internal/adapt

if [ "${1:-}" = "quick" ]; then
	# Quick still races the telemetry layer: its lock-free counters,
	# span ring, flight-recorder ring and SLO bucket ring are the code
	# most likely to regress under concurrency, and these packages
	# race-test in a couple of seconds.
	echo "== go test -race ./internal/obs (quick)"
	go test -race ./internal/obs
	# The evaluator differential suite is the correctness gate for the
	# incremental evaluation engine and the selection-plan cache
	# (bit-identical results vs the naive/uncached reference) — cheap
	# enough to race on every quick pass. The root package carries the
	# plan-cache churn differentials (including the multi-tenant shared
	# store), the registry package the sharded-store epoch/candidate
	# differentials under raced churn. The core and baseline packages
	# also carry the dependency-repair and Pareto-front differentials
	# (QASSA vs the exhaustive reference front, both eval kernels).
	echo "== go test -race -run TestDifferential . ./internal/core ./internal/baseline ./internal/registry (quick)"
	go test -race -run 'TestDifferential' . ./internal/core ./internal/baseline ./internal/registry
	# The failover suite races the alternate scan: concurrent
	# substitutions in runtimes sharing one selection and one manager
	# (exactly once, no duplicate binding), parallel failures through the
	# executor, failovers under registry churn, the dependency
	# differential and the detached Result copy.
	echo "== go test -race failover suite (quick)"
	go test -race -run 'TestDifferential|TestConcurrent|TestExecutor|TestSubstituteUnderRegistryChurn|TestResult' ./internal/adapt
	# The multicore hot-path suite: raced lock-free reads in the registry
	# (torn-publish check, fresh-key visibility, rejection of slices
	# published across an index rebuild, memoized candidate resolutions
	# under churn and two property sets), raced LRU eviction + epoch
	# invalidation in the plan cache, the bounded task-document intern
	# table under a concurrent flood of distinct documents, isolation of
	# the shared cached plans from concurrent substitutions (the runtime
	# copies a shared selection on its first commit), concurrent contract
	# establishment, the mutex-profile assertion that the warm read
	# paths, task resolution included, acquire zero locks, and the check
	# that a middleware's lifecycle, failover included, starts no
	# goroutine that outlives it.
	echo "== go test -race hot-path suite (quick)"
	go test -race -run 'TestRacedSnapshotReads|TestRacedFreshKeyVisibility|TestRebuildInvalidatesStalePublications|TestRacedMemoLookups' ./internal/registry
	go test -race -run 'TestPlanCacheRaced|TestInternConcurrentFlood|TestSharedPlanIsolation|TestConcurrentContracts|TestHotPathsAcquireNoMutexes|TestLifecycleLeavesNoGoroutines' .
	go test -race -run 'TestRuntimeCopyOnFirstWrite' ./internal/adapt
	# The distributed failure matrix exercises the resilience layer's
	# concurrency (hedged requests, breaker state, prompt cancellation);
	# -shuffle=on catches order-dependent breaker/fault state.
	echo "== go test -race -shuffle=on distributed failure matrix (quick)"
	go test -race -shuffle=on -run 'TestDistributed|TestServeTCP|TestExecute' ./internal/core ./internal/resilience
	# The benchmark regression gate: median of 3 short counting passes
	# against the committed BENCH_qassa.json, 15% threshold (see
	# scripts/benchcmp.sh for knobs).
	echo "== scripts/benchcmp.sh (quick)"
	sh scripts/benchcmp.sh
else
	echo "== go test -race ./..."
	go test -race ./...
	# Shuffled pass over the distributed failure matrix: breaker and
	# fault-injection state must not depend on test order.
	echo "== go test -race -shuffle=on distributed failure matrix"
	go test -race -shuffle=on -run 'TestDistributed|TestServeTCP|TestExecute' ./internal/core ./internal/resilience
fi

echo "ci: all checks passed"
