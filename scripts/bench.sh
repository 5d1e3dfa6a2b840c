#!/bin/sh
# bench.sh — run the evaluation-kernel benchmark suite and write the
# results to BENCH_qassa.json (machine-readable companion to the
# EXPERIMENTS.md narrative).
#
#   scripts/bench.sh                # one counted pass per benchmark
#   BENCH=<regex> scripts/bench.sh  # override the benchmark selection
#   OUT=<path> scripts/bench.sh    # override the output file
#
# Output schema: a JSON object keyed by benchmark name (GOMAXPROCS
# suffix stripped), led by a "_host" entry (scripts/hostfacts.sh: nproc,
# GOMAXPROCS, Go version, CPU model; it has no ns_per_op, so benchcmp.sh
# never compares it), each value holding ns_per_op, bytes_per_op,
# allocs_per_op (as reported by -benchmem) — the three numbers the
# acceptance criteria in ISSUE/PR discussions track. Benchmarks that
# report throughput metrics (BenchmarkThroughput's ops/sec, p50-ms,
# p99-ms custom metrics) get ops_per_sec/p50_ms/p99_ms fields too. The
# closed-loop serving benchmark additionally runs a GOMAXPROCS sweep
# (CPUS, default "1,2") whose entries are keyed <name>/g=<procs>, with
# runtime mutex/block contention profiles written to PROFDIR for pprof
# inspection. Open-loop serving latency is measured end to end by
# qbench (`bash qbench/run.sh`), against its own null-server floor.
set -eu

cd "$(dirname "$0")/.."

BENCH="${BENCH:-BenchmarkFailover|BenchmarkQASSA_RepairHeavy|BenchmarkEvalProbe|BenchmarkParetoProbe|BenchmarkParetoSelect|BenchmarkQASSA_Services|BenchmarkExhaustiveBaseline|BenchmarkGreedyBaseline|BenchmarkDistributedChurn|BenchmarkThroughput|BenchmarkRegistryOps|BenchmarkRegistryCandidates}"
OUT="${OUT:-BENCH_qassa.json}"
CPUS="${CPUS:-1,2}"
PROFDIR="${PROFDIR:-bench-profiles}"

# The lock-free claim behind the serving numbers: warm plan-cache hits
# and registry candidate/epoch reads must acquire zero mutexes. Run the
# mutex-profile assertion first so a bench run certifies the claim
# alongside recording the numbers.
go test -run 'TestHotPathsAcquireNoMutexes' -count=1 .

raw=$(go test -run '^$' -bench "$BENCH" -benchmem .)
echo "$raw"

# GOMAXPROCS sweep over the serving benchmark, with contention
# profiling on: the mutex/block profiles are the artifact that shows
# where (if anywhere) the hot path waits as cores are added.
mkdir -p "$PROFDIR"
sweep=$(go test -run '^$' -bench 'BenchmarkThroughput$' -benchmem \
	-cpu "$CPUS" -mutexprofile mutex.out -blockprofile block.out \
	-outputdir "$PROFDIR" -o "$PROFDIR/qasom.test" .)
echo "$sweep"

# The front-quality table (front size, hypervolume vs the exhaustive
# reference, select p50/p99) comes from the experiment harness — the
# numbers a -benchmem line cannot carry.
paretodir=$(mktemp -d)
trap 'rm -rf "$paretodir"' EXIT
go run ./cmd/qasombench -exp pareto -csv "$paretodir" >/dev/null

host=$(sh scripts/hostfacts.sh)

# benchjson turns -benchmem lines into JSON entries, each led by ",\n".
# With sweep=1 the -N GOMAXPROCS name suffix becomes a /g=N key (no
# suffix means GOMAXPROCS=1); otherwise it is stripped.
benchjson() {
	awk -v sweep="$1" '
/^Benchmark/ {
    name = $1
    g = "1"
    if (match(name, /-[0-9]+$/)) {
        g = substr(name, RSTART + 1)
        name = substr(name, 1, RSTART - 1)
    }
    if (sweep == 1) name = name "/g=" g
    ns = ""; bytes = ""; allocs = ""; ops = ""; p50 = ""; p99 = ""; sp50 = ""; sp99 = ""; fs = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")      ns = $(i - 1)
        if ($i == "B/op")       bytes = $(i - 1)
        if ($i == "allocs/op")  allocs = $(i - 1)
        if ($i == "ops/sec")    ops = $(i - 1)
        if ($i == "p50-ms")     p50 = $(i - 1)
        if ($i == "p99-ms")     p99 = $(i - 1)
        if ($i == "sub-p50-us") sp50 = $(i - 1)
        if ($i == "sub-p99-us") sp99 = $(i - 1)
        if ($i == "front-size") fs = $(i - 1)
    }
    if (ns == "") next
    printf ",\n  \"%s\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s", name, ns, bytes, allocs
    if (ops != "") printf ", \"ops_per_sec\": %s, \"p50_ms\": %s, \"p99_ms\": %s", ops, p50, p99
    if (sp99 != "") printf ", \"sub_p50_us\": %s, \"sub_p99_us\": %s", sp50, sp99
    if (fs != "") printf ", \"front_size\": %s", fs
    printf "}"
}'
}

{
	printf '{\n  "_host": %s' "$host"
	echo "$raw" | benchjson 0
	echo "$sweep" | benchjson 1
	# One JSON entry per front-quality row, keyed by regime and
	# objective count (csv: regime,objectives,front_size,ref_size,
	# hv_ratio_pct,p50_ms,p99_ms).
	awk -F, 'NR > 1 {
    printf ",\n  \"ExpPareto/regime=%s/m=%s\": {\"front_size\": %s, \"ref_size\": %s, \"hv_ratio_pct\": %s, \"p50_ms\": %s, \"p99_ms\": %s}", $1, $2, $3, $4, $5, $6, $7
}' "$paretodir/pareto.csv"
	printf '\n}\n'
} >"$OUT"

echo "bench: wrote $OUT"
