#!/bin/sh
# hostfacts.sh — print the facts a benchmark number depends on as one
# JSON object: CPU count, the GOMAXPROCS the benchmarks run with, the Go
# version and the CPU model. bench.sh stamps it into BENCH_qassa.json as
# the "_host" entry; benchcmp.sh prints it beside the baseline's.
set -eu

nproc=$(nproc)
cpu=unknown
if [ -r /proc/cpuinfo ]; then
	cpu=$(sed -n 's/^model name[[:space:]]*:[[:space:]]*//p' /proc/cpuinfo | head -n 1)
fi
cpu=$(printf '%s' "${cpu:-unknown}" | sed 's/[\\"]/\\&/g')
printf '{"nproc": %s, "gomaxprocs": %s, "go": "%s", "cpu": "%s"}\n' \
	"$nproc" "${GOMAXPROCS:-$nproc}" "$(go env GOVERSION)" "$cpu"
