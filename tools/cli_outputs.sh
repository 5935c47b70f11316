#!/bin/sh
# Run the gcnfuse CLI of source tree TREE over a fixed set of commands and
# keep everything it writes under OUT: fixtures, fused models, traces, dumped
# cost matrices, result tables, and each command's console output.
#
#   tools/cli_outputs.sh TREE OUT
#
# Two runs (say, of a `git archive` copy of the parent commit and of the
# working tree) are byte-compared with `diff -r OUT1 OUT2`; only the
# wall-clock seconds on the console are expected to differ.
set -eu

if [ $# -ne 2 ]; then
    echo "usage: $0 TREE OUT" >&2
    exit 2
fi
tree=$(cd "$1" && pwd)
mkdir -p "$2"
cd "$2"
export PYTHONPATH="$tree/src"

# run NAME ARGS...: one CLI command, its console kept in console/NAME.txt
run() {
    name=$1
    shift
    python -m gcnfuse.cli "$@" > "console/$name.txt" 2>&1 ||
        { echo "$name failed; see $PWD/console/$name.txt" >&2; return 1; }
}

mkdir -p console
run gen-fixtures gen-fixtures --out-dir fx --seed 0
pair="--a fx/model_a.json --b fx/model_b.json --data fx/dataset.jsonl"
# each cell is SOLVER:COST, or SOLVER:COST:SAMPLES to set --samples
for cell in emd:efd sinkhorn:qe emd:weight sinkhorn:weight emd:fgw:2 emd:fgw:8; do
    solver=${cell%%:*}
    rest=${cell#*:}
    cost=${rest%%:*}
    name="fuse-$solver-$cost"
    extra=""
    if [ "$rest" != "$cost" ]; then
        name="$name-${rest#*:}"
        extra="--samples ${rest#*:}"
    fi
    run "$name" fuse $pair --solver "$solver" --cost "$cost" $extra \
        --out "$name.model.json" --trace "$name.trace.txt" --dump-costs "$name.costs"
done
run grid grid $pair --repeats 2 --out grid.csv
run bn-compare bn-compare $pair --out bn_compare.csv
run sweep-samples sweep-samples $pair --out sweep.csv
