#!/bin/sh
# Run the gcnfuse CLI of source tree TREE over a fixed set of commands and
# keep everything it writes under OUT: fixtures (GCN, MLP, hidden-64 and hidden-256 GCNs,
# a noisy GCN twin without batch norm and a noisy MLP twin with it, and a hand-written dataset
# of categorical atom features), fused and averaged models,
# traces, dumped cost matrices, result tables, evaluation rows, and each
# command's console output, rejected commands included.
#
#   tools/cli_outputs.sh TREE OUT
#
# Two runs (say, of a `git archive` copy of the parent commit and of the
# working tree) are compared with `python tools/compare_outputs.py OUT1 OUT2`,
# which exits 0 when only the wall-clock seconds on the console differ.
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

# fails NAME ARGS...: one CLI command that must be rejected, its console kept in console/NAME.txt
fails() {
    name=$1
    shift
    if python -m gcnfuse.cli "$@" > "console/$name.txt" 2>&1; then
        echo "$name was not rejected; see $PWD/console/$name.txt" >&2
        return 1
    fi
}

mkdir -p console
# eval and ensemble append to their --out; start those files afresh, and drop the models
# that the rejected commands at the end must not write
rm -f eval.csv eval-mlp.csv eval-wide.csv eval-atom.csv ensemble.csv \
    rejected.model.json vanilla-unlabeled.model.json
run gen-fixtures gen-fixtures --out-dir fx --seed 0
pair="--a fx/model_a.json --b fx/model_b.json --data fx/dataset.jsonl"
# each cell is SOLVER:COST, or SOLVER:COST:SAMPLES to set --samples; 32 is the
# grid's FGW sample count, 400 the whole dataset as one batch (every bucket,
# rows shuffled) and 1 a one-bucket batch
for cell in emd:efd sinkhorn:qe emd:weight sinkhorn:weight emd:fgw:2 emd:fgw:8 emd:fgw:32 \
        emd:efd:400 emd:qe:1; do
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
# the same options from a --config file; the pair stays on flags
printf '{"solver": "sinkhorn", "cost": "efd", "samples": 64, "out": "fuse-config.model.json"}\n' \
    > fuse-config.json
run fuse-config fuse $pair --config fuse-config.json --trace fuse-config.trace.txt
# pre-batch-norm captures through QE, which reads the capture buckets as they are
run fuse-pre-bn-qe fuse $pair --capture pre_bn --cost qe --out fuse-pre-bn-qe.model.json \
    --trace fuse-pre-bn-qe.trace.txt --dump-costs fuse-pre-bn-qe.costs
# interpolation off the midpoint, field by field, batch-norm epsilon included
run fuse-weight-0.3 fuse $pair --cost weight --interpolation 0.3 \
    --out fuse-weight-0.3.model.json --trace fuse-weight-0.3.trace.txt
run grid grid $pair --repeats 2 --out grid.csv
run bn-compare bn-compare $pair --out bn_compare.csv
run bn-compare-json bn-compare $pair --format json --out bn_compare.json
run sweep-samples sweep-samples $pair --out sweep.csv
run vanilla vanilla $pair --out vanilla.model.json
run vanilla-0.3 vanilla $pair --interpolation 0.3 --out vanilla-0.3.model.json
run eval eval --model fuse-emd-efd.model.json --data fx/dataset.jsonl --out eval.csv
run ensemble ensemble --model fx/model_a.json --model fx/model_b.json \
    --data fx/dataset.jsonl --out ensemble.csv
# the MLP path: single-vertex inputs, no graph layers
run gen-fixtures-mlp gen-fixtures --out-dir fx-mlp --arch mlp --seed 0
run fuse-mlp fuse --a fx-mlp/model_a.json --b fx-mlp/model_b.json --data fx-mlp/dataset.jsonl \
    --out fuse-mlp.model.json --trace fuse-mlp.trace.txt --dump-costs fuse-mlp.costs
# batch norm on dense layers, which only the MLP form has
run eval-mlp eval --model fuse-mlp.model.json --data fx-mlp/dataset.jsonl --out eval-mlp.csv
# QE on single-vertex buckets, where every graph is edgeless
run fuse-mlp-qe fuse --a fx-mlp/model_a.json --b fx-mlp/model_b.json --data fx-mlp/dataset.jsonl \
    --cost qe --out fuse-mlp-qe.model.json --trace fuse-mlp-qe.trace.txt \
    --dump-costs fuse-mlp-qe.costs
# the wide path: hidden 64, where each per-vertex layer is one blocked GEMM per bucket
run gen-fixtures-wide gen-fixtures --out-dir fx-wide --hidden 64 --seed 0
run fuse-wide fuse --a fx-wide/model_a.json --b fx-wide/model_b.json --data fx-wide/dataset.jsonl \
    --solver emd --cost efd --out fuse-wide.model.json --trace fuse-wide.trace.txt \
    --dump-costs fuse-wide.costs
run fuse-wide-qe fuse --a fx-wide/model_a.json --b fx-wide/model_b.json \
    --data fx-wide/dataset.jsonl --solver emd --cost qe --out fuse-wide-qe.model.json \
    --dump-costs fuse-wide-qe.costs
run eval-wide eval --model fuse-wide.model.json --data fx-wide/dataset.jsonl --out eval-wide.csv
# hidden 256, where an EFD chunk holds 2 graphs, so every bucket crosses many chunk boundaries
run gen-fixtures-256 gen-fixtures --out-dir fx-256 --hidden 256 --seed 0
run fuse-256-efd fuse --a fx-256/model_a.json --b fx-256/model_b.json \
    --data fx-256/dataset.jsonl --solver emd --cost efd --out fuse-256-efd.model.json \
    --dump-costs fuse-256-efd.costs
# a noisy twin without batch norm: permute_model then perturb_model, and alignment with no BN
run gen-fixtures-noisy gen-fixtures --out-dir fx-noisy --noise 0.05 --no-bn --gc-layers 1 --seed 3
run fuse-noisy fuse --a fx-noisy/model_a.json --b fx-noisy/model_b.json \
    --data fx-noisy/dataset.jsonl --solver emd --cost weight --out fuse-noisy.model.json \
    --trace fuse-noisy.trace.txt
# FGW on the noisy twin, whose activations differ, so its plans are not the exact twin's
run fuse-noisy-fgw fuse --a fx-noisy/model_a.json --b fx-noisy/model_b.json \
    --data fx-noisy/dataset.jsonl --solver emd --cost fgw --samples 8 \
    --out fuse-noisy-fgw.model.json --trace fuse-noisy-fgw.trace.txt \
    --dump-costs fuse-noisy-fgw.costs
# the same at the grid's FGW sample count
run fuse-noisy-fgw-32 fuse --a fx-noisy/model_a.json --b fx-noisy/model_b.json \
    --data fx-noisy/dataset.jsonl --solver emd --cost fgw --samples 32 \
    --out fuse-noisy-fgw-32.model.json --dump-costs fuse-noisy-fgw-32.costs
# Sinkhorn on the noisy twin, whose plans each take a Newton step before the stop rule holds
run fuse-noisy-sinkhorn fuse --a fx-noisy/model_a.json --b fx-noisy/model_b.json \
    --data fx-noisy/dataset.jsonl --solver sinkhorn --cost efd --samples 8 \
    --out fuse-noisy-sinkhorn.model.json --trace fuse-noisy-sinkhorn.trace.txt \
    --dump-costs fuse-noisy-sinkhorn.costs
run fuse-noisy-sinkhorn-fgw fuse --a fx-noisy/model_a.json --b fx-noisy/model_b.json \
    --data fx-noisy/dataset.jsonl --solver sinkhorn --cost fgw --samples 8 \
    --out fuse-noisy-sinkhorn-fgw.model.json --trace fuse-noisy-sinkhorn-fgw.trace.txt \
    --dump-costs fuse-noisy-sinkhorn-fgw.costs
# a noisy MLP twin with batch norm: perturb_model, align_model and the interpolation
# each rebuild dense layers that carry batch norm
run gen-fixtures-mlp-noisy gen-fixtures --out-dir fx-mlp-noisy --arch mlp --noise 0.05 --seed 4
run fuse-mlp-noisy fuse --a fx-mlp-noisy/model_a.json --b fx-mlp-noisy/model_b.json \
    --data fx-mlp-noisy/dataset.jsonl --cost weight --out fuse-mlp-noisy.model.json \
    --trace fuse-mlp-noisy.trace.txt
run vanilla-mlp-noisy vanilla --a fx-mlp-noisy/model_a.json --b fx-mlp-noisy/model_b.json \
    --data fx-mlp-noisy/dataset.jsonl --interpolation 0.3 --out vanilla-mlp-noisy.model.json
# categorical features: a hand-written atom dataset, expanded to one-hot rows on load
run gen-fixtures-atom gen-fixtures --feature-dim 3 --out-dir fx-atom --seed 5
printf '%s\n' '{"feature_dim": 3, "vocab": 3}' \
    '{"n": 3, "edges": [[0, 1], [1, 2]], "atom": [0, 2, 1], "y": 0.5}' \
    '{"n": 2, "edges": [[1, 0]], "atom": [1, 1], "y": -1.25}' \
    '{"n": 4, "edges": [[0, 1], [0, 2], [0, 3]], "atom": [2, 0, 0, 1], "y": 2}' \
    '{"n": 1, "atom": [0], "y": 0.75}' > atom.jsonl
run eval-atom eval --model fx-atom/model_a.json --data atom.jsonl --out eval-atom.csv
run fuse-atom fuse --a fx-atom/model_a.json --b fx-atom/model_b.json --data atom.jsonl \
    --samples 3 --out fuse-atom.model.json --trace fuse-atom.trace.txt --dump-costs fuse-atom.costs
# settings out of range, each rejected by the constructor that reads it, before any work
fails fuse-interpolation-2 fuse $pair --interpolation 2 --out rejected.model.json
fails fuse-sinkhorn-epsilon-0 fuse $pair --solver sinkhorn --epsilon 0 --out rejected.model.json
fails fuse-lam-2 fuse $pair --lam 2 --out rejected.model.json
fails gen-fixtures-density-2 gen-fixtures --out-dir fx-density-2 --density 2 --seed 0
fails gen-fixtures-vertices gen-fixtures --out-dir fx-vertices --min-vertices 5 --max-vertices 3 \
    --seed 0
# a dataset without targets: vanilla must stop before fusing or writing its model
printf '%s\n' '{"feature_dim": 4}' \
    '{"n": 2, "edges": [[0, 1]], "x": [[0.5, -1, 0, 2], [1, 0.25, -0.5, 0]]}' \
    '{"n": 1, "x": [[-1, 0, 1.5, 0.5]]}' > unlabeled.jsonl
fails vanilla-unlabeled vanilla $pair --data unlabeled.jsonl --out vanilla-unlabeled.model.json
# a JSON string or boolean inside an array is not read as a number, and the message names the
# model layer or dataset record and the field
printf '%s\n' '{"schema": "gcnfuse-model/1", "name": "string-weight", "layers": [' \
    '{"kind": "embedding", "weight": [[0.25, "0.5"]]},' \
    '{"kind": "dense", "weight": [[1.0]], "bias": [0.0], "activation": "none"}]}' > string-weight.json
fails eval-string-weight eval --model string-weight.json --data fx/dataset.jsonl
printf '%s\n' '{"feature_dim": 2}' '{"n": 1, "x": [[0.5, -1]], "y": 0.5}' \
    '{"n": 2, "edges": [[0, 1]], "x": [[1, 0.25], [true, 0]], "y": -1}' > bool-feature.jsonl
fails eval-bool-feature eval --model fx/model_a.json --data bool-feature.jsonl
# a header declaring vocab 0 is rejected at the header, before an atom record reads it
printf '%s\n' '{"feature_dim": 3, "vocab": 0}' '{"n": 1, "atom": [0], "y": 0.5}' > vocab-0.jsonl
fails eval-vocab-0 eval --model fx-atom/model_a.json --data vocab-0.jsonl
# finite weights of 1e200 load, then overflow in layer 1's matmul: an error, not an MAE of NaN
printf '%s\n' '{"schema": "gcnfuse-model/1", "name": "overflow", "layers": [' \
    '{"kind": "embedding", "weight": [[1e200, 1e200, 1e200, 1e200], [1e200, 1e200, 1e200, 1e200]]},' \
    '{"kind": "graph_conv", "weight": [[1e200, 1e200], [1e200, 1e200]], "bias": [0, 0]},' \
    '{"kind": "mean_readout"},' \
    '{"kind": "dense", "weight": [[1e200, 1e200]], "bias": [0], "activation": "none"}]}' \
    > overflow.json
fails eval-overflow eval --model overflow.json --data fx/dataset.jsonl
# a pair whose layer-0 captures are about +-1e160: the forward pass stays finite, and the
# squared differences of the activation costs overflow while the cost is built
for w in 1e160 -1e160; do
    printf '%s\n' "{\"schema\": \"gcnfuse-model/1\", \"name\": \"overflow$w\", \"layers\": [" \
        "{\"kind\": \"embedding\", \"weight\": [[$w, 1, 1, 1], [1, $w, 1, 1]]}," \
        '{"kind": "graph_conv", "weight": [[1e-160, 0], [0, 1e-160]], "bias": [0, 0]},' \
        '{"kind": "mean_readout"},' \
        '{"kind": "dense", "weight": [[1, 1]], "bias": [0], "activation": "none"}]}' \
        > "overflow$w.json"
done
overflow_pair="--a overflow1e160.json --b overflow-1e160.json --data fx/dataset.jsonl"
fails fuse-overflow-qe fuse $overflow_pair --cost qe --out rejected.model.json
fails fuse-overflow-fgw fuse $overflow_pair --cost fgw --samples 2 --out rejected.model.json
