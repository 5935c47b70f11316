"""Benchmark workloads, their seeded input files, and the correctness gate.

A workload is one model architecture plus the fusion cells its jobs cycle
through. Inputs are built only through gcnfuse's public API, mirroring
`gcnfuse gen-fixtures --noise 0.1` for the workload's hidden width: a random
GCN (model A, the teacher), its hidden-permuted twin perturbed by relative
weight noise 0.1 (model B, the anchor), the exact twin (noise 0, used only by
the gate), the planted permutations, and a dataset labelled by model A.
Everything is written to files, so set-up times the real loaders.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gcnfuse import GcnFuseError, costs, fusion, graphs, models, ot

FEATURE_DIM = 4
GC_LAYERS = 2
DENSE_LAYERS = 2
DATASET_SIZE = 400
MIN_VERTICES = 3
MAX_VERTICES = 9
EDGE_DENSITY = 0.35
TWIN_NOISE = 0.1
LAM = 0.2
RHO = 1.0

# Plans of the exact twin must recover the planted permutation and the fused
# model must reproduce the teacher's labels to this tolerance.
GATE_MAE_TOL = 1e-9
# EMD plans of every timed job must keep their marginals to this tolerance.
MARGINAL_TOL = 1e-9

INPUT_FILES = ("model_a.json", "model_b.json", "model_b_exact.json",
               "permutations.json", "dataset.jsonl")


@dataclass(frozen=True)
class Cell:
    """One solver x cost combination at a sample size, as `grid` runs it."""

    solver: str
    cost: str
    samples: int

    @property
    def label(self) -> str:
        return f"{self.solver}-{self.cost}"

    def config(self, seed: int, solver: str | None = None) -> fusion.FusionConfig:
        """The CLI's defaults for this cell (optionally with another solver)."""
        fgw = costs.FgwCostSpec() if self.cost == costs.FGW else None
        return fusion.FusionConfig(
            solver=solver or self.solver,
            cost=costs.CostSpec(kind=self.cost, lam=LAM, fgw=fgw),
            sinkhorn=ot.SinkhornParams(
                epsilon=fusion.default_epsilon(self.cost), rho_alpha=RHO, rho_beta=RHO),
            sample_size=self.samples,
            seed=seed,
        )


@dataclass(frozen=True)
class Workload:
    name: str
    hidden: int
    cells: tuple[Cell, ...]


def _emd_cells(samples: int) -> tuple[Cell, ...]:
    return tuple(Cell("emd", kind, samples) for kind in (costs.EFD, costs.QE, costs.WEIGHT))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("emd-small", 16, _emd_cells(340)),
        Workload("emd-wide", 256, _emd_cells(64)),
        Workload("sinkhorn", 16, (Cell("sinkhorn", costs.EFD, 340),
                                  Cell("sinkhorn", costs.QE, 340))),
        Workload("fgw", 16, (Cell("emd", costs.FGW, 2),)),
    )
}


def write_inputs(workload: Workload, seed: int, out_dir: Path) -> None:
    """Write the workload's input files for one seed; same seed, same bytes."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    spec = models.ArchSpec(feature_dim=FEATURE_DIM, hidden_dim=workload.hidden,
                           gc_layers=GC_LAYERS, dense_layers=DENSE_LAYERS, batch_norm=True)
    model_a = models.random_model(spec, seed=seed, name="a")
    hidden = model_a.parameterized_indices()[:-1]
    perms = [rng.permutation(model_a.layers[i].params.out_dim) for i in hidden]
    exact = models.permute_model(model_a, perms)
    model_b = models.perturb_model(exact, TWIN_NOISE, seed=seed + 1)
    gen = graphs.GeneratorSpec(count=DATASET_SIZE, min_vertices=MIN_VERTICES,
                               max_vertices=MAX_VERTICES, edge_density=EDGE_DENSITY,
                               feature_dim=FEATURE_DIM)
    dataset = models.label_with_model(model_a, graphs.synthesize_dataset(gen, seed=seed + 2))

    models.save_model(model_a, out_dir / "model_a.json")
    models.save_model(model_b, out_dir / "model_b.json")
    models.save_model(exact, out_dir / "model_b_exact.json")
    (out_dir / "permutations.json").write_text(json.dumps([p.tolist() for p in perms]) + "\n")
    graphs.write_dataset(dataset, out_dir / "dataset.jsonl")


def load_inputs(in_dir: Path):
    """(model A, model B, dataset), loaded the way every CLI command loads them."""
    model_a = models.load_model(in_dir / "model_a.json")
    model_b = models.load_model(in_dir / "model_b.json")
    dataset = graphs.load_dataset(in_dir / "dataset.jsonl")
    return model_a, model_b, dataset


def gate(workload: Workload, in_dir: Path) -> dict[str, list[str]]:
    """Fuse the exact twin with EMD under each of the workload's costs.

    Every hidden plan must be the planted permutation (row i of A maps to
    column argsort(perm)[i] of the permuted twin) and the fused model must
    reproduce the teacher labels. Returns the failures found per cost.
    """
    model_a = models.load_model(in_dir / "model_a.json")
    exact = models.load_model(in_dir / "model_b_exact.json")
    dataset = graphs.load_dataset(in_dir / "dataset.jsonl")
    perms = json.loads((in_dir / "permutations.json").read_text())
    failures = {}
    for cell in workload.cells:
        found = failures[cell.cost] = []
        try:
            fused, trace = fusion.fuse(model_a, exact, dataset, cell.config(seed=0, solver="emd"))
            mae = models.evaluate_mae(fused, dataset)
        except GcnFuseError as exc:
            found.append(f"{type(exc).__name__}: {exc}")
            continue
        for layer, perm in zip(trace.layers, perms):
            recovered = layer.plan.as_permutation()
            if recovered is None or not np.array_equal(recovered, np.argsort(perm)):
                found.append(f"layer {layer.layer_index} plan is not the planted permutation")
        if not mae <= GATE_MAE_TOL:
            found.append(f"exact-twin MAE {mae!r} > {GATE_MAE_TOL}")
    return failures


def check_job(cell: Cell, anchor: models.GcnModel, fused: models.GcnModel,
              trace: fusion.AlignmentTrace, mae: float) -> list[str]:
    """Output checks every timed job must pass."""
    failures = []
    if not fused.same_architecture(anchor):
        failures.append("fused model does not have the anchor's architecture")
    params = []
    for layer in fused.layers:
        p = getattr(layer, "params", None)
        if p is not None:
            params += [p.weight] + ([] if p.bias is None else [p.bias])
        bn = getattr(layer, "batch_norm", None)
        if bn is not None:
            params += [bn.gamma, bn.beta_shift, bn.running_mean, bn.running_var]
    if not all(np.all(np.isfinite(p)) for p in params):
        failures.append("fused model has non-finite parameters")
    if not np.isfinite(mae):
        failures.append(f"fused MAE is {mae!r}")
    if cell.solver == "emd" and trace.max_marginal_error() > MARGINAL_TOL:
        failures.append(f"EMD plan marginal error {trace.max_marginal_error():.3g}")
    return failures
