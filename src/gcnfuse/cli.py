"""Command-line harness: fixtures, fusion runs, experiment grids, CSV output.

Every command is deterministic given its seed flags: file outputs carry no
timestamps or wall-clock figures (those go to the console only), result
rows are sorted by their config key, and floats are written with repr, so
rerunning a command byte-reproduces its CSV/JSON and model files.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, replace
from pathlib import Path

import click
import numpy as np

from .costs import EFD, FGW, QE, WEIGHT, CostSpec
from .errors import GcnFuseError
from .fusion import (
    SOLVER_EMD,
    SOLVER_SINKHORN,
    SOLVERS,
    FusionConfig,
    default_epsilon,
    ensemble_predict,
    fuse,
    vanilla_fuse,
)
from .graphs import Dataset, GeneratorSpec, load_dataset, synthesize_dataset, write_dataset
from .models import (
    CAPTURE_POINTS,
    POST_BN,
    ArchSpec,
    evaluate_mae,
    forward,
    label_with_model,
    load_model,
    permute_model,
    perturb_model,
    random_model,
    save_model,
)
from .ot import SinkhornParams


@dataclass(frozen=True)
class ExperimentResult:
    """One grid/sweep cell: config snapshot, per-repeat MAEs, timing."""

    label: str
    config: dict
    maes: tuple[float, ...]
    wall_clock: float
    error: str | None = None

    @property
    def mean(self) -> float:
        return float(np.mean(self.maes))

    @property
    def std(self) -> float:
        # population std; a single repeat reports 0
        return float(np.std(self.maes))

    @property
    def failed(self) -> bool:
        return self.error is not None


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_results(path: Path, results: list[ExperimentResult], fmt: str) -> None:
    """One row per result, sorted: its config values, then mean_mae, std_mae and status."""
    keys = list(results[0].config)
    rows = [[r.config[k] for k in keys] + (["", "", "failed"] if r.failed else [r.mean, r.std, "ok"])
            for r in results]
    rows.sort(key=lambda row: row[:len(keys)])
    header = keys + ["mean_mae", "std_mae", "status"]
    if fmt == "json":
        records = [dict(zip(header, row)) for row in rows]
        path.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
        return
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    path.write_text(buf.getvalue())


def _raise_on_failures(results: list[ExperimentResult], what: str) -> None:
    failures = [r.label for r in results if r.failed]
    if failures:
        raise click.ClickException(f"{what} failed: " + ", ".join(sorted(failures)))


def _load_config_file(ctx: click.Context, config_path: str | None) -> None:
    """Fill parameters from a JSON config file; explicit flags win.

    Each value goes through its option's click type as the text it would
    have on the command line, so "8" and 8 both act like --samples 8, and a
    value the flag would reject (1.5 for an integer, "xml" for a choice)
    fails with the option named.
    """
    if config_path is None:
        return
    try:
        values = json.loads(Path(config_path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise click.ClickException(f"cannot read config file: {exc}")
    if not isinstance(values, dict):
        raise click.ClickException("config file must hold a JSON object of flag values")
    # map option spellings (--cost) to parameters (cost_kind)
    aliases: dict[str, click.Parameter] = {}
    for param in ctx.command.params:
        aliases[param.name] = param
        for opt in param.opts:
            aliases[opt.lstrip("-").replace("-", "_")] = param
    for name, value in values.items():
        param = aliases.get(name.replace("-", "_"))
        if param is None or param.name == "config_path":
            raise click.ClickException(f"config file sets unknown option {name!r}")
        if value is None or isinstance(value, (list, dict)):
            raise click.BadParameter(f"{json.dumps(value)} is not a flag value", ctx, param)
        source = ctx.get_parameter_source(param.name)
        if source is not None and source.name != "COMMANDLINE":
            text = value if isinstance(value, str) else json.dumps(value)
            ctx.params[param.name] = param.type_cast_value(ctx, text)


def _require_targets(dataset: Dataset, what: str) -> None:
    if any(g.target is None for g in dataset.graphs):
        raise click.ClickException(f"{what} needs a dataset where every graph has a target")


def _guard(fn):
    """Translate pipeline failures into clean nonzero exits."""
    import functools

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except GcnFuseError as exc:
            raise click.ClickException(str(exc))
    return wrapper


@click.group()
def main():
    """Fuse graph convolutional networks (or MLPs) by optimal transport."""


solver_option = click.option("--solver", type=click.Choice(list(SOLVERS)), default=SOLVER_EMD,
                             show_default=True, help="Transport solver for each layer.")
cost_option = click.option("--cost", "cost_kind", type=click.Choice([EFD, QE, FGW, WEIGHT]),
                           default=EFD, show_default=True, help="Ground-cost kind between neurons.")
lam_option = click.option("--lam", type=float, default=0.2, show_default=True,
                          help="Weight inside the EFD/QE costs.")
epsilon_option = click.option("--epsilon", type=float, default=None,
                              help="Sinkhorn entropy scale; defaults per cost (5e-4 efd/weight, 5e-5 qe/fgw).")
rho_option = click.option("--rho", type=float, default=1.0, show_default=True,
                          help="Sinkhorn marginal-relaxation scale.")
samples_option = click.option("--samples", type=click.IntRange(min=1), default=340, show_default=True,
                              help="Activation sample size per fusion run.")
capture_option = click.option("--capture", type=click.Choice(list(CAPTURE_POINTS)), default=POST_BN,
                              show_default=True, help="Capture pre-activations before or after batch norm.")
seed_option = click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
repeats_option = click.option("--repeats", type=click.IntRange(min=1), default=5, show_default=True,
                              help="Fusion repeats per configuration (seed + r each).")
format_option = click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
                             show_default=True)
config_option = click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
                             default=None, help="JSON file of option values; explicit flags win.")


def _fusion_config(solver, cost_kind, lam, epsilon, rho, samples, capture, seed,
                   interpolation=0.5) -> FusionConfig:
    """The CLI's config; an unset epsilon takes the cost kind's default."""
    return FusionConfig(
        solver=solver,
        cost=CostSpec(kind=cost_kind, lam=lam),
        sinkhorn=SinkhornParams(epsilon=default_epsilon(cost_kind) if epsilon is None else epsilon,
                                rho_alpha=rho, rho_beta=rho),
        sample_size=samples,
        capture_point=capture,
        interpolation=interpolation,
        seed=seed,
    )


@main.command("fuse")
@click.option("--a", "a_path", required=True, type=click.Path(exists=True, dir_okay=False),
              help="Model to align.")
@click.option("--b", "b_path", required=True, type=click.Path(exists=True, dir_okay=False),
              help="Anchor model (ordering kept).")
@click.option("--data", "data_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Dataset for activation sampling and MAE (optional with --cost weight).")
@solver_option
@cost_option
@lam_option
@epsilon_option
@rho_option
@samples_option
@capture_option
@click.option("--interpolation", type=float, default=0.5, show_default=True,
              help="Weight on the anchor when averaging.")
@seed_option
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default="fused.model.json",
              show_default=True, help="Where to write the fused model.")
@click.option("--trace", "trace_path", type=click.Path(dir_okay=False), default=None,
              help="Write the per-layer alignment report here.")
@click.option("--dump-costs", "dump_dir", type=click.Path(file_okay=False), default=None,
              help="Directory for the per-layer cost matrices of this fusion run, as CSV.")
@config_option
@click.pass_context
@_guard
def cmd_fuse(ctx, a_path, b_path, data_path, solver, cost_kind, lam, epsilon, rho, samples,
             capture, interpolation, seed, out_path, trace_path, dump_dir, config_path):
    """Align one model to the other and average them."""
    _load_config_file(ctx, config_path)
    p = ctx.params
    model_a, model_b = load_model(p["a_path"]), load_model(p["b_path"])
    dataset = load_dataset(p["data_path"]) if p["data_path"] else None
    config = _fusion_config(p["solver"], p["cost_kind"], p["lam"], p["epsilon"], p["rho"],
                            p["samples"], p["capture"], p["seed"], p["interpolation"])
    t0 = time.perf_counter()
    fused, trace = fuse(model_a, model_b, dataset, config)
    elapsed = time.perf_counter() - t0
    save_model(fused, p["out_path"])
    if p["trace_path"]:
        Path(p["trace_path"]).write_text(trace.report() + "\n")
    if p["dump_dir"]:
        dump_dir = Path(p["dump_dir"])
        dump_dir.mkdir(parents=True, exist_ok=True)
        for layer in trace.layers:
            if not layer.is_identity:
                np.savetxt(dump_dir / f"layer_{layer.layer_index}_cost.csv", layer.cost,
                           delimiter=",")
    click.echo(f"wrote {p['out_path']} ({len(trace.layers)} aligned layers, {elapsed:.2f}s)")
    click.echo(trace.report())
    if dataset is not None and all(g.target is not None for g in dataset.graphs):
        click.echo(f"fused MAE: {evaluate_mae(fused, dataset)!r}")


@main.command("vanilla")
@click.option("--a", "a_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--b", "b_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--data", "data_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--interpolation", type=float, default=0.5, show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default="vanilla.model.json",
              show_default=True)
@_guard
def cmd_vanilla(a_path, b_path, data_path, interpolation, out_path):
    """Average the two models elementwise with no alignment."""
    model_a = load_model(a_path)
    model_b = load_model(b_path)
    fused = vanilla_fuse(model_a, model_b, interpolation)
    save_model(fused, out_path)
    click.echo(f"wrote {out_path}")
    if data_path:
        dataset = load_dataset(data_path)
        _require_targets(dataset, "MAE evaluation")
        click.echo(f"vanilla MAE: {evaluate_mae(fused, dataset)!r}")


def _run_repeats(model_a, model_b, dataset, config_template: FusionConfig,
                 repeats: int, seed: int, label: str, config_row: dict) -> ExperimentResult:
    maes = []
    t0 = time.perf_counter()
    try:
        for r in range(repeats):
            config = replace(config_template, seed=seed + r)
            fused, _ = fuse(model_a, model_b, dataset, config)
            maes.append(evaluate_mae(fused, dataset))
    except GcnFuseError as exc:
        return ExperimentResult(label=label, config=config_row, maes=tuple(maes),
                                wall_clock=time.perf_counter() - t0, error=str(exc))
    return ExperimentResult(label=label, config=config_row, maes=tuple(maes),
                            wall_clock=time.perf_counter() - t0)


@main.command("grid")
@click.option("--a", "a_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--b", "b_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--data", "data_path", required=True, type=click.Path(exists=True, dir_okay=False))
@samples_option
@click.option("--fgw-samples", type=click.IntRange(min=1), default=32, show_default=True,
              help="Sample size for the FGW column.")
@lam_option
@rho_option
@capture_option
@repeats_option
@seed_option
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default="grid.csv", show_default=True)
@format_option
@config_option
@click.pass_context
@_guard
def cmd_grid(ctx, a_path, b_path, data_path, samples, fgw_samples, lam, rho, capture,
             repeats, seed, out_path, fmt, config_path):
    """Run the solver-by-cost grid ({emd, sinkhorn} x {efd, qe, fgw})."""
    _load_config_file(ctx, config_path)
    p = ctx.params
    model_a, model_b = load_model(p["a_path"]), load_model(p["b_path"])
    dataset = load_dataset(p["data_path"])
    _require_targets(dataset, "grid")
    results = []
    for solver in (SOLVER_EMD, SOLVER_SINKHORN):
        for cost_kind in (EFD, QE, FGW):
            cell_samples = p["fgw_samples"] if cost_kind == FGW else p["samples"]
            config = _fusion_config(solver, cost_kind, p["lam"], None, p["rho"],
                                    cell_samples, p["capture"], p["seed"])
            row = {"solver": solver, "cost": cost_kind,
                   "epsilon": config.sinkhorn.epsilon, "lam": p["lam"],
                   "samples": cell_samples, "repeats": p["repeats"]}
            result = _run_repeats(model_a, model_b, dataset, config,
                                  p["repeats"], p["seed"], f"{solver}-{cost_kind}", row)
            results.append(result)
            status = "failed" if result.failed else "ok"
            click.echo(f"{result.label}: {status} ({result.wall_clock:.2f}s)")
    _write_results(Path(p["out_path"]), results, p["fmt"])
    click.echo(f"wrote {p['out_path']} ({len(results)} rows)")
    _raise_on_failures(results, "grid cells")


@main.command("sweep-samples")
@click.option("--a", "a_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--b", "b_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--data", "data_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--sizes", default="1,8,64", show_default=True,
              help="Comma-separated sample sizes to sweep.")
@solver_option
@cost_option
@lam_option
@epsilon_option
@rho_option
@capture_option
@repeats_option
@seed_option
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default="sweep.csv", show_default=True)
@format_option
@config_option
@click.pass_context
@_guard
def cmd_sweep_samples(ctx, a_path, b_path, data_path, sizes, solver, cost_kind, lam, epsilon,
                      rho, capture, repeats, seed, out_path, fmt, config_path):
    """Sweep the activation sample size and record MAE per size."""
    _load_config_file(ctx, config_path)
    p = ctx.params
    try:
        size_list = sorted({int(s) for s in p["sizes"].split(",") if s.strip()})
    except ValueError:
        raise click.UsageError(f"--sizes must be comma-separated integers, got {p['sizes']!r}")
    if not size_list or any(s < 1 for s in size_list):
        raise click.UsageError("--sizes entries must be >= 1")
    model_a, model_b = load_model(p["a_path"]), load_model(p["b_path"])
    dataset = load_dataset(p["data_path"])
    _require_targets(dataset, "sweep")
    results = []
    for size in size_list:
        config = _fusion_config(p["solver"], p["cost_kind"], p["lam"], p["epsilon"], p["rho"],
                                size, p["capture"], p["seed"])
        row = {"sample_size": size, "repeats": p["repeats"]}
        results.append(_run_repeats(model_a, model_b, dataset, config,
                                    p["repeats"], p["seed"], f"size-{size}", row))
    _write_results(Path(p["out_path"]), results, p["fmt"])
    click.echo(f"wrote {p['out_path']} ({len(results)} rows)")
    _raise_on_failures(results, "sweep points")


@main.command("bn-compare")
@click.option("--a", "a_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--b", "b_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--data", "data_path", required=True, type=click.Path(exists=True, dir_okay=False))
@solver_option
@cost_option
@lam_option
@epsilon_option
@rho_option
@samples_option
@repeats_option
@seed_option
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default="bn_compare.csv",
              show_default=True)
@format_option
@config_option
@click.pass_context
@_guard
def cmd_bn_compare(ctx, a_path, b_path, data_path, solver, cost_kind, lam, epsilon, rho,
                   samples, repeats, seed, out_path, fmt, config_path):
    """Fuse twice, capturing pre-activations before and after batch norm."""
    _load_config_file(ctx, config_path)
    p = ctx.params
    model_a, model_b = load_model(p["a_path"]), load_model(p["b_path"])
    has_bn = any(getattr(l, "batch_norm", None) is not None for l in model_a.layers)
    if not has_bn:
        raise click.ClickException("models have no batch norm; the comparison is vacuous")
    dataset = load_dataset(p["data_path"])
    _require_targets(dataset, "bn comparison")
    results = []
    for capture in CAPTURE_POINTS:
        config = _fusion_config(p["solver"], p["cost_kind"], p["lam"], p["epsilon"], p["rho"],
                                p["samples"], capture, p["seed"])
        row = {"capture_point": capture, "repeats": p["repeats"]}
        results.append(_run_repeats(model_a, model_b, dataset, config,
                                    p["repeats"], p["seed"], capture, row))
    for r in sorted(results, key=lambda r: r.label):
        if not r.failed:
            click.echo(f"{r.label}: mean MAE {r.mean!r} (std {r.std!r})")
    _write_results(Path(p["out_path"]), results, p["fmt"])
    click.echo(f"wrote {p['out_path']}")
    _raise_on_failures(results, "runs")


@main.command("gen-fixtures")
@click.option("--out-dir", required=True, type=click.Path(file_okay=False))
@click.option("--arch", type=click.Choice(["gcn", "mlp"]), default="gcn", show_default=True)
@click.option("--feature-dim", type=int, default=4, show_default=True)
@click.option("--hidden", type=int, default=16, show_default=True)
@click.option("--gc-layers", type=int, default=2, show_default=True,
              help="Graph-conv layers (ignored in mlp mode).")
@click.option("--dense-layers", type=int, default=2, show_default=True)
@click.option("--bn/--no-bn", "batch_norm", default=True, show_default=True)
@click.option("--count", type=int, default=400, show_default=True,
              help="Dataset size (keep >= --samples of later runs).")
@click.option("--min-vertices", type=int, default=3, show_default=True)
@click.option("--max-vertices", type=int, default=9, show_default=True)
@click.option("--density", type=float, default=0.35, show_default=True)
@click.option("--noise", type=click.FloatRange(min=0.0), default=0.0, show_default=True,
              help="Relative weight noise on the twin (0 keeps it an exact permutation).")
@click.option("--teacher-labels/--synthetic-labels", default=True, show_default=True,
              help="Label the dataset with model A's own predictions or keep synthetic targets.")
@seed_option
@_guard
def cmd_gen_fixtures(out_dir, arch, feature_dim, hidden, gc_layers, dense_layers, batch_norm,
                     count, min_vertices, max_vertices, density, noise, teacher_labels, seed):
    """Write a random model, a permuted twin, and a matching dataset."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    if arch == "mlp":
        gc_layers = 0
        min_vertices = max_vertices = 1
        density = 0.0
        dense_layers = max(dense_layers, 2)
    spec = ArchSpec(feature_dim=feature_dim, hidden_dim=hidden, gc_layers=gc_layers,
                    dense_layers=dense_layers, batch_norm=batch_norm)
    model_a = random_model(spec, seed=seed, name="a")
    hidden_widths = [model_a.layers[i].params.out_dim for i in model_a.parameterized_indices()[:-1]]
    perms = [rng.permutation(w) for w in hidden_widths]
    model_b = permute_model(model_a, perms)
    if noise > 0:
        model_b = perturb_model(model_b, noise, seed=seed + 1)
    gen = GeneratorSpec(count=count, min_vertices=min_vertices, max_vertices=max_vertices,
                        edge_density=density, feature_dim=feature_dim)
    dataset = synthesize_dataset(gen, seed=seed + 2)
    if teacher_labels:
        dataset = label_with_model(model_a, dataset)

    save_model(model_a, out / "model_a.json")
    save_model(model_b, out / "model_b.json")
    (out / "permutations.json").write_text(
        json.dumps([p.tolist() for p in perms], indent=1) + "\n"
    )
    write_dataset(dataset, out / "dataset.jsonl")

    check = max(
        abs(forward(model_a, g) - forward(model_b, g)) for g in dataset.graphs[: min(count, 20)]
    )
    click.echo(f"wrote model_a.json model_b.json permutations.json dataset.jsonl to {out}")
    click.echo(f"twin max |prediction difference| on {min(count, 20)} graphs: {check!r}")


@main.command("eval")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--data", "data_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Append (model, dataset, mae) to this CSV.")
@_guard
def cmd_eval(model_path, data_path, out_path):
    """Report a model's mean absolute error on a dataset."""
    model = load_model(model_path)
    dataset = load_dataset(data_path)
    _require_targets(dataset, "eval")
    mae = evaluate_mae(model, dataset)
    click.echo(f"MAE: {mae!r}")
    if out_path:
        _append_csv_row(Path(out_path), ["model", "dataset", "mae"],
                        [model_path, data_path, repr(mae)])


@main.command("ensemble")
@click.option("--model", "model_paths", required=True, multiple=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Repeat for each ensemble member.")
@click.option("--data", "data_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Append (models, dataset, mae) to this CSV.")
@_guard
def cmd_ensemble(model_paths, data_path, out_path):
    """Report the MAE of the prediction average of several models."""
    models = [load_model(p) for p in model_paths]
    dataset = load_dataset(data_path)
    _require_targets(dataset, "ensemble eval")
    targets = np.array([g.target for g in dataset.graphs])
    mae = float(np.mean(np.abs(ensemble_predict(models, dataset.graphs) - targets)))
    click.echo(f"ensemble MAE ({len(models)} models): {mae!r}")
    if out_path:
        _append_csv_row(Path(out_path), ["models", "dataset", "mae"],
                        [";".join(model_paths), data_path, repr(mae)])


def _append_csv_row(path: Path, header: list[str], row: list[str]) -> None:
    new_file = not path.exists()
    with path.open("a", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if new_file:
            writer.writerow(header)
        writer.writerow(row)


if __name__ == "__main__":
    main()
