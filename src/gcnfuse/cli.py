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
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from .costs import COST_KINDS, EFD, FGW, QE, CostSpec
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
    label_with_model,
    load_model,
    permute_model,
    perturb_model,
    predict,
    random_model,
    save_model,
)
from .ot import SinkhornParams


def _write_results(path: Path, rows: list[dict], fmt: str) -> None:
    """Write the rows as CSV or JSON, in the order given."""
    header = list(rows[0])
    if fmt == "json":
        path.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
        return
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([row[k] for k in header] for row in rows)
    path.write_text(buf.getvalue())


def _finish(rows: list[dict], failed: dict[str, str], out_path: str, fmt: str, what: str,
            count_rows=True):
    """Write the result table, report it, and exit nonzero naming any failed cells."""
    _write_results(Path(out_path), rows, fmt)
    click.echo(f"wrote {out_path} ({len(rows)} rows)" if count_rows else f"wrote {out_path}")
    if failed:
        for label in sorted(failed):
            click.echo(f"{label}: {failed[label]}", err=True)
        raise click.ClickException(f"{what} failed: " + ", ".join(sorted(failed)))


def _read_config(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
    """Make a JSON config file's values the command's defaults; explicit flags win.

    Each value reaches its option as the text it would have on the command
    line, so "8" and 8 both act like --samples 8, and a value the flag would
    reject (1.5 for an integer, "xml" for a choice) fails with the option named.
    """
    if path is None:
        return
    try:
        values = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise click.ClickException(f"cannot read config file {path}: {exc}")
    if not isinstance(values, dict):
        raise click.ClickException("config file must hold a JSON object of flag values")
    # map option spellings (--cost) to parameters (cost_kind)
    aliases = {spelling.lstrip("-").replace("-", "_"): p
               for p in ctx.command.params for spelling in (p.name, *p.opts)}
    defaults = {}
    for name, value in values.items():
        target = aliases.get(name.replace("-", "_"))
        if target is None or target is param:
            raise click.ClickException(f"config file sets unknown option {name!r}")
        if value is None or isinstance(value, (list, dict)):
            raise click.BadParameter(f"{json.dumps(value)} is not a flag value", ctx, target)
        defaults[target.name] = value if isinstance(value, str) else json.dumps(value)
    ctx.default_map = defaults


def _has_targets(dataset: Dataset) -> bool:
    return all(g.target is not None for g in dataset.graphs)


def _labeled_dataset(path, what: str) -> Dataset:
    if not _has_targets(dataset := load_dataset(path)):
        raise click.ClickException(f"{what} needs a dataset where every graph has a target")
    return dataset


class _Group(click.Group):
    """Every command's pipeline failures and unwritable paths become clean nonzero exits."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (GcnFuseError, OSError) as exc:
            raise click.ClickException(str(exc))


@click.group(cls=_Group)
def main():
    """Fuse graph convolutional networks (or MLPs) by optimal transport."""


def _options(*decorators):
    """Stack click decorators as one, in the order given."""
    def apply(fn):
        for decorator in reversed(decorators):
            fn = decorator(fn)
        return fn
    return apply


def _check_out_dir(ctx: click.Context, param: click.Parameter, path: str | None) -> str | None:
    """Stop before any input is read when an output's parent directory does not exist."""
    if path is not None and not Path(path).parent.is_dir():
        raise click.ClickException(f"cannot write {path}: {Path(path).parent} is not a directory")
    return path


def _finite(ctx: click.Context, param: click.Parameter, value: float) -> float:
    """Reject NaN, which FloatRange lets through, and infinity, which fails only later."""
    if not np.isfinite(value):
        raise click.BadParameter(f"{value!r} is not a finite number", ctx, param)
    return value


def out_option(*decls, **kwargs):
    """An output-file option; its directory is checked while the options are parsed."""
    return click.option(*decls, type=click.Path(dir_okay=False), callback=_check_out_dir, **kwargs)


_IN_FILE = click.Path(exists=True, dir_okay=False)
pair_options = _options(
    click.option("--a", "a_path", required=True, type=_IN_FILE, help="Model to align."),
    click.option("--b", "b_path", required=True, type=_IN_FILE, help="Anchor model (ordering kept)."),
)
data_option = click.option("--data", "data_path", required=True, type=_IN_FILE)
lam_option = click.option("--lam", type=float, default=0.2, show_default=True,
                          help="Weight inside the EFD/QE costs.")
rho_option = click.option("--rho", type=float, default=1.0, show_default=True,
                          help="Sinkhorn marginal-relaxation scale.")
fusion_options = _options(
    click.option("--solver", type=click.Choice(list(SOLVERS)), default=SOLVER_EMD,
                 show_default=True, help="Transport solver for each layer."),
    click.option("--cost", "cost_kind", type=click.Choice(COST_KINDS), default=EFD,
                 show_default=True, help="Ground-cost kind between neurons."),
    lam_option,
    click.option("--epsilon", type=float, default=None,
                 help="Sinkhorn entropy scale; defaults to the cost kind's default_epsilon."),
    rho_option,
)
interpolation_option = click.option("--interpolation", type=float, default=0.5, show_default=True,
                                    help="Weight on the anchor when averaging.")
samples_option = click.option("--samples", type=click.IntRange(min=1), default=340, show_default=True,
                              help="Activation sample size per fusion run.")
capture_option = click.option("--capture", type=click.Choice(list(CAPTURE_POINTS)), default=POST_BN,
                              show_default=True, help="Capture pre-activations before or after batch norm.")
seed_option = click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
repeats_option = click.option("--repeats", type=click.IntRange(min=1), default=5, show_default=True,
                              help="Fusion repeats per configuration (seed + r each).")
format_option = click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
                             show_default=True)
config_option = click.option("--config", type=_IN_FILE, is_eager=True, expose_value=False,
                             callback=_read_config,
                             help="JSON file of option values, required ones too; explicit flags win.")
experiment_options = _options(pair_options, data_option, repeats_option, seed_option, format_option,
                              config_option)


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
@pair_options
@click.option("--data", "data_path", type=_IN_FILE, default=None,
              help="Dataset for activation sampling and MAE (optional with --cost weight).")
@fusion_options
@samples_option
@capture_option
@interpolation_option
@seed_option
@out_option("--out", "out_path", default="fused.model.json", show_default=True,
            help="Where to write the fused model.")
@out_option("--trace", "trace_path", default=None, help="Write the per-layer alignment report here.")
@click.option("--dump-costs", "dump_dir", type=click.Path(file_okay=False), callback=_check_out_dir,
              help="Directory for the per-layer cost matrices of this fusion run, as CSV.")
@config_option
def cmd_fuse(a_path, b_path, data_path, solver, cost_kind, lam, epsilon, rho, samples,
             capture, interpolation, seed, out_path, trace_path, dump_dir):
    """Align one model to the other and average them."""
    model_a, model_b = load_model(a_path), load_model(b_path)
    dataset = load_dataset(data_path) if data_path else None
    config = _fusion_config(solver, cost_kind, lam, epsilon, rho, samples, capture, seed,
                            interpolation)
    t0 = time.perf_counter()
    fused, trace = fuse(model_a, model_b, dataset, config)
    elapsed = time.perf_counter() - t0
    save_model(fused, out_path)
    if trace_path:
        Path(trace_path).write_text(trace.report() + "\n")
    if dump_dir:
        dump_dir = Path(dump_dir)
        dump_dir.mkdir(exist_ok=True)
        for layer in trace.layers:
            if not layer.is_identity:
                np.savetxt(dump_dir / f"layer_{layer.layer_index}_cost.csv", layer.cost,
                           delimiter=",")
    click.echo(f"wrote {out_path} ({len(trace.layers)} aligned layers, {elapsed:.2f}s)")
    click.echo(trace.report())
    if dataset is not None and _has_targets(dataset):
        click.echo(f"fused MAE: {evaluate_mae(fused, dataset)!r}")


@main.command("vanilla")
@pair_options
@click.option("--data", "data_path", type=_IN_FILE, default=None)
@interpolation_option
@out_option("--out", "out_path", default="vanilla.model.json", show_default=True)
def cmd_vanilla(a_path, b_path, data_path, interpolation, out_path):
    """Average the two models elementwise with no alignment."""
    model_a, model_b = load_model(a_path), load_model(b_path)
    dataset = _labeled_dataset(data_path, "MAE evaluation") if data_path else None
    fused = vanilla_fuse(model_a, model_b, interpolation)
    save_model(fused, out_path)
    click.echo(f"wrote {out_path}")
    if dataset is not None:
        click.echo(f"vanilla MAE: {evaluate_mae(fused, dataset)!r}")


def _run_cells(a_path, b_path, data_path, what, repeats, cells, needs_batch_norm=False, progress=False):
    """Load the inputs once, then fuse each (label, row, config) cell `repeats` times.

    Repeat r runs at the config's seed + r. Each cell's row gains mean_mae,
    std_mae (population std) and status; a cell whose fusion fails keeps its
    row with "", "" and "failed". Returns the rows, sorted by their cell
    columns, and each failed label's error message. `cells` may be a
    generator: each cell is built only when the one before it has run.
    """
    model_a, model_b = load_model(a_path), load_model(b_path)
    if needs_batch_norm and all(getattr(l, "batch_norm", None) is None for l in model_a.layers):
        raise click.ClickException("models have no batch norm; the comparison is vacuous")
    dataset = _labeled_dataset(data_path, what)
    keyed, failed = [], {}
    for label, row, config in cells:
        maes, t0 = [], time.perf_counter()
        try:
            for r in range(repeats):
                fused, _ = fuse(model_a, model_b, dataset, replace(config, seed=config.seed + r))
                maes.append(evaluate_mae(fused, dataset))
        except GcnFuseError as exc:
            failed[label] = str(exc)
            result = {"mean_mae": "", "std_mae": "", "status": "failed"}
        else:
            result = {"mean_mae": float(np.mean(maes)), "std_mae": float(np.std(maes)), "status": "ok"}
        if progress:
            click.echo(f"{label}: {result['status']} ({time.perf_counter() - t0:.2f}s)")
        keyed.append((list(row.values()), {**row, **result}))
    keyed.sort(key=lambda pair: pair[0])
    return [row for _, row in keyed], failed


@main.command("grid")
@experiment_options
@samples_option
@click.option("--fgw-samples", type=click.IntRange(min=1), default=32, show_default=True,
              help="Sample size for the FGW column.")
@lam_option
@rho_option
@capture_option
@out_option("--out", "out_path", default="grid.csv", show_default=True)
def cmd_grid(a_path, b_path, data_path, repeats, seed, fmt, samples, fgw_samples, lam, rho, capture,
             out_path):
    """Run the solver-by-cost grid ({emd, sinkhorn} x {efd, qe, fgw})."""
    def cells():
        for solver in (SOLVER_EMD, SOLVER_SINKHORN):
            for cost_kind in (EFD, QE, FGW):
                n = fgw_samples if cost_kind == FGW else samples
                config = _fusion_config(solver, cost_kind, lam, None, rho, n, capture, seed)
                row = {"solver": solver, "cost": cost_kind, "epsilon": config.sinkhorn.epsilon,
                       "lam": lam, "samples": n, "repeats": repeats}
                yield f"{solver}-{cost_kind}", row, config

    rows, failed = _run_cells(a_path, b_path, data_path, "grid", repeats, cells(), progress=True)
    _finish(rows, failed, out_path, fmt, "grid cells")


@main.command("sweep-samples")
@experiment_options
@click.option("--sizes", default="1,8,64", show_default=True,
              help="Comma-separated sample sizes to sweep.")
@fusion_options
@capture_option
@out_option("--out", "out_path", default="sweep.csv", show_default=True)
def cmd_sweep_samples(a_path, b_path, data_path, repeats, seed, fmt, sizes, solver, cost_kind, lam,
                      epsilon, rho, capture, out_path):
    """Sweep the activation sample size and record MAE per size."""
    try:
        size_list = sorted({int(s) for s in sizes.split(",") if s.strip()})
    except ValueError:
        raise click.UsageError(f"--sizes must be comma-separated integers, got {sizes!r}")
    if not size_list or any(s < 1 for s in size_list):
        raise click.UsageError("--sizes entries must be >= 1")
    cells = ((f"size-{n}", {"sample_size": n, "repeats": repeats},
              _fusion_config(solver, cost_kind, lam, epsilon, rho, n, capture, seed))
             for n in size_list)
    rows, failed = _run_cells(a_path, b_path, data_path, "sweep", repeats, cells)
    _finish(rows, failed, out_path, fmt, "sweep points")


@main.command("bn-compare")
@experiment_options
@fusion_options
@samples_option
@out_option("--out", "out_path", default="bn_compare.csv", show_default=True)
def cmd_bn_compare(a_path, b_path, data_path, repeats, seed, fmt, solver, cost_kind, lam, epsilon,
                   rho, samples, out_path):
    """Fuse twice, capturing pre-activations before and after batch norm."""
    cells = ((capture, {"capture_point": capture, "repeats": repeats},
              _fusion_config(solver, cost_kind, lam, epsilon, rho, samples, capture, seed))
             for capture in CAPTURE_POINTS)
    rows, failed = _run_cells(a_path, b_path, data_path, "bn comparison", repeats, cells,
                              needs_batch_norm=True)
    for row in rows:
        if row["status"] == "ok":
            click.echo(f"{row['capture_point']}: mean MAE {row['mean_mae']!r} "
                       f"(std {row['std_mae']!r})")
    _finish(rows, failed, out_path, fmt, "runs", count_rows=False)


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
              callback=_finite, help="Relative weight noise on the twin (0 keeps it an exact permutation).")
@click.option("--teacher-labels/--synthetic-labels", default=True, show_default=True,
              help="Label the dataset with model A's own predictions or keep synthetic targets.")
@seed_option
def cmd_gen_fixtures(out_dir, arch, feature_dim, hidden, gc_layers, dense_layers, batch_norm,
                     count, min_vertices, max_vertices, density, noise, teacher_labels, seed):
    """Write a random model, a permuted twin, and a matching dataset."""
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

    # the directory appears only once every value has been accepted
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_model(model_a, out / "model_a.json")
    save_model(model_b, out / "model_b.json")
    (out / "permutations.json").write_text(
        json.dumps([p.tolist() for p in perms], indent=1) + "\n"
    )
    write_dataset(dataset, out / "dataset.jsonl")

    # one graph per call: a graph's bits depend on its batch
    check = max(
        float(abs(predict(model_a, (g,))[0] - predict(model_b, (g,))[0]))
        for g in dataset.graphs[: min(count, 20)]
    )
    click.echo(f"wrote model_a.json model_b.json permutations.json dataset.jsonl to {out}")
    click.echo(f"twin max |prediction difference| on {min(count, 20)} graphs: {check!r}")


@main.command("eval")
@click.option("--model", "model_path", required=True, type=_IN_FILE)
@data_option
@out_option("--out", "out_path", default=None, help="Append (model, dataset, mae) to this CSV.")
def cmd_eval(model_path, data_path, out_path):
    """Report a model's mean absolute error on a dataset."""
    model = load_model(model_path)
    dataset = _labeled_dataset(data_path, "eval")
    mae = evaluate_mae(model, dataset)
    click.echo(f"MAE: {mae!r}")
    if out_path:
        _append_csv_row(Path(out_path), ["model", "dataset", "mae"],
                        [model_path, data_path, repr(mae)])


@main.command("ensemble")
@click.option("--model", "model_paths", required=True, multiple=True, type=_IN_FILE,
              help="Repeat for each ensemble member.")
@data_option
@out_option("--out", "out_path", default=None, help="Append (models, dataset, mae) to this CSV.")
def cmd_ensemble(model_paths, data_path, out_path):
    """Report the MAE of the prediction average of several models."""
    models = [load_model(p) for p in model_paths]
    dataset = _labeled_dataset(data_path, "ensemble eval")
    mae = float(np.mean(np.abs(ensemble_predict(models, dataset) - dataset.targets)))
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
