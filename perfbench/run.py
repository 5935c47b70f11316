#!/usr/bin/env python3
"""gcnfuse benchmark: closed-loop fusion jobs on one workload.

    python3 perfbench/run.py --workload emd-small --seed 1 --seconds 25 --trace 0

One client in one process runs fusion jobs back to back: `fuse(a, b, data,
config)` then `evaluate_mae(fused, data)`, the loop `grid`, `sweep-samples`
and `bn-compare` share, cycling the workload's cells with the sample seed
advancing per job. Before timing it writes the seeded inputs, times set-up
(both model loads plus the dataset load) several times, and runs the
correctness gate. `--trace 0` reports the end-to-end metrics; `--trace 1`
runs every job twice, untraced and traced, and reports per-layer metrics
from the traced spans plus the tracing overhead. Times are rescaled for
host speed (see hostspeed.py). Every line before the last is a
human-readable report with the machine record; the last line is one JSON
object. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import resource
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build" / "perfbench"

SETUP_REPEATS = 5
# Jobs every run completes however short --seconds is. fusion.mae_excess and the
# per-layer counts come from exactly these jobs, so they repeat per seed.
FIXED_JOBS = 6
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END = {
    "setup_s": "s", "fuse_p50_s": "s", "eval_p50_s": "s", "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _import_program():
    """Put the checkout's sources first on the path; fail if they are absent."""
    if not (SRC / "gcnfuse" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gcnfuse sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import gcnfuse
    if Path(gcnfuse.__file__).resolve().parent != (SRC / "gcnfuse").resolve():
        sys.exit(f"perfbench: imported gcnfuse from {gcnfuse.__file__}, not {SRC}")


@dataclass
class Job:
    """One fusion job; times are rescaled for host speed, raw_* are wall times."""

    index: int
    cell: object
    fuse_s: float = 0.0
    eval_s: float = 0.0
    raw_fuse_s: float = 0.0
    raw_eval_s: float = 0.0
    fuse_scale: float = 1.0
    eval_scale: float = 1.0
    mae: float = math.nan
    plans: tuple = ()
    failures: list = field(default_factory=list)
    fused: object = None
    report: str = ""


def run_job(index, cell, model_a, model_b, dataset, rescale=lambda: 1.0) -> Job:
    """fuse() then evaluate_mae(), timed; rescale() runs after each of the two."""
    from gcnfuse import GcnFuseError, fusion, models
    from workloads import check_job

    job = Job(index, cell)
    clock = time.perf_counter
    try:
        t0 = clock()
        fused, trace = fusion.fuse(model_a, model_b, dataset, cell.config(seed=index))
        job.raw_fuse_s = clock() - t0
        job.fuse_scale = rescale()
        t0 = clock()
        job.mae = models.evaluate_mae(fused, dataset)
        job.raw_eval_s = clock() - t0
        job.eval_scale = rescale()
    except GcnFuseError as exc:
        job.failures.append(f"{type(exc).__name__}: {exc}")
        return job
    job.fuse_s = job.raw_fuse_s * job.fuse_scale
    job.eval_s = job.raw_eval_s * job.eval_scale
    job.plans = tuple(t.plan for t in trace.layers if not t.is_identity)
    job.fused, job.report = fused, trace.report()
    job.failures += check_job(cell, model_b, fused, trace, job.mae)
    return job


def _saved_bytes(model, path: Path) -> bytes:
    from gcnfuse import models
    models.save_model(model, path)
    return path.read_bytes()


def tail(values):
    """(percentile, value) for the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            return p, ordered[math.ceil(p / 100.0 * n) - 1]
    return None


def machine_record() -> dict:
    """nproc, cache sizes and the BLAS in use, so hosts are not compared silently."""
    import numpy as np

    rec = {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
           "numpy": np.__version__}
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            rec[f"L{level}"] = size
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    rec["blas"] = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    rec["blas_threads"] = _blas_threads()
    return rec


def _blas_threads():
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return "unknown"
    libs = {line.split()[-1] for line in maps.splitlines() if "blas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def measure(workload, in_dir: Path, seconds: float, trace: bool) -> dict:
    """Set-up, gate, timed closed loop; returns the raw observations."""
    from gcnfuse import fusion, models
    from hostspeed import Rescaler
    from tracer import Tracer
    from workloads import gate, load_inputs

    tracer = Tracer() if trace else None
    clock = time.perf_counter
    rescale = Rescaler()
    setups, setup_scales, setup_spans = [], [], []
    for _ in range(SETUP_REPEATS):
        # each load starts from a collected heap, as in a fresh CLI process
        gc.collect()
        first = len(tracer.spans) if tracer else 0
        with tracer.installed() if tracer else nullcontext():
            t0 = clock()
            model_a, model_b, dataset = load_inputs(in_dir)
            setups.append(clock() - t0)
        setup_scales.append(rescale())
        if tracer:
            setup_spans.append(tracer.spans[first:])

    gate_failures = gate(workload, in_dir)
    vanilla_mae = models.evaluate_mae(fusion.vanilla_fuse(model_a, model_b), dataset)
    # averaging A aligned by the planted permutation: what perfect plans reach
    exact = models.load_model(in_dir / "model_b_exact.json")
    oracle_mae = models.evaluate_mae(fusion.vanilla_fuse(exact, model_b), dataset)

    cells = workload.cells
    jobs, traced = [], []
    fidelity = []
    start = clock()
    deadline = start + seconds
    index = 0
    rescale()
    while index < FIXED_JOBS or clock() < deadline:
        cell = cells[index % len(cells)]
        # a job's second run finds warm caches, so traced and untraced take
        # turns going first and the overhead estimate carries no order bias
        traced_first = tracer is not None and index % 2 == 1
        if traced_first:
            twin = _traced_job(tracer, index, cell, model_a, model_b, dataset, rescale)
        job = run_job(index, cell, model_a, model_b, dataset, rescale)
        if tracer:
            if not traced_first:
                twin = _traced_job(tracer, index, cell, model_a, model_b, dataset, rescale)
            fidelity += _fidelity(job, twin, index < len(cells), in_dir)
            # only the fixed jobs' plans are read later; hold no more memory
            twin.fused = None
            if index >= FIXED_JOBS:
                twin.plans = ()
            traced.append(twin)
        job.fused, job.plans = None, ()
        jobs.append(job)
        index += 1
    end = clock()
    return {
        "setups": setups, "setup_scales": setup_scales, "setup_spans": setup_spans,
        "references": rescale.references, "gate_failures": gate_failures,
        "vanilla_mae": vanilla_mae, "oracle_mae": oracle_mae, "jobs": jobs, "traced": traced,
        "fidelity": fidelity, "elapsed": end - start, "tracer": tracer,
    }


def _traced_job(tracer, index, cell, model_a, model_b, dataset, rescale) -> Job:
    tracer.job = index
    with tracer.installed():
        job = run_job(index, cell, model_a, model_b, dataset, rescale)
    tracer.job = None
    return job


def _fidelity(plain: Job, traced: Job, compare_files: bool, in_dir: Path) -> list[str]:
    """A traced job must report what the untraced job reported; in the first
    cycle of cells its saved fused model must match byte for byte too."""
    if plain.fused is None or traced.fused is None:
        return []
    out = []
    if plain.report != traced.report:
        out.append(f"job {plain.index}: traced trace report differs")
    if compare_files and _saved_bytes(plain.fused, in_dir / "plain.json") != _saved_bytes(
            traced.fused, in_dir / "traced.json"):
        out.append(f"job {plain.index}: traced saved model differs")
    return out


def quality(obs) -> dict:
    """Fused MAE of the fixed jobs against the oracle and vanilla baselines.

    mae_excess is 1 + (fused - oracle) / (vanilla - oracle): 1 when the plans
    align as well as the planted permutation, 2 when no better than vanilla
    averaging. mae_ratio is fused / vanilla. Both are deterministic per seed.
    """
    vanilla, oracle = obs["vanilla_mae"], obs["oracle_mae"]
    maes = [j.mae for j in obs["jobs"][:FIXED_JOBS]]
    return {
        "fusion.mae_excess": statistics.fmean(1.0 + (m - oracle) / (vanilla - oracle)
                                              for m in maes),
        "mae_ratio": statistics.fmean(m / vanilla for m in maes),
        "vanilla_mae": vanilla, "oracle_mae": oracle,
    }


def end_to_end_metrics(obs, cells) -> tuple[dict, dict]:
    """The gated metrics, plus raw wall times, the fuse tail and MAE ratios.

    fuse_p50_s averages the per-cell medians and jobs_per_s counts whole
    cycles of cells only, so neither depends on how many jobs of each cell
    a run happened to finish.
    """
    jobs = [j for j in obs["jobs"] if not j.failures]
    per_cell = {c.label: statistics.median(j.fuse_s for j in jobs if j.cell == c) for c in cells}
    cycled = obs["jobs"][:len(obs["jobs"]) // len(cells) * len(cells)]
    metrics = {
        "setup_s": statistics.median(t * k for t, k in zip(obs["setups"], obs["setup_scales"])),
        "fuse_p50_s": statistics.fmean(per_cell.values()),
        "eval_p50_s": statistics.median(j.eval_s for j in jobs),
        "jobs_per_s": len(cycled) / sum(j.fuse_s + j.eval_s for j in cycled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    fuse = [j.fuse_s for j in jobs]
    extra = {
        **quality(obs),
        "fuse_p50_s_per_cell": per_cell,
        "fuse_samples": len(fuse),
        "reference_s_median": statistics.median(obs["references"]),
        "raw_wall": {
            "setup_s": statistics.median(obs["setups"]),
            "fuse_p50_s": statistics.median(j.raw_fuse_s for j in jobs),
            "eval_p50_s": statistics.median(j.raw_eval_s for j in jobs),
            "jobs_per_s": len(obs["jobs"]) / obs["elapsed"],
        },
    }
    found = tail(fuse)
    if found:
        extra["fuse_tail_s"] = {"percentile": found[0], "value": found[1], "samples": len(fuse)}
    return metrics, extra


PER_LAYER = {
    "graphs.load_dataset_s": "s", "graphs.sample_batch_s": "s",
    "models.load_model_s": "s", "models.capture_s": "s", "models.capture_graphs": "count",
    "models.eval_s": "s", "costs.build_s": "s", "costs.weight_share": "%",
    "costs.entries": "count", "costs.diff_bytes": "B-computed",
    "ot.solve_s": "s", "ot.emd_share": "%", "ot.emd_calls": "count",
    "ot.fgw_share": "%", "ot.fgw_calls": "count", "ot.fgw_emd_per_call": "count",
    "ot.sinkhorn_share": "%", "ot.sinkhorn_iters": "count",
    "ot.converged_ratio": "ratio", "ot.plan_mass_min": "mass",
    "ot.marginal_error_max": "mass", "ot.permutation_ratio": "ratio",
    "fusion.mae_excess": "ratio", "fusion.align_s": "s", "fusion.self_s": "s",
    "trace.overhead_s": "s",
}


def per_layer_metrics(obs) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics from the traced jobs; also every layer's self time and share."""
    from tracer import EVAL, FUSE, fuse_accounting_error, job_breakdown

    spans = obs["tracer"].spans
    breakdown = job_breakdown(spans)
    traced = [j for j in obs["traced"] if not j.failures]
    per_job = len(traced)
    fixed = [breakdown[j.index] for j in obs["traced"][:FIXED_JOBS]]

    def mean_self(*names):
        return sum(breakdown[j.index]["self"][n] * (j.eval_scale if n == EVAL else j.fuse_scale)
                   for j in traced for n in names) / per_job

    fuse_total = sum(breakdown[j.index]["fuse"] * j.fuse_scale for j in traced)

    def share(*names):
        return 100.0 * mean_self(*names) * per_job / fuse_total

    def per_fixed(fn):
        return sum(fn(rec) for rec in fixed) / len(fixed)

    def setup_part(name):
        return statistics.median(
            k * sum(s[2] - s[1] for s in rep if s[0] == name)
            for rep, k in zip(obs["setup_spans"], obs["setup_scales"]))

    plans = [p for j in obs["traced"][:FIXED_JOBS] for p in j.plans]
    iters = [w for rec in fixed for w in rec["work"]["ot.sinkhorn"]]
    fgw_calls = sum(rec["calls"]["ot.fgw"] for rec in fixed)
    diff = [w[1] for rec in breakdown.values()
            for w in rec["work"]["costs.build"] + rec["work"]["costs.weight"]]
    plain = {j.index: j.fuse_s for j in obs["jobs"] if not j.failures}
    overhead = statistics.median(j.fuse_s - plain[j.index] for j in traced if j.index in plain)
    metrics = {
        "graphs.load_dataset_s": setup_part("graphs.load_dataset"),
        "graphs.sample_batch_s": mean_self("graphs.sample_batch"),
        "models.load_model_s": setup_part("models.load_model"),
        "models.capture_s": mean_self("models.capture"),
        "models.capture_graphs": per_fixed(lambda r: sum(r["work"]["models.capture"])),
        "models.eval_s": mean_self(EVAL),
        "costs.build_s": mean_self("costs.build"),
        "costs.weight_share": share("costs.weight"),
        "costs.entries": per_fixed(
            lambda r: sum(w[0] for w in r["work"]["costs.build"] + r["work"]["costs.weight"])),
        "costs.diff_bytes": max(diff, default=0),
        "ot.solve_s": mean_self("ot.emd", "ot.sinkhorn", "ot.fgw"),
        "ot.emd_share": share("ot.emd"),
        "ot.emd_calls": per_fixed(lambda r: r["calls"]["ot.emd"]),
        "ot.fgw_share": share("ot.fgw"),
        "ot.fgw_calls": per_fixed(lambda r: r["calls"]["ot.fgw"]),
        "ot.fgw_emd_per_call": (sum(r["emd_in_fgw"] for r in fixed) / fgw_calls
                                if fgw_calls else 0.0),
        "ot.sinkhorn_share": share("ot.sinkhorn"),
        "ot.sinkhorn_iters": statistics.median(iters) if iters else 0,
        "ot.converged_ratio": sum(p.converged for p in plans) / len(plans),
        "ot.plan_mass_min": min(float(p.coupling.sum()) for p in plans),
        "ot.marginal_error_max": max(_marginal_error(p) for p in plans),
        "ot.permutation_ratio": sum(p.as_permutation() is not None for p in plans) / len(plans),
        "fusion.mae_excess": quality(obs)["fusion.mae_excess"],
        "fusion.align_s": mean_self("fusion.align"),
        "fusion.self_s": mean_self(FUSE),
        "trace.overhead_s": overhead,
    }
    names = sorted({n for j in traced for n in breakdown[j.index]["self"]})
    layers = {n: {"self_s_per_job": mean_self(n),
                  "share_of_fuse_pct": share(n) if n != EVAL else None}
              for n in names}
    layers["trace.overhead_ratio"] = overhead / statistics.median(plain.values())
    checks = []
    error = fuse_accounting_error(spans)
    if error > 1e-9:
        checks.append(f"span accounting: layer self times miss the fuse span by {error:.3g}s")
    return metrics, layers, checks


def _marginal_error(plan):
    from gcnfuse import uniform_weights
    n, m = plan.coupling.shape
    return plan.marginal_error(uniform_weights(n), uniform_weights(m))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS, write_inputs

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        in_dir = Path(tmp)
        write_inputs(workload, args.seed, in_dir)
        obs = measure(workload, in_dir, args.seconds, bool(args.trace))

    failed_jobs = [j for j in obs["jobs"] + obs["traced"] if j.failures]
    problems = [f"job {j.index} ({j.cell.label}): {m}" for j in failed_jobs for m in j.failures]
    gate_failures = obs["gate_failures"]
    problems += [f"gate {cost}: {m}" for cost, found in gate_failures.items() for m in found]
    problems += obs["fidelity"]
    attempted = len(obs["jobs"]) + len(obs["traced"]) + len(gate_failures)
    failed = len(failed_jobs) + sum(1 for found in gate_failures.values() if found)

    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} cells={','.join(c.label for c in workload.cells)}")
    print("machine " + json.dumps(machine_record()))
    if args.trace:
        metrics, details, checks = per_layer_metrics(obs)
        problems += checks
        units = PER_LAYER
        trace_path = WORK_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl.gz"
        obs["tracer"].write(trace_path)
        print(f"spans {len(obs['tracer'].spans)} written to {trace_path.relative_to(ROOT)}")
        for name, rec in details.items():
            print(f"layer {name} {json.dumps(rec)}")
    else:
        metrics, details = end_to_end_metrics(obs, workload.cells)
        units = END_TO_END
        print(f"extra {json.dumps(details)}")
    print(f"metric failed_ratio {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    for problem in problems:
        print(f"FAILED {problem}")
    correct = not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
