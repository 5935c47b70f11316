#!/usr/bin/env python3
"""Alternated benchmark pairs of two checkouts, and whether a gain may be claimed.

    python tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload emd-small \\
        --pairs 10 --seconds 12 --seed 7001

Pair i (counting from 1) runs each tree's perfbench/run.py with the same
settings on seed K + i - 1: the parent first in odd pairs, the change first in
even ones. Each run's last output line is its JSON result. For every
end-to-end metric that the parent tree's BENCHMARK.json names, the report gives
each side's runs in pair order, median and quartiles, the pairs the change won
(a tie counts for neither side), and whether a gain may be claimed: the change
wins at least nine tenths of the pairs and its median is better than the
parent's by more than the parent's interquartile range. `--out FILE` also
writes the report as JSON: the settings, each side's runs in pair order (seed,
metrics, why a run failed, and the record of its `machine` line), and for
each metric each side's series, median and quartiles with the verdict.
Exit status 1 if any run failed, gave no result or reported a failed job;
0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(tree: Path, workload: str, seconds: float, seed: int) -> dict:
    """One benchmark run in tree: {"seed", "metrics": {metric: value} or None, "error": why
    metrics is None or "", "machine": the run's machine record or None}."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    machine = next((line.removeprefix("machine ") for line in lines if line.startswith("machine ")),
                   None)
    run = {"seed": seed, "metrics": None, "error": "",
           "machine": None if machine is None else json.loads(machine)}
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        run["error"] = f"exit {proc.returncode}, no JSON result: {proc.stderr.strip()[-300:]}"
        return run
    if proc.returncode or not result.get("correct") or result.get("failed"):
        run["error"] = (f"exit {proc.returncode}, "
                        f"{result.get('failed')} of {result.get('attempted')} failed")
        return run
    run["metrics"] = {name: rec["value"] for name, rec in result["metrics"].items()}
    return run


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(parent: list[float], change: list[float], lower_is_better: bool) -> dict:
    """Wins, the median gap (positive when the change is better) and the claim rule's result."""
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    gap = sign * (statistics.median(parent) - statistics.median(change)) + 0.0  # no -0.0
    q1, q3 = quartiles(parent)
    holds = 10 * wins >= 9 * len(parent) and gap > q3 - q1
    return {"wins": wins, "gap": gap, "parent_iqr": q3 - q1, "holds": holds}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--out", type=Path, help="also write the report to this JSON file")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}

    trees = dict(zip(SIDES, (args.parent, args.change)))
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    failures = []
    for i in range(args.pairs):
        seed = args.seed + i
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            run = run_once(trees[side], args.workload, args.seconds, seed)
            print(f"pair {i + 1} seed {seed} {side}: {run['error'] or 'ok'}", flush=True)
            if run["metrics"] is None:
                failures.append(f"pair {i + 1} {side}: {run['error']}")
            runs[side].append(run)

    complete = [i for i in range(args.pairs) if all(runs[side][i]["metrics"] for side in SIDES)]
    report = {"workload": args.workload, "pairs": args.pairs, "complete_pairs": len(complete),
              "seeds": [args.seed, args.seed + args.pairs - 1], "seconds": args.seconds,
              "runs": runs, "metrics": {}, "failures": failures}
    print(f"\n{args.workload}: {len(complete)} complete pairs of {args.pairs}, "
          f"seeds {args.seed}..{args.seed + args.pairs - 1}, {args.seconds:g} s per run")
    for name, lower in metrics.items():
        if not complete or any(name not in runs[side][i]["metrics"]
                               for side in SIDES for i in complete):
            print(f"{name}: not reported by every run")
            continue
        series = {side: [runs[side][i]["metrics"][name] for i in complete] for side in SIDES}
        record = report["metrics"][name] = {"better": "lower" if lower else "higher"}
        print(f"{name} ({record['better']} is better)")
        for side in SIDES:
            q1, q3 = quartiles(series[side])
            median = statistics.median(series[side])
            record[side] = {"runs": series[side], "median": median, "quartiles": [q1, q3]}
            print(f"  {side:6s} median {median:.6g}, "
                  f"quartiles {q1:.6g} {q3:.6g}; runs {' '.join(f'{v:.6g}' for v in series[side])}")
        v = record["verdict"] = verdict(series["parent"], series["change"], lower)
        print(f"  change wins {v['wins']}/{len(complete)}, median gap {v['gap']:.6g} "
              f"against parent IQR {v['parent_iqr']:.6g}: claim {'holds' if v['holds'] else 'fails'}")
    for failure in failures:
        print(f"FAILED {failure}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
