"""Self-tests of the benchmark itself.

    python -m pytest perfbench

They check that inputs are reproducible from the seed, that the correctness
gate passes on more than one seed, that tracing changes no output, that the
per-layer counts repeat exactly, and that the command meets its output
contract, including failing cleanly without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from tracer import Tracer, fuse_accounting_error, job_breakdown  # noqa: E402
from workloads import INPUT_FILES, WORKLOADS, gate, load_inputs, write_inputs  # noqa: E402

COUNTED = ("models.capture", "costs.build", "costs.weight", "ot.emd", "ot.fgw", "ot.sinkhorn")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Input files per (workload hidden width, seed), written once per module."""
    made = {}

    def get(name, seed):
        hidden = WORKLOADS[name].hidden
        if (hidden, seed) not in made:
            out = tmp_path_factory.mktemp(f"h{hidden}-s{seed}")
            write_inputs(WORKLOADS[name], seed, out)
            made[hidden, seed] = out
        return made[hidden, seed]

    return get


@pytest.mark.parametrize("name", ["emd-small", "emd-wide"])
def test_one_seed_gives_byte_identical_inputs(name, inputs, tmp_path):
    again = tmp_path / "again"
    write_inputs(WORKLOADS[name], 3, again)
    first = inputs(name, 3)
    for file in INPUT_FILES:
        assert (again / file).read_bytes() == (first / file).read_bytes(), file
    other = tmp_path / "other"
    write_inputs(WORKLOADS[name], 4, other)
    assert (other / "model_b.json").read_bytes() != (first / "model_b.json").read_bytes()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_gate_passes_on_two_seeds(name, seed, inputs):
    failures = gate(WORKLOADS[name], inputs(name, seed))
    assert set(failures) == {c.cost for c in WORKLOADS[name].cells}
    assert not any(failures.values()), failures


def _traced_cycle(name, in_dir):
    """One job per cell, untraced and traced; returns the job pairs and tracer."""
    workload = WORKLOADS[name]
    model_a, model_b, dataset = load_inputs(in_dir)
    tracer = Tracer()
    pairs = []
    for index, cell in enumerate(workload.cells):
        plain = run.run_job(index, cell, model_a, model_b, dataset)
        tracer.job = index
        with tracer.installed():
            traced = run.run_job(index, cell, model_a, model_b, dataset)
        tracer.job = None
        assert plain.failures == [] and traced.failures == []
        pairs.append((plain, traced))
    return pairs, tracer


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_changes_no_output(name, inputs, tmp_path):
    pairs, tracer = _traced_cycle(name, inputs(name, 1))
    for plain, traced in pairs:
        assert traced.report == plain.report
        assert (run._saved_bytes(traced.fused, tmp_path / "t.json")
                == run._saved_bytes(plain.fused, tmp_path / "p.json"))
    assert fuse_accounting_error(tracer.spans) < 1e-9
    names = {span[0] for span in tracer.spans}
    assert {"fusion.fuse", "models.eval", "fusion.align"} <= names


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_exactly(name, inputs, tmp_path):
    write_inputs(WORKLOADS[name], 1, tmp_path)
    counts = []
    for in_dir in (inputs(name, 1), tmp_path):
        _, tracer = _traced_cycle(name, in_dir)
        jobs = job_breakdown(tracer.spans)
        counts.append({
            (job, n): (rec["calls"][n], rec["work"][n], rec["emd_in_fgw"])
            for job, rec in jobs.items() for n in COUNTED
        })
    assert counts[0] == counts[1]
    assert any(calls for calls, _, _ in counts[0].values())


def test_gate_rejects_a_wrong_permutation(inputs, tmp_path):
    src = inputs("emd-small", 1)
    for file in INPUT_FILES:
        shutil.copy(src / file, tmp_path / file)
    perms = json.loads((tmp_path / "permutations.json").read_text())
    perms[1][0], perms[1][1] = perms[1][1], perms[1][0]
    (tmp_path / "permutations.json").write_text(json.dumps(perms))
    failures = gate(WORKLOADS["emd-small"], tmp_path)
    assert len(failures) == 3
    assert all("layer 1 plan is not the planted permutation" in f for f in failures.values())


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_declared_metrics(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "emd-small", "--seed", "2",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = _declared()[trace]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert "machine {" in proc.stdout


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "emd-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
