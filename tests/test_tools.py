import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
COMPARE = TOOLS / "compare_outputs.py"
BENCH_PAIRS = TOOLS / "bench_pairs.py"
SRC_LINES = TOOLS / "src_lines.py"


def compare(tmp_path, left: dict[str, str], right: dict[str, str]):
    """Write two output trees of {relative path: text} and run compare_outputs.py on them."""
    roots = []
    for side, files in (("one", left), ("two", right)):
        root = tmp_path / side
        root.mkdir()
        for name, text in files.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(text)
        roots.append(str(root))
    return subprocess.run([sys.executable, str(COMPARE), *roots], capture_output=True, text=True)


def test_identical_trees_pass(tmp_path):
    files = {"grid.csv": "solver,mean_mae\nemd,0.25\n", "console/grid.txt": "emd-efd: ok (1.23s)\n"}
    result = compare(tmp_path, files, files)
    assert result.returncode == 0, result.stdout
    assert result.stdout.splitlines() == ["console/grid.txt: identical", "grid.csv: identical"]


def test_console_wall_clock_seconds_are_skipped(tmp_path):
    result = compare(tmp_path, {"console/grid.txt": "emd-efd: ok (1.23s)\n"},
                     {"console/grid.txt": "emd-efd: ok (4.56s)\n"})
    assert result.returncode == 0, result.stdout
    assert "identical apart from wall-clock seconds" in result.stdout


@pytest.mark.parametrize("left, right, verdict", [
    ({"grid.csv": "mae\n0.25\n"}, {"grid.csv": "mae\n0.5\n"}, "largest relative difference"),
    ({"grid.csv": "mae\n1.0\n"}, {"grid.csv": "mae\n1.00\n"}, "written differently"),
    ({"grid.csv": "mae\n0.25\n", "sweep.csv": "mae\n"}, {"grid.csv": "mae\n0.25\n"}, "only in"),
    ({"grid.csv": "mae\n0.25\n"}, {"grid.csv": "mean\n0.25\n"}, "text differs"),
    # seconds count as text outside console/
    ({"trace.txt": "ok (1.23s)\n"}, {"trace.txt": "ok (4.56s)\n"}, "largest relative difference"),
], ids=["number", "written", "one-side", "text", "seconds-outside-console"])
def test_any_other_difference_fails(tmp_path, left, right, verdict):
    result = compare(tmp_path, left, right)
    assert result.returncode == 1, result.stdout
    assert verdict in result.stdout


def manifest_check(tmp_path, written: dict[str, str], run: dict[str, str]):
    """Write a manifest from one output tree, then check a second tree against it."""
    for side, files in (("written", written), ("run", run)):
        for name, text in files.items():
            (tmp_path / side / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / side / name).write_text(text)
    manifest = tmp_path / "cli_outputs.manifest"
    subprocess.run([sys.executable, str(COMPARE), "--write-manifest", str(manifest),
                    str(tmp_path / "written")], check=True)
    return subprocess.run([sys.executable, str(COMPARE), "--manifest", str(manifest),
                           str(tmp_path / "run")], capture_output=True, text=True)


MANIFEST_FILES = {"grid.csv": "solver,mean_mae\nemd,0.25\n",
                  "console/grid.txt": "emd-efd: ok (1.23s)\n"}


def test_manifest_passes_when_only_console_seconds_differ(tmp_path):
    result = manifest_check(tmp_path, MANIFEST_FILES,
                            {**MANIFEST_FILES, "console/grid.txt": "emd-efd: ok (45.06s)\n"})
    assert result.returncode == 0, result.stdout
    assert result.stdout.splitlines() == ["console/grid.txt: matches", "grid.csv: matches"]


@pytest.mark.parametrize("run, verdict", [
    ({**MANIFEST_FILES, "grid.csv": "solver,mean_mae\nemd,0.35\n"}, "grid.csv: differs"),
    ({**MANIFEST_FILES, "console/grid.txt": "emd-efd: ok (1.23s) \n"}, "console/grid.txt: differs"),
    ({"grid.csv": MANIFEST_FILES["grid.csv"]}, "console/grid.txt: missing from the run"),
    ({**MANIFEST_FILES, "sweep.csv": "mae\n"}, "sweep.csv: not in the manifest"),
], ids=["one-byte", "console-byte", "missing", "extra"])
def test_manifest_catches_any_other_difference(tmp_path, run, verdict):
    result = manifest_check(tmp_path, MANIFEST_FILES, run)
    assert result.returncode == 1, result.stdout
    assert verdict in result.stdout


# A stand-in for perfbench/run.py: it logs "<tree> <seed>" to ../order.log, prints a report
# line, then the JSON result with the metrics values.json holds for its seed.
FAKE_RUN = """\
import json, sys
from pathlib import Path
seed = sys.argv[sys.argv.index("--seed") + 1]
tree = Path.cwd()
with open(tree.parent / "order.log", "a") as log:
    log.write(f"{tree.name} {seed}\\n")
values = json.loads((tree / "values.json").read_text())[seed]
print("perfbench workload=fake")
print("machine " + json.dumps({"nproc": 2, "tree": tree.name}))
print(json.dumps({"correct": values.pop("correct", True), "attempted": 4, "failed": 0,
                  "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}))
"""
BENCHMARK = {"end_to_end": [{"name": "fuse_p50_s", "better": "lower"},
                            {"name": "jobs_per_s", "better": "higher"}]}


def bench_pairs(tmp_path, parent: dict, change: dict, pairs: int, *extra: str):
    """Run bench_pairs.py on two fake trees; parent and change map a seed to its metrics."""
    for name, values in (("parent", parent), ("change", change)):
        tree = tmp_path / name
        (tree / "perfbench").mkdir(parents=True)
        (tree / "perfbench" / "run.py").write_text(FAKE_RUN)
        (tree / "values.json").write_text(json.dumps({str(k): v for k, v in values.items()}))
        (tree / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    result = subprocess.run([sys.executable, str(BENCH_PAIRS), str(tmp_path / "parent"),
                             str(tmp_path / "change"), "--workload", "fake", "--pairs", str(pairs),
                             "--seconds", "1", "--seed", "100", *extra], capture_output=True,
                            text=True)
    return result, (tmp_path / "order.log").read_text().split("\n")[:-1]


def _parent_runs():
    """Ten pairs' parent metrics: fuse_p50_s has median 11 and quartiles 10.5 and 11.5."""
    return {100 + i: {"fuse_p50_s": 10.0 + 0.5 * (i % 5), "jobs_per_s": 5.0} for i in range(10)}


def test_pairs_alternate_and_a_clear_gain_is_claimed(tmp_path):
    parent = _parent_runs()
    change = {seed: {"fuse_p50_s": v["fuse_p50_s"] - 2.0, "jobs_per_s": 5.0}
              for seed, v in parent.items()}
    result, order = bench_pairs(tmp_path, parent, change, pairs=10)
    assert result.returncode == 0, result.stdout + result.stderr
    # the parent runs first in odd pairs, each pair on its own seed
    assert order[:6] == ["parent 100", "change 100", "change 101", "parent 101",
                         "parent 102", "change 102"]
    assert len(order) == 20
    out = result.stdout
    assert "parent median 11, quartiles 10.5 11.5; runs 10 10.5 11 11.5 12 10 10.5" in out
    assert "change median 9, quartiles 8.5 9.5" in out
    assert "change wins 10/10, median gap 2 against parent IQR 1: claim holds" in out
    # equal throughput in every pair: no wins and no claim
    assert "change wins 0/10, median gap 0 against parent IQR 0: claim fails" in out


@pytest.mark.parametrize("shift, lost, verdict", [
    (-0.5, 0, "change wins 10/10, median gap 0.5 against parent IQR 1: claim fails"),
    (-3.0, 2, "change wins 8/10, median gap 2.5 against parent IQR 1: claim fails"),
], ids=["gap-within-iqr", "too-few-wins"])
def test_a_gain_is_not_claimed_without_both_rules(tmp_path, shift, lost, verdict):
    parent = _parent_runs()
    change = {seed: {"fuse_p50_s": v["fuse_p50_s"] + (shift if i >= lost else 5.0),
                     "jobs_per_s": 5.0} for i, (seed, v) in enumerate(parent.items())}
    result, _ = bench_pairs(tmp_path, parent, change, pairs=10)
    assert result.returncode == 0, result.stdout + result.stderr
    assert verdict in result.stdout


def test_a_failed_run_fails_the_comparison(tmp_path):
    parent = {100: {"fuse_p50_s": 1.0, "jobs_per_s": 5.0}, 101: {"fuse_p50_s": 1.0, "jobs_per_s": 5.0}}
    change = {100: {"fuse_p50_s": 0.5, "jobs_per_s": 5.0},
              101: {"fuse_p50_s": 0.5, "jobs_per_s": 5.0, "correct": False}}
    result, order = bench_pairs(tmp_path, parent, change, pairs=2)
    assert result.returncode == 1
    assert len(order) == 4 and "FAILED pair 2 change" in result.stdout
    assert "1 complete pairs of 2" in result.stdout


def test_out_writes_the_report_as_json(tmp_path):
    parent = _parent_runs()
    change = {seed: {"fuse_p50_s": v["fuse_p50_s"] - 2.0, "jobs_per_s": 5.0}
              for seed, v in parent.items()}
    change[101]["correct"] = False
    out = tmp_path / "BENCH.json"
    result, _ = bench_pairs(tmp_path, parent, change, 10, "--out", str(out))
    assert result.returncode == 1
    report = json.loads(out.read_text())
    assert (report["workload"], report["pairs"], report["complete_pairs"]) == ("fake", 10, 9)
    assert report["seeds"] == [100, 109] and report["seconds"] == 1
    # each side's runs in pair order, each with its seed, metrics or error, and machine line
    for side in ("parent", "change"):
        runs = report["runs"][side]
        assert [run["seed"] for run in runs] == list(range(100, 110))
        assert all(run["machine"] == {"nproc": 2, "tree": side} for run in runs)
    assert report["runs"]["parent"][0]["metrics"] == {"fuse_p50_s": 10.0, "jobs_per_s": 5.0}
    failed = report["runs"]["change"][1]
    assert failed["metrics"] is None and failed["error"] == "exit 0, 0 of 4 failed"
    assert report["failures"] == ["pair 2 change: exit 0, 0 of 4 failed"]
    # the series and verdicts keep the complete pairs only, as the console report does
    fuse = report["metrics"]["fuse_p50_s"]
    assert fuse["better"] == "lower"
    assert fuse["parent"]["runs"] == [10.0, 11.0, 11.5, 12.0, 10.0, 10.5, 11.0, 11.5, 12.0]
    assert fuse["parent"]["median"] == 11.0 and fuse["parent"]["quartiles"] == [10.5, 11.5]
    assert fuse["change"]["median"] == 9.0
    assert fuse["verdict"] == {"wins": 9, "gap": 2.0, "parent_iqr": 1.0, "holds": True}
    assert report["metrics"]["jobs_per_s"]["verdict"]["holds"] is False
    assert "change wins 9/9, median gap 2 against parent IQR 1: claim holds" in result.stdout


def test_src_lines_counts_non_blank_lines_per_module(tmp_path):
    trees = {"parent": {"models.py": "a = 1\n\n   \nb = 2\n", "gone.py": "x = 0\n",
                        "sub/deep.py": "# a comment counts\n"},
             "change": {"models.py": "a = 1\nb = 2\nc = 3\n", "new.py": "\n\ny = 0\n",
                        "sub/deep.py": "# a comment counts\n"}}
    for side, files in trees.items():
        for name, text in files.items():
            path = tmp_path / side / "src" / "gcnfuse" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    result = subprocess.run([sys.executable, str(SRC_LINES), str(tmp_path / "parent"),
                             str(tmp_path / "change")], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    rows = [line.split() for line in result.stdout.splitlines()]
    assert rows == [["module", "parent", "change", "diff"],
                    ["gone.py", "1", "0", "-1"],
                    ["models.py", "2", "3", "+1"],
                    ["new.py", "0", "1", "+1"],
                    ["sub/deep.py", "1", "1", "+0"],
                    ["total", "4", "5", "+1"],
                    ["names", "in", "__all__", "0", "0", "+0"],
                    ["public", "dataclass", "fields", "0", "0", "+0"]]


KNOBS = """\
from dataclasses import dataclass
from typing import ClassVar


@dataclass(frozen=True)
class _Base:
    a: int
    b: int = 0


@dataclass
class Pub(_Base):
    c: int = 1
    limit: ClassVar[int] = 2

    def method(self):
        local: int = 3


class Plain:
    d: int


@dataclass
class _Private:
    e: int
"""


def test_src_lines_counts_public_names_and_dataclass_fields(tmp_path):
    # Pub has a, b (from _Base) and c; ClassVars, locals, plain and private classes do not count
    trees = {"parent": {"__init__.py": '__all__ = ["Pub", "load"]\n', "models.py": KNOBS},
             "change": {"__init__.py": '__all__ = ("Pub", "load", "Other")\n', "models.py": KNOBS,
                        "sub/more.py": "import dataclasses\n\n\n@dataclasses.dataclass(frozen=True)\n"
                                       "class Other:\n    f: float\n"}}
    for side, files in trees.items():
        for name, text in files.items():
            path = tmp_path / side / "src" / "gcnfuse" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    result = subprocess.run([sys.executable, str(SRC_LINES), str(tmp_path / "parent"),
                             str(tmp_path / "change")], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    rows = [line.split() for line in result.stdout.splitlines()]
    assert rows[-2:] == [["names", "in", "__all__", "2", "3", "+1"],
                         ["public", "dataclass", "fields", "3", "4", "+1"]]


def test_src_lines_rejects_a_tree_without_the_package(tmp_path):
    result = subprocess.run([sys.executable, str(SRC_LINES), str(tmp_path), str(tmp_path)],
                            capture_output=True, text=True)
    assert result.returncode == 1 and "no src/gcnfuse directory" in result.stderr
