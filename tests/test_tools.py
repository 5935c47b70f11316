import subprocess
import sys
from pathlib import Path

import pytest

COMPARE = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"


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
