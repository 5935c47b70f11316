import csv
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from gcnfuse import (WEIGHT, CostSpec, FusionConfig, GraphConv, MeanReadout, ModelFormatError,
                     NumericalError, ensemble_predict, evaluate_mae, fuse, load_dataset, load_model,
                     vanilla_fuse)
from gcnfuse import cli, fusion, models
from gcnfuse.cli import main


GEN_ARGS = ["--hidden", "6", "--gc-layers", "1", "--count", "40",
            "--max-vertices", "6", "--seed", "7"]
FIXTURE_FILES = ("model_a.json", "model_b.json", "permutations.json", "dataset.jsonl")


def run(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def parse_float(output: str, prefix: str) -> float:
    for line in output.splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix):])
    raise AssertionError(f"no line starting with {prefix!r} in:\n{output}")


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open() as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    result = run("gen-fixtures", "--out-dir", root / "fx", *GEN_ARGS)
    assert result.exit_code == 0, result.output
    return root


@pytest.fixture(scope="module")
def fx(workdir):
    d = workdir / "fx"
    return {"a": d / "model_a.json", "b": d / "model_b.json",
            "data": d / "dataset.jsonl", "perms": d / "permutations.json"}


class TestGenFixtures:
    def test_files_written_and_twins_match(self, workdir, fx):
        for name in FIXTURE_FILES:
            assert (workdir / "fx" / name).exists()
        model_a = load_model(fx["a"])
        model_b = load_model(fx["b"])
        assert [type(l).__name__ for l in model_a.layers] == \
               [type(l).__name__ for l in model_b.layers]
        perms = json.loads(fx["perms"].read_text())
        assert len(perms) == len(model_a.parameterized_indices()) - 1

    def test_reports_twin_gap(self, tmp_path):
        result = run("gen-fixtures", "--out-dir", tmp_path / "g", *GEN_ARGS)
        assert result.exit_code == 0
        gap = parse_float(result.output, "twin max |prediction difference| on 20 graphs: ")
        assert gap < 1e-9

    def test_same_seed_byte_identical(self, tmp_path):
        for d in ("one", "two"):
            result = run("gen-fixtures", "--out-dir", tmp_path / d, *GEN_ARGS)
            assert result.exit_code == 0, result.output
        for name in FIXTURE_FILES:
            assert (tmp_path / "one" / name).read_bytes() == \
                   (tmp_path / "two" / name).read_bytes()

    def test_noisy_twin_changes_only_model_b(self, tmp_path):
        result = run("gen-fixtures", "--out-dir", tmp_path / "exact", *GEN_ARGS)
        assert result.exit_code == 0, result.output
        for d in ("noisy", "noisy_again"):
            result = run("gen-fixtures", "--out-dir", tmp_path / d, *GEN_ARGS, "--noise", 0.1)
            assert result.exit_code == 0, result.output
            gap = parse_float(result.output, "twin max |prediction difference| on 20 graphs: ")
            assert gap > 0
        for name in FIXTURE_FILES:
            assert (tmp_path / "noisy" / name).read_bytes() == \
                   (tmp_path / "noisy_again" / name).read_bytes()
        for name in ("model_a.json", "dataset.jsonl"):
            assert (tmp_path / "noisy" / name).read_bytes() == \
                   (tmp_path / "exact" / name).read_bytes()
        assert (tmp_path / "noisy" / "model_b.json").read_bytes() != \
               (tmp_path / "exact" / "model_b.json").read_bytes()

    @pytest.mark.parametrize("flags", [
        ["--count", 0], ["--hidden", 0], ["--density", 2], ["--min-vertices", 0],
        ["--dense-layers", 0], ["--feature-dim", 0],
    ], ids=["count", "hidden", "density", "min-vertices", "dense-layers", "feature-dim"])
    def test_invalid_value_creates_no_directory(self, tmp_path, flags):
        out = tmp_path / "g"
        result = run("gen-fixtures", "--out-dir", out, *GEN_ARGS, *flags)
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)  # a clean exit, no traceback
        assert not out.exists()

    def test_mlp_mode_forces_single_vertex(self, tmp_path):
        result = run("gen-fixtures", "--out-dir", tmp_path / "m", "--arch", "mlp",
                     "--hidden", "5", "--count", "10", "--seed", "3")
        assert result.exit_code == 0, result.output
        model = load_model(tmp_path / "m" / "model_a.json")
        assert not any(isinstance(l, (GraphConv, MeanReadout)) for l in model.layers)
        data = load_dataset(tmp_path / "m" / "dataset.jsonl")
        assert all(g.num_vertices == 1 for g in data.graphs)


class TestFuseCommand:
    def test_missing_anchor_flag_is_usage_error(self, fx):
        result = run("fuse", "--a", fx["a"])
        assert result.exit_code == 2
        assert "--b" in result.output

    def test_twin_fusion_matches_anchor_mae(self, workdir, fx):
        out = workdir / "fused.json"
        trace = workdir / "trace.txt"
        result = run("fuse", "--a", fx["a"], "--b", fx["b"], "--data", fx["data"],
                     "--samples", 8, "--out", out, "--trace", trace)
        assert result.exit_code == 0, result.output
        fused_mae = parse_float(result.output, "fused MAE: ")
        eval_result = run("eval", "--model", fx["a"], "--data", fx["data"])
        anchor_mae = parse_float(eval_result.output, "MAE: ")
        assert abs(fused_mae - anchor_mae) < 1e-9
        assert load_model(out) is not None
        assert "plan" in trace.read_text()

    def test_self_fusion_mae_equals_model_mae(self, workdir, fx):
        out = workdir / "self_fused.json"
        result = run("fuse", "--a", fx["a"], "--b", fx["a"], "--data", fx["data"],
                     "--samples", 8, "--out", out)
        assert result.exit_code == 0, result.output
        fused_mae = parse_float(result.output, "fused MAE: ")
        model = load_model(fx["a"])
        assert abs(fused_mae - evaluate_mae(model, load_dataset(fx["data"]))) < 1e-12

    def test_weight_cost_needs_no_dataset(self, workdir, fx):
        out = workdir / "weight_fused.json"
        result = run("fuse", "--a", fx["a"], "--b", fx["b"], "--cost", "weight",
                     "--out", out)
        assert result.exit_code == 0, result.output
        assert "fused MAE" not in result.output  # nothing to evaluate against
        assert out.exists()

    def test_dump_costs_writes_layer_matrices(self, workdir, fx):
        dump = workdir / "costs"
        result = run("fuse", "--a", fx["a"], "--b", fx["b"], "--data", fx["data"],
                     "--samples", 4, "--out", workdir / "dump_fused.json",
                     "--dump-costs", dump)
        assert result.exit_code == 0, result.output
        files = sorted(dump.glob("layer_*_cost.csv"))
        assert len(files) == 3  # hidden layers only; the head has no cost matrix
        matrix = np.loadtxt(files[0], delimiter=",")
        assert matrix.shape == (6, 6)

    def test_dump_costs_is_a_view_of_the_fusion_run(self, workdir, fx, monkeypatch):
        capture, calls = models.forward_with_capture, []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return capture(*args, **kwargs)

        for module in (fusion, models):
            monkeypatch.setattr(module, "forward_with_capture", counted)
        dump = workdir / "view_costs"
        result = run("fuse", "--a", fx["a"], "--b", fx["b"], "--data", fx["data"],
                     "--samples", 4, "--out", workdir / "view_fused.json",
                     "--dump-costs", dump)
        assert result.exit_code == 0, result.output
        assert len(calls) == 2  # one capture per model; the dump recomputes nothing
        monkeypatch.undo()

        _, trace = fuse(load_model(fx["a"]), load_model(fx["b"]), load_dataset(fx["data"]),
                        FusionConfig(sample_size=4))
        costed = [t for t in trace.layers if not t.is_identity]
        assert sorted(f.name for f in dump.glob("*.csv")) == sorted(
            f"layer_{t.layer_index}_cost.csv" for t in costed)
        for t in costed:
            dumped = np.loadtxt(dump / f"layer_{t.layer_index}_cost.csv", delimiter=",")
            assert np.array_equal(dumped, t.cost)  # %.18e round-trips float64

    def test_config_file_sets_flags_and_cli_wins(self, workdir, fx, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"samples": 4, "out": str(tmp_path / "from_config.json")}))
        result = run("fuse", "--a", fx["a"], "--b", fx["b"], "--data", fx["data"],
                     "--config", config)
        assert result.exit_code == 0, result.output
        assert (tmp_path / "from_config.json").exists()

        explicit = tmp_path / "explicit.json"
        result = run("fuse", "--a", fx["a"], "--b", fx["b"], "--data", fx["data"],
                     "--config", config, "--out", explicit)
        assert result.exit_code == 0, result.output
        assert explicit.exists()

    def test_config_file_sets_every_value_like_flags(self, fx, tmp_path):
        values = {"solver": "sinkhorn", "cost": "qe", "lam": 0.3, "epsilon": 1e-4, "rho": 2.0,
                  "samples": 6, "capture": "pre_bn", "interpolation": 0.25, "seed": 3}
        outputs = {}
        for how in ("config", "flags"):
            out, trace = tmp_path / f"{how}.model.json", tmp_path / f"{how}.trace.txt"
            given = {"a": fx["a"], "b": fx["b"], "data": fx["data"], **values,
                     "out": out, "trace": trace}
            if how == "config":
                config = tmp_path / "run.json"
                config.write_text(json.dumps({k: str(v) if isinstance(v, Path) else v
                                              for k, v in given.items()}))
                result = run("fuse", "--config", config)
            else:
                result = run("fuse", *[a for k, v in given.items() for a in (f"--{k}", v)])
            assert result.exit_code == 0, result.output
            outputs[how] = out.read_bytes(), trace.read_text()
        assert outputs["config"] == outputs["flags"]
        assert "sinkhorn" in outputs["config"][1]

    @pytest.mark.parametrize("command, values, option", [
        ("fuse", {"samples": "8"}, None),  # acts like --samples 8
        ("fuse", {"samples": "abc"}, "--samples"),
        ("fuse", {"samples": 8.5}, "--samples"),  # not truncated to 8
        ("fuse", {"seed": 1.5}, "--seed"),
        ("grid", {"format": "xml"}, "--format"),
    ])
    def test_config_values_checked_like_flags(self, fx, tmp_path, command, values, option):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(values))
        out = tmp_path / "from_config.out"
        result = run(command, "--a", fx["a"], "--b", fx["b"], "--data", fx["data"],
                     "--config", config, "--out", out)
        if option is None:
            assert result.exit_code == 0, result.output
            flagged = tmp_path / "from_flag.out"
            result = run(command, "--a", fx["a"], "--b", fx["b"], "--data", fx["data"],
                         "--samples", 8, "--out", flagged)
            assert result.exit_code == 0, result.output
            assert out.read_bytes() == flagged.read_bytes()
        else:
            assert result.exit_code != 0
            assert isinstance(result.exception, SystemExit)  # a clean exit, no traceback
            assert f"'{option}'" in result.output
            assert not out.exists()

    def test_config_file_unknown_key_rejected(self, fx, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"no_such_flag": 1}))
        result = run("fuse", "--a", fx["a"], "--b", fx["b"], "--data", fx["data"],
                     "--config", config)
        assert result.exit_code == 1
        assert "no_such_flag" in result.output

    def test_config_file_must_be_object(self, fx, tmp_path):
        config = tmp_path / "list.json"
        config.write_text("[1, 2]")
        result = run("fuse", "--a", fx["a"], "--b", fx["b"], "--data", fx["data"],
                     "--config", config)
        assert result.exit_code == 1
        assert "JSON object" in result.output


@pytest.mark.parametrize("command, flags, config, option", [
    ("grid", ["--repeats", 0], None, "--repeats"),
    ("sweep-samples", ["--repeats", 0], None, "--repeats"),
    ("bn-compare", ["--repeats", -1], None, "--repeats"),
    ("grid", [], {"repeats": 0}, "--repeats"),
    ("sweep-samples", [], {"repeats": "-2"}, "--repeats"),
    ("gen-fixtures", ["--noise", -0.5], None, "--noise"),
    ("gen-fixtures", ["--noise", "nan"], None, "--noise"),
    ("gen-fixtures", ["--noise", "inf"], None, "--noise"),
], ids=["grid", "sweep-samples", "bn-compare", "grid-config", "sweep-samples-config",
        "gen-fixtures", "gen-fixtures-nan", "gen-fixtures-inf"])
def test_out_of_range_repeats_and_noise_rejected(fx, tmp_path, command, flags, config, option):
    out = tmp_path / "out"
    if command == "gen-fixtures":
        args = ["--out-dir", out, *GEN_ARGS]
    else:
        args = ["--a", fx["a"], "--b", fx["b"], "--data", fx["data"], "--out", out]
    if config is not None:
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        args += ["--config", config_path]
    result = run(command, *args, *flags)
    assert result.exit_code != 0
    assert isinstance(result.exception, SystemExit)  # a clean exit, no traceback
    assert f"'{option}'" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command, flags, config", [
    ("fuse", ["--seed", -1], None),
    ("grid", ["--seed", -1], None),
    ("gen-fixtures", ["--seed", -1], None),
    ("fuse", [], {"seed": -1}),
], ids=["fuse", "grid", "gen-fixtures", "fuse-config"])
def test_negative_seed_rejected(fx, tmp_path, command, flags, config):
    out = tmp_path / "out"
    if command == "gen-fixtures":
        args = ["--out-dir", out, *GEN_ARGS]
    else:
        args = ["--a", fx["a"], "--b", fx["b"], "--data", fx["data"], "--out", out]
    if config is not None:
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        args += ["--config", config_path]
    result = run(command, *args, *flags)
    assert result.exit_code != 0
    assert isinstance(result.exception, SystemExit)  # a clean exit, no traceback
    assert "Traceback" not in result.output
    assert "'--seed'" in result.output
    assert not out.exists()


@pytest.mark.parametrize("flags, option", [
    (["--samples", 4, "--fgw-samples", 0], "--fgw-samples"),
    (["--samples", 0], "--samples"),
], ids=["fgw-samples", "samples"])
def test_grid_rejects_sample_size_below_one_before_any_cell(fx, tmp_path, flags, option):
    # a bad FGW size must not cost the cells that run before the FGW column
    out = tmp_path / "grid.csv"
    result = run("grid", "--a", fx["a"], "--b", fx["b"], "--data", fx["data"],
                 "--repeats", 1, "--out", out, *flags)
    assert result.exit_code != 0
    assert isinstance(result.exception, SystemExit)  # a clean exit, no traceback
    assert f"'{option}'" in result.output
    assert ": ok" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("which", ["eval-data", "eval-model", "fuse-config"])
def test_undecodable_input_exits_cleanly(fx, tmp_path, which):
    bad = tmp_path / "utf16.bin"
    bad.write_bytes(b"\xff\xfe{\x00}\x00\n\x00")
    args = {"eval-data": ["eval", "--model", fx["a"], "--data", bad],
            "eval-model": ["eval", "--model", bad, "--data", fx["data"]],
            "fuse-config": ["fuse", "--a", fx["a"], "--b", fx["b"], "--data", fx["data"],
                            "--config", bad, "--out", tmp_path / "out"]}[which]
    result = run(*args)
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)  # a clean exit, no traceback
    assert "Traceback" not in result.output
    assert str(bad) in result.output


@pytest.mark.parametrize("command, flag", [
    ("fuse", "--out"), ("fuse", "--trace"), ("vanilla", "--out"), ("eval", "--out"),
    ("sweep-samples", "--out"),
], ids=["fuse-out", "fuse-trace", "vanilla", "eval", "sweep-samples"])
def test_output_in_missing_directory_exits_cleanly(fx, tmp_path, command, flag):
    missing = tmp_path / "nodir" / "out.txt"
    pair = ["--a", fx["a"], "--b", fx["b"]]
    args = {"fuse": [*pair, "--data", fx["data"], "--samples", 4,
                     "--out", tmp_path / "fused.json"],
            "vanilla": pair,
            "eval": ["--model", fx["a"], "--data", fx["data"]],
            "sweep-samples": [*pair, "--data", fx["data"], "--sizes", 2, "--repeats", 1]}[command]
    result = run(command, *args, flag, missing)
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)  # a clean exit, no traceback
    assert "Traceback" not in result.output
    assert str(missing) in result.output


@pytest.mark.parametrize("command, flag", [
    ("fuse", "--out"), ("fuse", "--trace"), ("fuse", "--dump-costs"), ("fuse", "config"),
    ("vanilla", "--out"), ("grid", "--out"), ("sweep-samples", "--out"), ("bn-compare", "--out"),
    ("eval", "--out"), ("ensemble", "--out"),
], ids=["fuse-out", "fuse-trace", "fuse-dump-costs", "fuse-config", "vanilla", "grid",
        "sweep-samples", "bn-compare", "eval", "ensemble"])
def test_missing_output_directory_stops_before_any_work(fx, tmp_path, monkeypatch, command, flag):
    # every command loads a model first, so no load means no cell ran and nothing was fused
    loaded, fused = [], []
    monkeypatch.setattr(cli, "load_model", lambda path: loaded.append(path) or load_model(path))
    monkeypatch.setattr(cli, "fuse", lambda *args: fused.append(args) or fuse(*args))
    missing = tmp_path / "nodir" / "out.txt"
    pair = ["--a", fx["a"], "--b", fx["b"], "--data", fx["data"]]
    args = {"fuse": [*pair, "--samples", 4, "--out", tmp_path / "fused.json"],
            "vanilla": pair,
            "grid": [*pair, "--samples", 4, "--fgw-samples", 1, "--repeats", 1],
            "sweep-samples": [*pair, "--sizes", 2, "--repeats", 1],
            "bn-compare": [*pair, "--samples", 4, "--repeats", 1],
            "eval": ["--model", fx["a"], "--data", fx["data"]],
            "ensemble": ["--model", fx["a"], "--model", fx["b"], "--data", fx["data"]]}[command]
    if flag == "config":
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"trace": str(missing)}))
        args += ["--config", config]
    else:
        args += [flag, missing]
    result = run(command, *args)
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)  # a clean exit, no traceback
    assert "Traceback" not in result.output
    assert str(missing) in result.output
    assert loaded == [] and fused == []
    assert sorted(p.name for p in tmp_path.iterdir()) == (["run.json"] if flag == "config" else [])


@pytest.mark.parametrize("args", [
    ("--solver", "sinkhorn", "--epsilon", "nan"), ("--solver", "sinkhorn", "--epsilon", "inf"),
    ("--solver", "sinkhorn", "--rho", "nan"), ("--solver", "sinkhorn", "--rho", "inf"),
    ("--solver", "emd", "--epsilon", "nan"),
], ids=["sinkhorn-epsilon-nan", "sinkhorn-epsilon-inf", "sinkhorn-rho-nan", "sinkhorn-rho-inf",
        "emd-epsilon-nan"])
def test_non_finite_sinkhorn_values_stop_before_fusing(fx, tmp_path, monkeypatch, args):
    fused = []
    monkeypatch.setattr(cli, "fuse", lambda *a: fused.append(a) or fuse(*a))
    result = run("fuse", "--a", fx["a"], "--b", fx["b"], "--data", fx["data"], "--samples", 4,
                 *args, "--out", tmp_path / "fused.json")
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)  # a clean exit, no traceback
    assert "Traceback" not in result.output
    assert "finite" in result.output
    assert fused == [] and not (tmp_path / "fused.json").exists()


def test_vanilla_on_unlabeled_data_stops_before_fusing(fx, tmp_path, monkeypatch):
    fused = []
    monkeypatch.setattr(cli, "vanilla_fuse", lambda *a: fused.append(a) or vanilla_fuse(*a))
    records = [json.loads(line) for line in Path(fx["data"]).read_text().splitlines()]
    data = tmp_path / "unlabeled.jsonl"
    data.write_text("".join(json.dumps({k: v for k, v in r.items() if k != "y"}) + "\n"
                            for r in records))
    result = run("vanilla", "--a", fx["a"], "--b", fx["b"], "--data", data,
                 "--out", tmp_path / "v.model.json")
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)  # a clean exit, no traceback
    assert "Traceback" not in result.output and "wrote" not in result.output
    assert "MAE evaluation needs a dataset where every graph has a target" in result.output
    assert fused == [] and not (tmp_path / "v.model.json").exists()



def _failure_args(fx, out):
    """Arguments that get each command as far as its first model load (or build)."""
    pair = ["--a", fx["a"], "--b", fx["b"], "--data", fx["data"]]
    return {"fuse": [*pair, "--samples", 4, "--out", out],
            "vanilla": [*pair, "--out", out],
            "grid": [*pair, "--repeats", 1, "--out", out],
            "sweep-samples": [*pair, "--sizes", 2, "--repeats", 1, "--out", out],
            "bn-compare": [*pair, "--samples", 4, "--repeats", 1, "--out", out],
            "gen-fixtures": ["--out-dir", out, *GEN_ARGS],
            "eval": ["--model", fx["a"], "--data", fx["data"], "--out", out],
            "ensemble": ["--model", fx["a"], "--model", fx["b"], "--data", fx["data"],
                         "--out", out]}


def test_pipeline_failure_cases_cover_every_command(fx, tmp_path):
    assert sorted(_failure_args(fx, tmp_path / "out")) == sorted(main.commands)


@pytest.mark.parametrize("command", sorted(main.commands))
def test_every_command_exits_cleanly_on_a_pipeline_failure(fx, tmp_path, monkeypatch, command):
    def fail(*args, **kwargs):
        raise ModelFormatError("planted model failure")
    monkeypatch.setattr(cli, "random_model" if command == "gen-fixtures" else "load_model", fail)
    out = tmp_path / "out"
    result = run(command, *_failure_args(fx, out)[command])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)  # a clean exit, no traceback
    assert "Traceback" not in result.output
    assert "Error: planted model failure" in result.output
    assert not out.exists()

class TestVanillaCommand:
    def test_identical_models_keep_their_mae(self, workdir, fx):
        out = workdir / "vanilla.json"
        result = run("vanilla", "--a", fx["a"], "--b", fx["a"], "--data", fx["data"],
                     "--out", out)
        assert result.exit_code == 0, result.output
        mae = parse_float(result.output, "vanilla MAE: ")
        model = load_model(fx["a"])
        assert mae == evaluate_mae(model, load_dataset(fx["data"]))
        assert out.exists()


@pytest.fixture(scope="module")
def grid_csv(workdir, fx):
    out = workdir / "grid.csv"
    result = run("grid", "--a", fx["a"], "--b", fx["b"], "--data", fx["data"],
                 "--samples", 6, "--fgw-samples", 2, "--repeats", 1, "--out", out)
    assert result.exit_code == 0, result.output
    return out


class TestGridCommand:
    def test_six_sorted_rows(self, grid_csv):
        header, rows = read_csv(grid_csv)
        assert header == ["solver", "cost", "epsilon", "lam", "samples", "repeats",
                          "mean_mae", "std_mae", "status"]
        assert [(r[0], r[1]) for r in rows] == [
            ("emd", "efd"), ("emd", "fgw"), ("emd", "qe"),
            ("sinkhorn", "efd"), ("sinkhorn", "fgw"), ("sinkhorn", "qe")]
        assert all(r[-1] == "ok" for r in rows)

    def test_emd_rows_recover_twin(self, grid_csv):
        _, rows = read_csv(grid_csv)
        for row in rows:
            if row[0] == "emd":
                assert float(row[6]) < 1e-6

    def test_single_repeat_reports_zero_std(self, grid_csv):
        _, rows = read_csv(grid_csv)
        assert {row[7] for row in rows} == {"0.0"}

    def test_rerun_is_byte_identical(self, workdir, fx, grid_csv):
        out = workdir / "grid_again.csv"
        result = run("grid", "--a", fx["a"], "--b", fx["b"], "--data", fx["data"],
                     "--samples", 6, "--fgw-samples", 2, "--repeats", 1, "--out", out)
        assert result.exit_code == 0, result.output
        assert out.read_bytes() == grid_csv.read_bytes()

    def test_json_format(self, workdir, fx):
        out = workdir / "grid.json"
        result = run("grid", "--a", fx["a"], "--b", fx["b"], "--data", fx["data"],
                     "--samples", 4, "--fgw-samples", 2, "--repeats", 1,
                     "--out", out, "--format", "json")
        assert result.exit_code == 0, result.output
        records = json.loads(out.read_text())
        assert len(records) == 6
        assert {r["solver"] for r in records} == {"emd", "sinkhorn"}

    def test_failed_cells_keep_their_rows(self, tmp_path):
        # 1000 samples exceed the 400 graphs, so only the 2-sample FGW cells run
        result = run("gen-fixtures", "--out-dir", tmp_path / "fx", "--seed", 0)
        assert result.exit_code == 0, result.output
        d, out = tmp_path / "fx", tmp_path / "grid.csv"
        result = run("grid", "--a", d / "model_a.json", "--b", d / "model_b.json",
                     "--data", d / "dataset.jsonl", "--samples", 1000, "--fgw-samples", 2,
                     "--repeats", 1, "--out", out)
        assert result.exit_code != 0
        assert isinstance(result.exception, SystemExit)
        assert ("grid cells failed: emd-efd, emd-qe, sinkhorn-efd, sinkhorn-qe"
                in result.output)
        # each failed cell's reason, before the summary
        summary = result.output.index("grid cells failed")
        for label in ("emd-efd", "emd-qe", "sinkhorn-efd", "sinkhorn-qe"):
            reason = result.output.find(f"{label}: sample_size must be in [1, 400], got 1000")
            assert 0 <= reason < summary
        _, rows = read_csv(out)
        assert len(rows) == 6
        assert sorted((r[0], r[1]) for r in rows if r[-1] == "failed") == [
            ("emd", "efd"), ("emd", "qe"), ("sinkhorn", "efd"), ("sinkhorn", "qe")]


class TestSweepSamplesCommand:
    def test_rows_sorted_by_size(self, workdir, fx):
        out = workdir / "sweep.csv"
        result = run("sweep-samples", "--a", fx["a"], "--b", fx["b"], "--data", fx["data"],
                     "--sizes", "8,2", "--repeats", 1, "--out", out)
        assert result.exit_code == 0, result.output
        header, rows = read_csv(out)
        assert header == ["sample_size", "repeats", "mean_mae", "std_mae", "status"]
        assert [r[0] for r in rows] == ["2", "8"]
        assert all(float(r[2]) < 1e-6 for r in rows)  # twin recovery at any size

    def test_zero_size_is_usage_error(self, fx):
        result = run("sweep-samples", "--a", fx["a"], "--b", fx["b"],
                     "--data", fx["data"], "--sizes", "0,8")
        assert result.exit_code == 2
        assert ">= 1" in result.output

    def test_non_integer_size_is_usage_error(self, fx):
        result = run("sweep-samples", "--a", fx["a"], "--b", fx["b"],
                     "--data", fx["data"], "--sizes", "4,abc")
        assert result.exit_code == 2
        assert "comma-separated integers" in result.output


class TestBnCompareCommand:
    def test_two_rows_sorted_by_capture_point(self, workdir, fx):
        out = workdir / "bn.csv"
        result = run("bn-compare", "--a", fx["a"], "--b", fx["b"], "--data", fx["data"],
                     "--samples", 8, "--repeats", 1, "--out", out)
        assert result.exit_code == 0, result.output
        header, rows = read_csv(out)
        assert header == ["capture_point", "repeats", "mean_mae", "std_mae", "status"]
        assert [r[0] for r in rows] == ["post_bn", "pre_bn"]
        assert all(float(r[2]) < 1e-6 for r in rows)  # both captures recover the twin

    def test_requires_batch_norm(self, tmp_path, fx):
        result = run("gen-fixtures", "--out-dir", tmp_path / "nobn", "--no-bn", *GEN_ARGS)
        assert result.exit_code == 0, result.output
        result = run("bn-compare", "--a", tmp_path / "nobn" / "model_a.json",
                     "--b", tmp_path / "nobn" / "model_b.json", "--data", fx["data"])
        assert result.exit_code == 1
        assert "no batch norm" in result.output


class TestEvalCommand:
    def test_teacher_labels_give_zero_mae(self, fx):
        result = run("eval", "--model", fx["a"], "--data", fx["data"])
        assert result.exit_code == 0, result.output
        assert parse_float(result.output, "MAE: ") == 0.0

    def test_csv_append(self, fx, tmp_path):
        out = tmp_path / "eval.csv"
        for _ in range(2):
            result = run("eval", "--model", fx["a"], "--data", fx["data"], "--out", out)
            assert result.exit_code == 0, result.output
        header, rows = read_csv(out)
        assert header == ["model", "dataset", "mae"]
        assert len(rows) == 2 and rows[0] == rows[1]


    def test_nan_model_exits_cleanly(self, fx, tmp_path):
        doc = json.loads(fx["a"].read_text())
        doc["layers"][0]["weight"][0][0] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(doc))
        result = run("eval", "--model", bad, "--data", fx["data"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # a clean exit, not a raised error
        assert "Error:" in result.output and "layer 0" in result.output

    def test_non_finite_dataset_exits_cleanly(self, fx, tmp_path):
        bad = tmp_path / "nan.jsonl"
        bad.write_text(json.dumps({"n": 1, "x": [[float("nan")] * 4], "y": 0.0}) + "\n")
        result = run("eval", "--model", fx["a"], "--data", bad)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # a clean exit, not a raised error
        assert "Error:" in result.output and "record 1" in result.output
        assert "MAE" not in result.output



class TestOverflowingModel:
    """Finite weights of 1e200 load, but overflow in the forward pass and in the weight cost."""

    @staticmethod
    def scaled(fx, path, scale):
        doc = json.loads(fx["a"].read_text())
        for layer in doc["layers"]:
            if "weight" in layer:
                layer["weight"] = (np.array(layer["weight"]) * scale).tolist()
        path.write_text(json.dumps(doc))
        return path

    @pytest.fixture
    def huge(self, fx, tmp_path):
        return self.scaled(fx, tmp_path / "huge.json", 1e200)

    @pytest.fixture(autouse=True)
    def warnings_fail(self):
        with warnings.catch_warnings():  # a RuntimeWarning is a failure too
            warnings.simplefilter("error")
            yield

    def test_library_calls_raise_naming_the_layer(self, huge, fx):
        model, anchor, dataset = load_model(huge), load_model(fx["b"]), load_dataset(fx["data"])
        with pytest.raises(NumericalError, match="model 'a', layer 1: overflow encountered"):
            evaluate_mae(model, dataset)
        fused = vanilla_fuse(model, anchor)
        with pytest.raises(NumericalError, match=r"model 'vanilla\(a,a\+perm\)', layer 1: overflow"):
            evaluate_mae(fused, dataset)
        with pytest.raises(NumericalError, match="model 'a', layer 1: overflow encountered"):
            fuse(model, anchor, dataset, FusionConfig(sample_size=4))
        with pytest.raises(NumericalError, match="layer 0: the weight cost holds NaN or infinite"):
            fuse(model, anchor, None, FusionConfig(cost=CostSpec(kind=WEIGHT)))

    def test_activation_cost_that_overflows_names_the_layer(self, fx, tmp_path):
        # weights of 1e60 keep every capture finite, but layer 3's squared differences overflow;
        # the cost build itself still warns as they do
        model = load_model(self.scaled(fx, tmp_path / "large.json", 1e60))
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(NumericalError, match="layer 3: the efd cost holds NaN or infinite"):
            fuse(model, load_model(fx["b"]), load_dataset(fx["data"]), FusionConfig(sample_size=4))

    @pytest.mark.parametrize("command, args, message", [
        ("eval", ["--model", "{huge}"], "model 'a', layer 1: overflow encountered in matmul"),
        ("vanilla", ["--a", "{huge}", "--b", "{b}", "--out", "{out}"],
         "model 'vanilla(a,a+perm)', layer 1: overflow encountered in matmul"),
        ("fuse", ["--a", "{huge}", "--b", "{b}", "--samples", "4", "--out", "{out}"],
         "model 'a', layer 1: overflow encountered in matmul"),
        ("fuse", ["--a", "{huge}", "--b", "{b}", "--cost", "weight", "--out", "{out}"],
         "layer 0: the weight cost holds NaN or infinite values"),
        ("grid", ["--a", "{huge}", "--b", "{b}", "--samples", "4", "--fgw-samples", "2",
                  "--repeats", "1", "--out", "{out}"],
         "emd-efd: model 'a', layer 1: overflow encountered in matmul"),
    ], ids=["eval", "vanilla", "fuse-efd", "fuse-weight", "grid"])
    def test_commands_exit_1_naming_the_layer(self, huge, fx, tmp_path, command, args, message):
        out = tmp_path / "out"
        args = [a.format(huge=huge, b=fx["b"], out=out) for a in args]
        result = run(command, *args, "--data", fx["data"])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)  # a clean exit, not a raised error
        assert message in result.output and "MAE" not in result.output
        if command == "vanilla":  # the model is written before it is evaluated
            assert load_model(out).name == "vanilla(a,a+perm)"

class TestEnsembleCommand:
    def test_single_member_equals_eval(self, fx):
        single = run("ensemble", "--model", fx["a"], "--data", fx["data"])
        assert single.exit_code == 0, single.output
        mae = parse_float(single.output, "ensemble MAE (1 models): ")
        plain = parse_float(run("eval", "--model", fx["a"], "--data", fx["data"]).output,
                            "MAE: ")
        assert mae == plain

    def test_two_members_recomputed(self, workdir, fx):
        other = workdir / "vanilla.json"
        if not other.exists():
            assert run("vanilla", "--a", fx["a"], "--b", fx["a"], "--data", fx["data"],
                       "--out", other).exit_code == 0
        result = run("ensemble", "--model", fx["a"], "--model", other,
                     "--data", fx["data"])
        assert result.exit_code == 0, result.output
        mae = parse_float(result.output, "ensemble MAE (2 models): ")
        models = [load_model(fx["a"]), load_model(other)]
        dataset = load_dataset(fx["data"])
        targets = np.array([g.target for g in dataset.graphs])
        expected = float(np.mean(np.abs(ensemble_predict(models, dataset.graphs) - targets)))
        assert mae == expected
