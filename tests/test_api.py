"""The public names other code relies on still resolve, and each is used.

perfbench/tracer.py times the library by swapping the functions it lists in
WRAPPED, and it skips a name it cannot find without a word, so a renamed or
deleted function would silently zero that layer's metrics. This test turns
that into a failure, and so for every gcnfuse name perfbench reads: a name
its workloads or runner call and cannot find fails only in the benchmark.
models, the network alone, imports nothing from ot or fusion, and the
models.permute_model the workloads call writes the bytes gcnfuse's does.
The package also ships no public name, no public method or property of a
public class, and no dataclass field of one, that only tests call or read:
reference implementations live in tests/oracles.py.
A method or property counts as used only when code outside its own class
body reads it. Members and fields are still matched by name only, so one
that shares its name with a used member of another class passes.

Every public setting that reads a number or a count turns away a value of
another kind (a boolean, a string, NaN or infinity; a fraction for a count)
with the package's own error, as does every array a constructor or solver reads
(a string, boolean or null entry; a bool, str or object ndarray) and every seed
(a fraction, a string, a boolean or a negative number): one table lists each
setting and its bad values. The valid value of each array row reads, given as
lists, as numpy scalars or as an ndarray, with the same bits. A second table
lists every bounded setting: each takes its bounds and turns away the value
just past them with one message, "{what} must be in [least, most], got x" (or
">= least", "<= most"), which shows x as read: an np.float64 as a float.
"""

import ast
import dataclasses
import functools
import importlib.util
import inspect
import json
import re
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest

import gcnfuse
from gcnfuse import fusion, models

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.WRAPPED


@pytest.mark.parametrize("home, attr", [(home, attr) for home, attr, *_ in _wrapped()],
                         ids=lambda v: getattr(v, "__name__", v))
def test_traced_function_exists(home, attr):
    assert callable(getattr(home, attr, None)), f"{home.__name__}.{attr} is gone"


def test_all_names_resolve():
    missing = [name for name in gcnfuse.__all__ if not hasattr(gcnfuse, name)]
    assert missing == []


def _benchmark_reads() -> list[tuple[str, object, str, str]]:
    """(where, home, how it is named, name) for each gcnfuse name perfbench reads outside its
    tests: every `from gcnfuse import X`, and every M.attr of a gcnfuse module M imported there."""
    reads = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        if path.name.startswith("test_"):
            continue
        nodes = list(ast.walk(ast.parse(path.read_text(), filename=str(path))))
        imported = [(node.lineno, alias) for node in nodes
                    if isinstance(node, ast.ImportFrom) and node.module == "gcnfuse"
                    for alias in node.names]
        modules = {alias.asname or alias.name: getattr(gcnfuse, alias.name) for _, alias in imported
                   if isinstance(getattr(gcnfuse, alias.name, None), types.ModuleType)}
        reads += [(f"{path.name}:{line}", gcnfuse, "gcnfuse", alias.name) for line, alias in imported]
        reads += [(f"{path.name}:{node.lineno}", modules[node.value.id], node.value.id, node.attr)
                  for node in nodes if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name) and node.value.id in modules]
    return reads


def test_every_name_the_benchmark_reads_resolves():
    reads = _benchmark_reads()
    assert reads
    missing = [f"{where}: {named}.{name}" for where, home, named, name in reads
               if not hasattr(home, name)]
    assert missing == []


def test_models_imports_nothing_from_ot_or_fusion():
    tree = ast.parse((ROOT / "src" / "gcnfuse" / "models.py").read_text())
    names = set()
    for node in tree.body:  # module level only: a function body may import fusion
        if isinstance(node, ast.ImportFrom):
            names |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
    assert sorted(n for n in names if n.removeprefix("gcnfuse.") in ("ot", "fusion")) == []


def test_models_permute_model_writes_the_bytes_of_the_package_one(tmp_path):
    assert gcnfuse.permute_model is fusion.permute_model
    model = gcnfuse.random_model(gcnfuse.ArchSpec(feature_dim=3, hidden_dim=4, gc_layers=1,
                                                  dense_layers=2, batch_norm=True), seed=0)
    rng = np.random.default_rng(1)
    perms = [rng.permutation(4) for _ in model.parameterized_indices()[:-1]]
    for name, permute in (("models", models.permute_model), ("package", gcnfuse.permute_model)):
        gcnfuse.save_model(permute(model, perms), tmp_path / f"{name}.json")
    assert (tmp_path / "models.json").read_bytes() == (tmp_path / "package.json").read_bytes()


def _sources_outside_tests() -> list[Path]:
    """The package modules and perfbench, tests left out."""
    package = ROOT / "src" / "gcnfuse"
    sources = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    sources += [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]
    return sources


def _nodes_outside_tests():
    """Every ast node of the package modules and of perfbench, tests left out."""
    for path in _sources_outside_tests():
        yield from ast.walk(ast.parse(path.read_text(), filename=str(path)))


def _reads_with_enclosing_class() -> set[tuple[Path, str | None, str]]:
    """(source path, enclosing class name or None, name) for every name and attribute read."""
    reads = set()

    def visit(node, path, owner):
        if isinstance(node, ast.Name):
            reads.add((path, owner, node.id))
        elif isinstance(node, ast.Attribute):
            reads.add((path, owner, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, path, node.name if isinstance(node, ast.ClassDef) else owner)

    for path in _sources_outside_tests():
        visit(ast.parse(path.read_text(), filename=str(path)), path, None)
    return reads


def _names_used_outside_tests() -> set[str]:
    """Every name and attribute name the package modules and perfbench read."""
    return {name for _, _, name in _reads_with_enclosing_class()}


def test_every_public_name_is_used_outside_tests():
    used = _names_used_outside_tests()
    assert sorted(set(gcnfuse.__all__) - used) == []


def test_every_public_member_is_used_outside_tests():
    reads = _reads_with_enclosing_class()

    def used_outside_own_class(cls, attr):
        home = (Path(inspect.getsourcefile(cls)).resolve(), cls.__name__)
        return any(read == attr and (path, owner) != home for path, owner, read in reads)

    members = (property, functools.cached_property, staticmethod, classmethod)
    unused = [
        f"{name}.{attr}"
        for name in gcnfuse.__all__ if inspect.isclass(cls := getattr(gcnfuse, name))
        for attr, value in vars(cls).items()
        if not attr.startswith("_") and (inspect.isfunction(value) or isinstance(value, members))
        and not used_outside_own_class(cls, attr)
    ]
    assert sorted(unused) == []


def test_every_public_field_is_read_outside_tests():
    # a field counts only when read as an attribute; a constructor keyword does not
    read = {node.attr for node in _nodes_outside_tests() if isinstance(node, ast.Attribute)}
    unread = [
        f"{name}.{f.name}"
        for name in gcnfuse.__all__
        if inspect.isclass(cls := getattr(gcnfuse, name)) and dataclasses.is_dataclass(cls)
        for f in dataclasses.fields(cls) if f.name not in read
    ]
    assert sorted(unread) == []


def _twin():
    return gcnfuse.random_model(gcnfuse.ArchSpec(feature_dim=2, hidden_dim=3, gc_layers=0,
                                                 dense_layers=2), seed=0)


def _fgw_problem(trade_off, **arrays):
    zero, one = np.zeros((1, 1)), np.ones(1)
    return gcnfuse.FgwProblem(**{"structure_a": zero, "structure_b": zero, "feature_cost": zero,
                                 "trade_off": trade_off, "alpha": one, "beta": one, **arrays})


def _generator(edge_density):
    return gcnfuse.GeneratorSpec(count=2, min_vertices=3, max_vertices=3,
                                 edge_density=edge_density, feature_dim=1)


# (setting, a call that passes the value to it) for every number a setting reads
_NUMBERS = [
    ("CostSpec.lam", lambda v: gcnfuse.CostSpec(kind=gcnfuse.EFD, lam=v)),
    ("FgwCostSpec.trade_off", lambda v: gcnfuse.FgwCostSpec(trade_off=v)),
    ("FgwProblem.trade_off", _fgw_problem),
    ("FusionConfig.interpolation", lambda v: gcnfuse.FusionConfig(interpolation=v)),
    ("vanilla_fuse interpolation", lambda v: gcnfuse.vanilla_fuse(_twin(), _twin(), v)),
    *[(f"SinkhornParams.{name}", lambda v, name=name: gcnfuse.SinkhornParams(**{
        "epsilon": 0.1, name: v})) for name in ("epsilon", "rho_alpha", "rho_beta")],
    ("GeneratorSpec.edge_density", _generator),
    ("perturb_model scale", lambda v: gcnfuse.perturb_model(_twin(), v, 0)),
]
_COUNTS = [
    ("uniform_weights n", gcnfuse.uniform_weights),
    ("Dataset.feature_dim", lambda v: gcnfuse.Dataset(graphs=(), feature_dim=v)),
]
# (function, a call that passes the seed to it) for every public function that draws from a seed
_SEEDS = [
    ("synthesize_dataset seed", lambda v: gcnfuse.synthesize_dataset(_generator(0.5), v)),
    ("random_model seed", lambda v: gcnfuse.random_model(
        gcnfuse.ArchSpec(feature_dim=2, hidden_dim=3, gc_layers=0, dense_layers=2), v)),
    ("perturb_model seed", lambda v: gcnfuse.perturb_model(_twin(), 0.1, v)),
    ("sample_batch seed", lambda v: gcnfuse.sample_batch(
        gcnfuse.synthesize_dataset(_generator(0.5), 0), 1, v)),
]
_EYE = [[1.0, 0.0], [0.0, 1.0]]
_HALF_EYE = gcnfuse.TransportPlan(coupling=np.eye(2) / 2, objective=0.0)
# (array, a call that passes the array to it, a valid value as nested lists)
_ARRAYS = [
    ("DenseParams.weight", lambda v: gcnfuse.DenseParams(weight=v), [[0.5, 1.0]]),
    ("BatchNormParams.gamma", lambda v: gcnfuse.BatchNormParams(
        gamma=v, beta_shift=[0.0, 0.0], running_mean=[0.0, 0.0], running_var=[1.0, 1.0]), [1.0, 0.5]),
    ("Graph.features", lambda v: gcnfuse.Graph(num_vertices=2, edges=[(0, 1)], features=v),
     [[1.5], [0.5]]),
    ("emd alpha", lambda v: gcnfuse.emd(v, [0.5, 0.5], _EYE), [0.0, 1.0]),
    ("emd beta", lambda v: gcnfuse.emd([0.5, 0.5], v, _EYE), [0.0, 1.0]),
    ("emd cost", lambda v: gcnfuse.emd([0.5, 0.5], [0.5, 0.5], v), _EYE),
    ("sinkhorn_unbalanced alpha", lambda v: gcnfuse.sinkhorn_unbalanced(
        v, [0.5, 0.5], _EYE, gcnfuse.SinkhornParams(epsilon=0.1)), [1.0, 1.0]),
    ("FgwProblem.structure_a", lambda v: _fgw_problem(0.5, structure_a=v), [[0.0]]),
    ("FgwProblem.feature_cost", lambda v: _fgw_problem(0.5, feature_cost=v), [[0.25]]),
    ("TransportPlan.marginal_error alpha", lambda v: _HALF_EYE.marginal_error(v, [0.5, 0.5]),
     [0.5, 0.5]),
    ("TransportPlan.marginal_error beta", lambda v: _HALF_EYE.marginal_error([0.5, 0.5], v),
     [0.5, 0.5]),
]


def _spoiled(rows, entry):
    """rows (nested lists) with its last entry replaced by entry."""
    return rows[:-1] + [_spoiled(rows[-1], entry) if isinstance(rows[-1], list) else entry]


_PROBES = ([(name, call, bad) for name, call in _NUMBERS
            for bad in (True, "0.5", float("nan"), float("inf"))]
           + [(name, call, bad) for name, call in _COUNTS for bad in (2.5, True)]
           + [("Dataset.feature_dim", _COUNTS[-1][1], bad) for bad in (0, -3)]
           + [(name, call, bad) for name, call in _SEEDS for bad in (2.5, "3", True, -1)]
           + [(f"{name} entry", lambda v, call=call, good=good: call(_spoiled(good, v)), bad)
              for name, call, good in _ARRAYS for bad in ("2.5", True, None)]
           + [(f"{name} dtype", lambda v, call=call, good=good: call(np.array(good).astype(v)), bad)
              for name, call, good in _ARRAYS for bad in ("bool", "str", "object")])


@pytest.mark.parametrize("name, call, bad", _PROBES,
                         ids=[f"{name}={bad!r}" for name, _, bad in _PROBES])
def test_settings_reject_values_of_another_kind(name, call, bad):
    # a boolean, a string or a non-finite value is never read as a number, nor a fraction as
    # a count: each raises the package's own error, not Python's TypeError, and none passes
    with pytest.raises(gcnfuse.GcnFuseError):
        call(bad)


@pytest.mark.parametrize("name, call, good", _ARRAYS, ids=[name for name, _, _ in _ARRAYS])
def test_array_rows_take_their_valid_value(name, call, good):
    # so each array row above fails on its spoiled entry or its dtype alone
    call(good)
    call(np.array(good))


_NUMERIC = {
    "floats": [[0.5, 2.0], [-1.0, 3.0]],
    "numpy-scalars": [[np.float64(0.5), np.int64(2)], [np.float64(-1.0), np.int64(3)]],
    "tuples": ((0.5, 2), (np.float32(-1.0), 3.0)),
    "ndarray-row": [np.array([0.5, 2.0]), (-1, 3.0)],
    "float64": np.array([[0.5, 2.0], [-1.0, 3.0]]),
    "int32": np.array([[1, 2], [-1, 3]], dtype=np.int32),
    "fortran": np.asfortranarray([[0.5, 2.0], [-1.0, 3.0]]),
}


@pytest.mark.parametrize("given", _NUMERIC.values(), ids=_NUMERIC.keys())
def test_arrays_of_numbers_read_as_np_array_reads_them(given):
    want = np.array(given, dtype=np.float64)
    for read in (gcnfuse.DenseParams(weight=given).weight,
                 gcnfuse.Graph(num_vertices=2, edges=(), features=given).features):
        assert read.shape == want.shape and read.tobytes() == want.tobytes()
        assert not read.flags.writeable and not np.shares_memory(read, given)


def _atom_dataset(index):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "atoms.jsonl"
        path.write_text('{"vocab": 3}\n' + json.dumps({"n": 1, "atom": [index], "y": 0.0}) + "\n")
        return gcnfuse.load_dataset(path)


def _arch(**fields):
    return gcnfuse.ArchSpec(**{"feature_dim": 2, "hidden_dim": 3, "gc_layers": 0, "dense_layers": 2,
                               **fields})


def _spec(**fields):
    return gcnfuse.GeneratorSpec(**{"count": 2, "min_vertices": 3, "max_vertices": 3,
                                    "edge_density": 0.5, "feature_dim": 1, **fields})


# (setting, a call that passes the value to it, its rule as the message states it, least, most,
# the type the value is given as) for every bounded setting; None leaves that end open
_BOUNDED = [
    ("CostSpec.lam", lambda v: gcnfuse.CostSpec(kind=gcnfuse.EFD, lam=v), "lam must be in [0, 1]",
     0, 1, float),
    ("FgwCostSpec.trade_off", lambda v: gcnfuse.FgwCostSpec(trade_off=v),
     "trade_off must be in [0, 1]", 0, 1, float),
    ("FgwProblem.trade_off", _fgw_problem, "trade_off must be in [0, 1]", 0, 1, float),
    ("FusionConfig.interpolation", lambda v: gcnfuse.FusionConfig(interpolation=v),
     "interpolation must be in [0, 1]", 0, 1, np.float64),
    ("vanilla_fuse interpolation", lambda v: gcnfuse.vanilla_fuse(_twin(), _twin(), v),
     "interpolation must be in [0, 1]", 0, 1, float),
    ("GeneratorSpec.edge_density", _generator, "edge_density must be in [0, 1]", 0, 1, float),
    ("BatchNormParams.epsilon", lambda v: gcnfuse.BatchNormParams(
        gamma=[1.0], beta_shift=[0.0], running_mean=[0.0], running_var=[1.0], epsilon=v),
     "batch-norm epsilon must be >= 0", 0, None, float),
    ("perturb_model scale", lambda v: gcnfuse.perturb_model(_twin(), v, 0),
     "noise scale must be >= 0", 0, None, float),
    ("uniform_weights n", gcnfuse.uniform_weights, "histogram size must be >= 1", 1, None, int),
    ("Dataset.feature_dim", lambda v: gcnfuse.Dataset(graphs=(), feature_dim=v),
     "feature_dim must be >= 1", 1, None, int),
    ("Graph.num_vertices", lambda v: gcnfuse.Graph(num_vertices=v, edges=(), features=[[0.0]]),
     "num_vertices must be >= 1", 1, None, int),
    ("Graph edge endpoint", lambda v: gcnfuse.Graph(num_vertices=3, edges=[(v, 1)],
                                                    features=[[0.0]] * 3),
     "edge endpoint must be in [0, 2]", 0, 2, int),
    ("load_dataset atom index", _atom_dataset, "atom index must be in [0, 2]", 0, 2, int),
    ("FusionConfig.sample_size", lambda v: gcnfuse.FusionConfig(sample_size=v),
     "sample_size must be >= 1", 1, None, int),
    ("FusionConfig.seed", lambda v: gcnfuse.FusionConfig(seed=v), "seed must be >= 0", 0, None, int),
    ("sample_batch sample_size", lambda v: gcnfuse.sample_batch(
        gcnfuse.synthesize_dataset(_spec(), 0), v, 0), "sample_size must be in [1, 2]", 1, 2, int),
    *[(f"GeneratorSpec.{name}", lambda v, name=name: _spec(**{name: v}), f"{name} must be >= 1",
       1, None, int) for name in ("count", "feature_dim")],
    ("GeneratorSpec.min_vertices", lambda v: _spec(min_vertices=v),
     "min_vertices must be >= 1", 1, None, int),
    ("GeneratorSpec.max_vertices", lambda v: _spec(max_vertices=v),
     "max_vertices must be >= 3", 3, None, int),  # min_vertices is 3
    *[(f"ArchSpec.{name}", lambda v, name=name: _arch(**{name: v}), f"{name} must be >= {least}",
       least, None, int)
      for name, least in (("feature_dim", 1), ("hidden_dim", 1), ("gc_layers", 0), ("dense_layers", 1))],
    *[(name, call, "seed must be >= 0", 0, None, np.int64 if name == "random_model seed" else int)
      for name, call in _SEEDS],
]


def _past(bound, kind, away: int):
    """The value of type kind next past bound, away (-1 or 1) from the range."""
    if kind in (int, np.int64):
        return kind(bound + away)
    return kind(np.nextafter(float(bound), away * np.inf))


@pytest.mark.parametrize("name, call, rule, least, most, kind", _BOUNDED,
                         ids=[row[0] for row in _BOUNDED])
def test_bounded_settings_take_their_bounds_and_nothing_past(name, call, rule, least, most, kind):
    for bound, away in ((least, -1), (most, 1)):
        if bound is None:
            continue
        call(kind(bound))
        past = _past(bound, kind, away)
        shown = repr(float(past) if isinstance(past, float) else int(past))  # as read, not as given
        with pytest.raises(gcnfuse.GcnFuseError, match=f"{re.escape(rule)}, got {re.escape(shown)}$"):
            call(past)
