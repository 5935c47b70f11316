"""The public names other code relies on still resolve, and each is used.

perfbench/tracer.py times the library by swapping the functions it lists in
WRAPPED, and it skips a name it cannot find without a word, so a renamed or
deleted function would silently zero that layer's metrics. This test turns
that into a failure. The package also ships no public name, no public
method or property of a public class, and no dataclass field of one, that
only tests call or read: reference implementations live in tests/oracles.py.
A method or property counts as used only when code outside its own class
body reads it. Members and fields are still matched by name only, so one
that shares its name with a used member of another class passes.

Every public setting that reads a number or a count turns away a value of
another kind (a boolean, a string, NaN or infinity; a fraction for a count)
with the package's own error: one table lists each setting and its bad values.
"""

import ast
import dataclasses
import functools
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import gcnfuse

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


def _fgw_problem(trade_off):
    zero, one = np.zeros((1, 1)), np.ones(1)
    return gcnfuse.FgwProblem(structure_a=zero, structure_b=zero, feature_cost=zero,
                              trade_off=trade_off, alpha=one, beta=one)


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
        "epsilon": 0.1, name: v})) for name in ("epsilon", "rho_alpha", "rho_beta", "tol")],
    ("GeneratorSpec.edge_density", _generator),
    ("perturb_model scale", lambda v: gcnfuse.perturb_model(_twin(), v, 0)),
]
_COUNTS = [
    ("SinkhornParams.max_iters", lambda v: gcnfuse.SinkhornParams(epsilon=0.1, max_iters=v)),
    ("uniform_weights n", gcnfuse.uniform_weights),
    ("Dataset.feature_dim", lambda v: gcnfuse.Dataset(graphs=(), feature_dim=v)),
]
_PROBES = ([(name, call, bad) for name, call in _NUMBERS
            for bad in (True, "0.5", float("nan"), float("inf"))]
           + [(name, call, bad) for name, call in _COUNTS for bad in (2.5, True)])


@pytest.mark.parametrize("name, call, bad", _PROBES,
                         ids=[f"{name}={bad!r}" for name, _, bad in _PROBES])
def test_settings_reject_values_of_another_kind(name, call, bad):
    # a boolean, a string or a non-finite value is never read as a number, nor a fraction as
    # a count: each raises the package's own error, not Python's TypeError, and none passes
    with pytest.raises(gcnfuse.GcnFuseError):
        call(bad)
