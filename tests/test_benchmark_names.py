"""The benchmark's tracer wraps package names by (module, attribute), and a
name it cannot find is reported absent with every metric built from it.
These tests read the tracer's name tables as literals, without importing or
editing perfbench/tracer.py, and check that the package still has them."""

import ast
import dataclasses
import importlib
import pathlib

from uncoupled import TargetDistribution

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_table(name):
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} assigns no {name}")


def test_every_wrapped_name_resolves():
    wrapped = _tracer_table("WRAPPED")
    assert wrapped
    missing = [
        f"{module}.{attr}"
        for _, module, attr in wrapped
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert not missing, f"the tracer wraps names the package lacks: {missing}"


def test_every_traced_marginal_callable_is_a_field():
    fields = {f.name for f in dataclasses.fields(TargetDistribution) if f.init}
    callables = _tracer_table("DIST_CALLABLES")
    assert callables
    assert set(callables) <= fields
