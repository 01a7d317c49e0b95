"""Every name that perfbench/tracer.py patches resolves in bentforge.

The tracer wraps functions by (module, attribute) with getattr, so a source
change that drops or renames one breaks `perfbench/run.py --trace 1`; this
test makes it fail here instead.  tracer.py is parsed, not imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_tables() -> dict[str, list[tuple]]:
    tables = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("CALLS", "GENERATORS", "SWEEPS"):
                tables[name] = ast.literal_eval(node.value)
    return tables


TABLES = tracer_tables()


def test_tracer_tables_are_found():
    assert sorted(TABLES) == ["CALLS", "GENERATORS", "SWEEPS"]
    assert all(TABLES.values())


def resolve(module: str, attr: str):
    return getattr(importlib.import_module(f"bentforge.{module}"), attr)


@pytest.mark.parametrize("module,attr", [row[:2] for row in TABLES["CALLS"]])
def test_traced_call_resolves(module, attr):
    assert callable(resolve(module, attr))


@pytest.mark.parametrize("module,attr", [row[:2] for row in TABLES["GENERATORS"]])
def test_traced_generator_resolves(module, attr):
    assert inspect.isgeneratorfunction(resolve(module, attr))


@pytest.mark.parametrize("module,attr", TABLES["SWEEPS"])
def test_traced_sweep_takes_the_tracer_keywords(module, attr):
    # Tracer.wrap_sweep calls fn(f, jobs=..., resume=..., progress=...)
    inspect.signature(resolve(module, attr)).bind(None, jobs=1, resume=None, progress=None)
