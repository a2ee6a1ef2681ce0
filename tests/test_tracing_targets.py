"""The benchmark's tracer wraps wasslab functions by name; each name must stay."""

import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_function_resolves_in_wasslab():
    # run_path compiles the source in memory, so nothing is written next to it
    traced = runpy.run_path(str(TRACING))["TRACED"]
    assert traced
    for module, function in traced:
        assert callable(getattr(importlib.import_module(f"wasslab.{module}"), function, None)), \
            f"perfbench traces wasslab.{module}.{function}, which does not exist"
