"""The functions the benchmark under ``perfbench/`` traces must exist.

The benchmark wraps each traced ``module.function`` in place and fails
its run when one is missing or is no longer a plain function of its
module.  This suite does not collect ``perfbench/``'s own tests, so
this reads its names (without changing anything there) and checks
each against the package.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look up their module while the file runs.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def traced_names():
    names = set(load_perfbench("tracer").TRACED)
    for workload in load_perfbench("workloads").WORKLOADS.values():
        names.update(workload.expected_calls)
    return sorted(names)


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_is_a_plain_function_of_its_module(name):
    module_name, func_name = name.split(".")
    module = importlib.import_module(f"tetrablock.{module_name}")
    func = getattr(module, func_name, None)
    assert inspect.isfunction(func), name
    assert func.__module__ == module.__name__, name
