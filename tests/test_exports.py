"""Every exported name exists, and every function the benchmark tracer wraps
by name still resolves."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import fermiqec

MODULES = [f"fermiqec.{info.name}" for info in pkgutil.iter_modules(fermiqec.__path__)]
SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for _, module, attr, _ in spans.TARGETS:
        owner = importlib.import_module(f"fermiqec.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(owner, cls_name, object))
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{module}.{attr}")
    assert not missing
