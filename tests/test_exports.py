"""Every exported name exists, is exported by its own module only (the
package binds no second list), and is used outside its module's exports.
Every function and method in ``src/`` is read, and every parameter default
and record field default is overridden in some call, by code in ``src/``
or ``bench/``: an option that only tests set has no caller.  Calls match a
def by name, so no name in ``src/`` is both a method and a function, and
only ``x.name(...)`` calls count for a method.  Every function the
benchmark tracer wraps by name still resolves, and an exchange run still
calls what it wraps.  No module in ``src/`` takes a private name from
another."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import fermiqec
from fermiqec import harness
from fermiqec.harness import ExperimentConfig, run_experiment

MODULES = [f"fermiqec.{info.name}" for info in pkgutil.iter_modules(fermiqec.__path__)]
ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"
SOURCES = sorted((ROOT / "src" / "fermiqec").glob("*.py"))
# the package binds only __version__, so every source file is a possible user
USERS = [*SOURCES, *sorted((ROOT / "bench").glob("*.py"))]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing


def test_the_package_binds_only_its_modules_and_version():
    # a second export list would have to be kept in step with each __all__
    allowed = {name.removeprefix("fermiqec.") for name in MODULES}
    extra = [n for n in vars(fermiqec) if not n.startswith("_") and n not in allowed]
    assert not extra
    assert isinstance(fermiqec.__version__, str)


def _names_used(path: Path) -> set[str]:
    """Every name, attribute and string constant in one file's code, except
    what its ``__all__`` lists.  A ``def`` or ``class`` line names nothing
    here, so a name counts only where code reads it."""
    tree = ast.parse(path.read_text())
    exports = {
        id(node)
        for stmt in tree.body
        if isinstance(stmt, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
        for node in ast.walk(stmt)
    }
    used = set()
    for node in ast.walk(tree):
        if id(node) in exports:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)  # the tracer wraps functions by name
    return used


def _names_used_in_src_or_bench() -> set[str]:
    return set().union(*(_names_used(f) for f in USERS))


def test_every_exported_name_is_used_in_src_or_bench():
    used = _names_used_in_src_or_bench()
    unused = [
        f"{name.removeprefix('fermiqec.')}.{attr}"
        for name in MODULES
        for attr in importlib.import_module(name).__all__
        if attr not in used
    ]
    assert not unused


def _defs() -> list[tuple[str, ast.FunctionDef, bool]]:
    """``(qualified name, def, is a method)`` of every function in ``src/``,
    nested ones included."""
    found = []

    def visit(node, prefix: str, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", True)
            elif isinstance(child, ast.FunctionDef):
                found.append((f"{prefix}{child.name}", child, in_class))
                visit(child, f"{prefix}{child.name}.", False)
            else:
                visit(child, prefix, in_class)

    for path in SOURCES:
        visit(ast.parse(path.read_text()), "", False)
    return found


def test_every_function_is_read_in_src_or_bench():
    used = _names_used_in_src_or_bench()
    unread = [
        qualname
        for qualname, fn, _ in _defs()
        if not (fn.name.startswith("__") and fn.name.endswith("__"))
        and fn.name not in used
    ]
    assert not unread


def _passed(call: ast.Call, params: list[str]) -> set[str]:
    """The parameters a call passes, ``params`` being the positional ones
    in order; ``*args`` or ``**kwargs`` pass them all."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
        k.arg is None for k in call.keywords
    ):
        return {"*"}
    return {*params[: len(call.args)], *(k.arg for k in call.keywords)}


def test_no_name_is_both_a_method_and_a_function():
    # A method's calls would count for a function of its name, or the
    # other way round.
    kinds: dict[str, set[bool]] = {}
    for _, fn, is_method in _defs():
        kinds.setdefault(fn.name, set()).add(is_method)
    assert not sorted(name for name, kind in kinds.items() if len(kind) == 2)


def _calls() -> dict[tuple[str, bool], list[ast.Call]]:
    """Every call in ``src/`` or ``bench/``, by the callee's name and
    whether it is an attribute: ``(f, False)`` for ``f(...)`` and ``(f,
    True)`` for ``x.f(...)``."""
    calls: dict[tuple[str, bool], list[ast.Call]] = {}
    for path in USERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                if isinstance(node.func, ast.Attribute):
                    key = (node.func.attr, True)
                else:
                    key = (getattr(node.func, "id", ""), False)
                calls.setdefault(key, []).append(node)
    return calls


def _calls_of(calls: dict, name: str, attribute_only: bool = False) -> list[ast.Call]:
    """The calls of ``name``: ``x.name(...)``, and ``name(...)`` unless
    ``attribute_only``."""
    plain = [] if attribute_only else calls.get((name, False), [])
    return [*plain, *calls.get((name, True), [])]


def test_every_default_is_passed_in_src_or_bench():
    # A method counts only ``x.name(...)`` calls, and ``__init__`` those of
    # its class, ``Cls(...)`` or ``module.Cls(...)``.
    calls = _calls()
    unpassed = []
    for qualname, fn, is_method in _defs():
        args = fn.args
        positional = [a.arg for a in (*args.posonlyargs, *args.args)]
        defaulted = positional[len(positional) - len(args.defaults) :]
        defaulted += [
            a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
        ]
        if is_method:
            positional = positional[1:]
        if fn.name == "__init__":
            found = _calls_of(calls, qualname.split(".")[-2])
        else:
            found = _calls_of(calls, fn.name, attribute_only=is_method)
        passed = set().union(*(_passed(c, positional) for c in found))
        if "*" not in passed:
            unpassed += [f"{qualname}({p})" for p in defaulted if p not in passed]
    assert not unpassed


def _is_record(cls: ast.ClassDef) -> bool:
    """Whether a class is a ``@dataclass`` or a ``NamedTuple``."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    return any(getattr(d, "id", None) == "dataclass" for d in decorators) or any(
        getattr(b, "id", None) == "NamedTuple" for b in cls.bases
    )


def test_every_field_default_is_passed_in_src_or_bench():
    # A record's annotated fields are its constructor's parameters, in order.
    calls = _calls()
    unpassed = []
    for path in SOURCES:
        for cls in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(cls, ast.ClassDef) and _is_record(cls)):
                continue
            fields = [
                stmt
                for stmt in cls.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            ]
            params = [f.target.id for f in fields]
            passed = set().union(*(_passed(c, params) for c in _calls_of(calls, cls.name)))
            if "*" not in passed:
                unpassed += [
                    f"{cls.name}.{f.target.id}"
                    for f in fields
                    if f.value is not None and f.target.id not in passed
                ]
    assert not unpassed


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_imports(source: str) -> list[str]:
    """The private names one source file takes from a ``fermiqec`` module:
    ``from .m import _x``, ``from ._m import x``, and ``m._x`` where ``m``
    is a module the file imported from the package."""
    tree, found, modules = ast.parse(source), [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            path = (node.module or "").split(".")
            if not node.level and path[0] != "fermiqec":
                continue
            found += [part for part in path if _private(part)]
            found += [a.name for a in node.names if _private(a.name)]
            if node.module in (None, "fermiqec"):
                modules.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                path = alias.name.split(".")
                if path[0] == "fermiqec":
                    found += [part for part in path if _private(part)]
                    modules.add(alias.asname or path[0])
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_no_module_takes_a_private_name_from_another():
    # the occupation rule and each module's helpers stay behind their module
    probe = (
        "from . import __version__, harness\n"
        "from .gates import _check_fermion_mode, ancilla_mask\n"
        "from fermiqec._kernel import run\n"
        "harness._walk_block, harness.run_experiment\n"
    )
    assert _private_imports(probe) == [
        "_check_fermion_mode", "_kernel", "harness._walk_block"
    ]
    found = {path.name: _private_imports(path.read_text()) for path in SOURCES}
    assert not {name: names for name, names in found.items() if names}


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_trace_target_resolves():
    spans = _load_spans()
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


def test_a_traced_exchange_run_calls_the_wrapped_readouts():
    # A warm process memo rightly runs no readout: start from an empty one.
    harness._exchange_start()[2].clear()
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span():
            run_experiment(ExperimentConfig((0.05,), shots=16))
    finally:
        tracer.restore()
    assert tracer.calls["qec.measure_stabilizer"] > 0
    assert tracer.calls["harness.sample_phase_error_layer"] > 0
    assert tracer.counts["harness.flips"] > 0  # the error layer's hook ran
    assert tracer.counts["states.amplitudes_in"] > 0
    assert not spans.leftover_wrappers()
