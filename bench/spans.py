"""In-memory span tracer that wraps public fermiqec functions from outside.

Nothing under ``src/`` knows about tracing: :meth:`Tracer.install` replaces
each listed function in every ``fermiqec`` module namespace that holds it
(``from .gates import apply_qubit_gate`` leaves a second reference in
``fermiqec.qec``, and both must be wrapped), and patches methods on their
class.  :meth:`Tracer.restore` puts every original back.

Each call becomes a span ``(id, parent, root, name, start, end)``; spans of
one benchmark call (one CLI invocation or one circuit) share the ``root`` id.
Self time is a span's duration minus the time its direct child spans cover.
Wrappers only observe arguments and results, so a traced run consumes the
same random draws as an untraced one.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import pkgutil
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable

#: Marker attribute set on every wrapper, used to prove none is left behind.
WRAPPED = "__bench_wrapped__"

Hook = Callable[["Tracer", tuple, dict, object], None]


def _count_syndromes(tr: "Tracer", args: tuple, kwargs: dict, result) -> None:
    _, syndromes = result
    tr.counts["qec.nontrivial_syndromes"] += sum(s != (1, 1) for s in syndromes)


def _count_amplitudes(tr: "Tracer", args: tuple, kwargs: dict, result) -> None:
    entries = args[1] if len(args) > 1 else kwargs["entries"]
    tr.counts["states.amplitudes_in"] += len(entries)
    n = len(result.entries)
    if n > tr.counts["states.entries.max"]:
        tr.counts["states.entries.max"] = n


def _count_flips(tr: "Tracer", args: tuple, kwargs: dict, result) -> None:
    tr.counts["harness.flips"] += len(result[1])


#: (span name, module, attribute, result hook).  An attribute ``Class.method``
#: is patched on the class.  Two targets may share a span name.
TARGETS: tuple[tuple[str, str, str, Hook | None], ...] = (
    ("harness.run_exchange_shot", "harness", "run_exchange_shot", None),
    ("harness.sample_phase_error_layer", "harness", "sample_phase_error_layer", _count_flips),
    ("qec.qec_round", "qec", "qec_round", _count_syndromes),
    ("qec.measure_stabilizer", "qec", "measure_stabilizer", None),
    ("qec.measure_reference_and_recover", "qec", "measure_reference_and_recover", None),
    ("logical.controlled_tunneling_logical", "logical", "controlled_tunneling_logical", None),
    ("logical.tunneling_logical", "logical", "tunneling_logical", None),
    ("logical.fswap_logical", "logical", "fswap_logical", None),
    ("codes.RepetitionCode", "codes", "RepetitionCode.__init__", None),
    ("codes.compiled_tables", "codes", "RepetitionCode.compiled_stabilizer", None),
    ("codes.compiled_tables", "codes", "RepetitionCode.compiled_fswap", None),
    ("codes.logical_basis_state", "codes", "logical_basis_state", None),
    ("codes.project_codespace", "codes", "project_codespace", None),
    ("codes.apply_stabilizer", "codes", "apply_stabilizer", None),
    ("gates.apply_qubit_gate", "gates", "apply_qubit_gate", None),
    ("gates.measure_qubit", "gates", "measure_qubit", None),
    ("gates.apply_local_phase", "gates", "apply_local_phase", None),
    ("gates.apply_controlled", "gates", "apply_controlled", None),
    ("gates.measure_mode_number", "gates", "measure_mode_number", None),
    ("gates.apply_tunneling", "gates", "apply_tunneling", None),
    ("gates.apply_fswap", "gates", "apply_fswap", None),
    ("gates.apply_gate_op", "gates", "apply_gate_op", None),
    ("reference.apply_D_exact", "reference", "apply_D_exact", None),
    ("reference.apply_D_decomposed", "reference", "apply_D_decomposed", None),
    ("reference.controlled_D", "reference", "controlled_D", None),
    ("reference.apply_c", "reference", "apply_c", None),
    ("reference.apply_c_dagger", "reference", "apply_c_dagger", None),
    ("reference.is_in_H", "reference", "is_in_H", None),
    ("backend.run_dual", "backend", "run_dual", None),
    ("backend.run_circuit", "backend", "run_circuit", None),
    ("backend.compress", "backend", "compress", None),
    ("states.SparseState.with_entries", "states", "SparseState.with_entries", _count_amplitudes),
    ("states.SparseState.norm_sq", "states", "SparseState.norm_sq", None),
    ("states.add_states", "states", "add_states", None),
    ("stats.clopper_pearson", "stats", "clopper_pearson", None),
)

#: Span name of the benchmark's own root span around each call.
ROOT = "call"
SHOT = "harness.run_exchange_shot"


def span_names() -> list[str]:
    return [ROOT, *dict.fromkeys(name for name, _, _, _ in TARGETS)]


def _package_modules() -> list:
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "fermiqec" or name.startswith("fermiqec."))
    ]


def leftover_wrappers() -> list[str]:
    """Every fermiqec attribute (module level or on a class) that is still a
    tracing wrapper; empty once :meth:`Tracer.restore` has run."""
    found = []
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            if getattr(value, WRAPPED, False):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for meth, fn in vars(value).items():
                    if getattr(fn, WRAPPED, False):
                        found.append(f"{mod.__name__}.{attr}.{meth}")
    return found


class Tracer:
    """Collects spans, per-name call counts, self and inclusive time, and
    the counters that the result hooks bump."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.shot_seconds: list[float] = []  # every run_exchange_shot span
        self._ids = itertools.count(1)
        # open spans: [id, root, time covered by children]
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _enter(self) -> list:
        sid = next(self._ids)
        root = self._stack[-1][1] if self._stack else sid
        frame = [sid, root, 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list, name: str, t0: float, t1: float) -> None:
        self._stack.pop()
        dur = t1 - t0
        parent = 0
        if self._stack:
            up = self._stack[-1]
            up[2] += dur
            parent = up[0]
        self.calls[name] += 1
        self.self_s[name] += dur - frame[2]
        self.total_s[name] += dur
        if name == SHOT:
            self.shot_seconds.append(dur)
        self.spans.append((frame[0], parent, frame[1], name, t0, t1))

    @contextmanager
    def span(self, name: str = ROOT):
        frame = self._enter()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._leave(frame, name, t0, time.perf_counter())

    def _wrap(self, name: str, fn, hook: Hook | None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(frame, name, t0, clock())
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        setattr(wrapper, WRAPPED, True)
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever the package holds a reference to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import fermiqec

        # a module first imported while wrappers are installed would bind
        # them for good, so load every submodule before patching
        for info in pkgutil.iter_modules(fermiqec.__path__):
            importlib.import_module(f"fermiqec.{info.name}")
        modules = _package_modules()
        try:
            for name, module, attr, hook in TARGETS:
                owner = sys.modules[f"fermiqec.{module}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = vars(cls)[meth]
                    self._patch(cls, meth, self._wrap(name, original, hook))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, hook)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
        except BaseException:
            self.restore()
            raise

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write_spans(self, path, header: str) -> None:
        """Spans as gzipped tab-separated lines, times relative to the first
        span."""
        t_base = min((s[4] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(f"# {header}\n")
            fh.write("id\tparent\troot\tname\tstart_s\tend_s\n")
            for sid, parent, root, name, t0, t1 in self.spans:
                fh.write(
                    f"{sid}\t{parent}\t{root}\t{name}\t{t0 - t_base:.9f}\t{t1 - t_base:.9f}\n"
                )
