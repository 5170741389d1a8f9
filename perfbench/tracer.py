"""Time podrom's public functions from outside the package.

``install`` swaps every module-level reference to a watched function, in
every loaded ``podrom.*`` module, for a wrapper.  Functions are matched by
name and replaced by identity, so a wrapper keeps applying when a function
moves to another module or is re-exported.  Two recorders build wrappers:

- ``SolveTimer`` (untraced runs) times only the truth solve and the fresh
  reduced solves, at most a few dozen calls per sweep.
- ``Tracer`` (traced runs) wraps every watched function.  Calls become
  spans (name, start, end, parent, trace id) kept in memory.  The
  right-hand-side callables returned by ``build_fhn`` and ``build_rom`` run
  up to millions of times per sweep, so their calls are folded into
  per-(name, parent) totals; each span also records the calls and seconds
  folded directly beneath it, so self times still add up to the sweep.
"""

from __future__ import annotations

import copy
import fnmatch
import sys
import types
from dataclasses import dataclass
from time import perf_counter

import speedclock

# Function-name pattern -> layer.  A span is named "<layer>.<function>".
WATCHED = (
    ("build_fhn", "fhn"),
    ("integrate", "ode"),
    ("sample_rhs", "ode"),
    ("svd_one_sided_jacobi", "linalg"),
    ("spectral_norm", "linalg"),
    ("*_bound_constants", "bounds"),
    ("method[12]_bound", "bounds"),
    ("solve_rom_lifted", "pod"),
    ("build_rom", "pod"),
    ("error_curve", "pod"),
    ("write_*_csv", "cli"),
    ("emit_plot_script", "cli"),
)

# Builders whose returned system gets its ``rhs`` folded under this name.
FOLDED_RHS = {"fhn.build_fhn": "fhn.rhs", "pod.build_rom": "pod.reduced_rhs"}

ROOT = "cli.main"
FOM_SOLVE = "ode.integrate"
ROM_SOLVE = "pod.solve_rom_lifted"


def _span_name(function_name: str):
    for pattern, layer in WATCHED:
        if fnmatch.fnmatchcase(function_name, pattern):
            return f"{layer}.{function_name}"
    return None


def install(recorder) -> list:
    """Wrap every watched podrom function with ``recorder.wrap``.

    ``recorder.wrap(fn, span_name)`` returns the wrapper, or None to leave
    the function alone.  Returns the sorted span names that were wrapped.
    """
    modules = [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "podrom" or name.startswith("podrom."))
    ]
    wrappers = {}
    for module in modules:
        for value in vars(module).values():
            if not isinstance(value, types.FunctionType) or id(value) in wrappers:
                continue
            if not (value.__module__ or "").startswith("podrom"):
                continue
            span = _span_name(value.__name__)
            wrapper = recorder.wrap(value, span) if span else None
            if wrapper is not None:
                wrappers[id(value)] = (value, wrapper, span)
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    return sorted({span for _, _, span in wrappers.values()})


def _with_rhs(system, rhs):
    """Shallow copy of an ``OdeSystem``-like object with ``rhs`` replaced."""
    clone = copy.copy(system)
    object.__setattr__(clone, "rhs", rhs)
    return clone


class SolveTimer:
    """(start, end) CPU times (``speedclock.now``) of the truth and fresh reduced solves."""

    def __init__(self) -> None:
        self.fom: list = []
        self.rom: list = []
        self._in_rom = False

    def wrap(self, fn, span):
        if span == FOM_SOLVE:

            def timed_integrate(*args, **kwargs):
                if self._in_rom:
                    return fn(*args, **kwargs)
                start = speedclock.now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.fom.append((start, speedclock.now()))

            return timed_integrate
        if span == ROM_SOLVE:

            def timed_rom(*args, **kwargs):
                self._in_rom = True
                start = speedclock.now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.rom.append((start, speedclock.now()))
                    self._in_rom = False

            return timed_rom
        return None


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent_id: object  # int, or None for a top-level span
    trace_id: str
    folded_calls: int  # folded calls made directly inside this span
    folded_s: float  # their total seconds
    cols: int  # columns of the factored matrix (SVD spans), else 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Frame:
    __slots__ = ("name", "span_id", "folded_calls", "folded_s")

    def __init__(self, name, span_id):
        self.name = name
        self.span_id = span_id
        self.folded_calls = 0
        self.folded_s = 0.0


class Tracer:
    """Spans and folded call totals of one traced sweep."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: list = []
        # (name, parent span name) -> [calls, total seconds, self seconds]
        self.folded: dict = {}
        self._stack = [_Frame("", None)]
        self._next_id = 0

    def wrap(self, fn, span):
        folded_rhs = FOLDED_RHS.get(span)
        if folded_rhs is None:
            return self.span(fn, span)
        spanned = self.span(fn, span)

        def build(*args, **kwargs):
            system = spanned(*args, **kwargs)
            return _with_rhs(system, self.fold(system.rhs, folded_rhs))

        return build

    def span(self, fn, name):
        """Wrap ``fn`` so that every call is kept as a span."""
        stack = self._stack
        spans = self.spans
        trace_id = self.trace_id
        count_cols = name.startswith("linalg.svd")

        def spanned(*args, **kwargs):
            parent = stack[-1]
            frame = _Frame(name, self._next_id)
            self._next_id += 1
            cols = 0
            if count_cols and args:
                shape = getattr(args[0], "shape", ())
                cols = int(shape[1]) if len(shape) == 2 else 0
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append(
                    Span(
                        frame.span_id, name, start, end, parent.span_id, trace_id,
                        frame.folded_calls, frame.folded_s, cols,
                    )
                )

        return spanned

    def fold(self, fn, name):
        """Wrap ``fn`` so that its calls are summed per parent span name."""
        stack = self._stack
        totals = self.folded

        def folded(*args):
            parent = stack[-1]
            frame = _Frame(name, None)
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                parent.folded_calls += 1
                parent.folded_s += elapsed
                entry = totals.get((name, parent.name))
                if entry is None:
                    entry = totals[(name, parent.name)] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame.folded_s

        return folded

    def self_times(self) -> dict:
        """Self seconds per span id: duration minus child spans and folded calls."""
        children = {}
        for span in self.spans:
            if span.parent_id is not None:
                children[span.parent_id] = children.get(span.parent_id, 0.0) + span.duration
        return {
            span.span_id: span.duration - children.get(span.span_id, 0.0) - span.folded_s
            for span in self.spans
        }

    def to_json(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "spans": [
                [s.span_id, s.name, s.start, s.end, s.parent_id, s.folded_calls, s.folded_s, s.cols]
                for s in self.spans
            ],
            "span_fields": [
                "span_id", "name", "start", "end", "parent_id", "folded_calls", "folded_s", "cols"
            ],
            "folded": [
                {"name": name, "parent": parent, "calls": calls, "total_s": total, "self_s": own}
                for (name, parent), (calls, total, own) in sorted(self.folded.items())
            ],
        }
