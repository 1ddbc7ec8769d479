"""Span tracer that wraps cyclicpd's public functions from outside the package.

Installing the tracer replaces each listed function in every ``cyclicpd``
module namespace that holds it: ``verify`` calls checkers through ``ineq.``,
while ``search`` and ``cli`` bind names with ``from ... import``, so patching
only the defining module would miss calls. Uninstalling puts the originals
back.

Each call records a span ``[name, thread, start, end, parent]``. Span stacks
are thread-local, because ``minimize_margin`` runs restarts on a thread pool;
a span that opens on another thread with an empty stack takes as parent the
innermost open span of the thread that installed the tracer, which is the
thread that submitted the restarts. Self time is a span's duration minus the
union of its children's intervals, so overlapping children on worker threads
are not subtracted twice.
"""
from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

CHECKERS = (
    "check_trace_product", "check_weighted_cs", "check_cs_trace", "check_eigineq1",
    "check_harmonic_loewner", "check_block_certificate", "check_product_sum_eigs",
    "check_nesbitt", "check_nesbitt_k", "check_shapiro_trace", "check_s4_decomposition",
    "check_shapiro_extension", "check_bidirectional", "check_bidirectional_eig4",
    "check_upper_bound_2ab", "check_wz_certificate", "check_square_cycle",
)

# module -> public functions timed in the traced run
TRACED = {
    "pdcore": (
        "random_pd", "random_family", "make_pd", "inverse_pd",
        "eig_herm", "eig_general", "eig_pd_product", "sqrt_pd",
    ),
    "inequalities": ("cyclic_sum_trace",) + CHECKERS
    + ("build_block_certificate", "build_wz_certificate"),
    "search": ("minimize_margin", "margin_gradient"),
    "verify": ("run_unconditional", "run_identities", "run_conditional"),
    "serialize": ("family_to_dict", "family_from_dict"),
    "cli": ("main",),
}

TRACED_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


class Tracer:
    """Records spans in memory while installed; ``take`` hands them over."""

    def __init__(self, package: str = "cyclicpd"):
        self.package = package
        self.spans: list = []
        self.missing: list[str] = []
        self._local = threading.local()
        self._main_stack: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # slicing is atomic, so a worker never indexes a stack the main thread just emptied
            outer = stack[-1:] or tracer._main_stack[-1:]
            span = [name, threading.get_ident(), time.perf_counter(), 0.0, outer[0] if outer else None]
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)

        return traced

    @contextmanager
    def installed(self):
        """Patch every traced function for the duration of the block."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == self.package or key.startswith(self.package + "."))
        ]
        patched = []
        self.missing = []
        for mod_name, fns in TRACED.items():
            home = sys.modules.get(f"{self.package}.{mod_name}")
            for fn in fns:
                original = getattr(home, fn, None)
                if original is None:
                    self.missing.append(f"{mod_name}.{fn}")
                    continue
                wrapper = self._wrap(f"{mod_name}.{fn}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            patched.append((m, attr, original))
        self._main_stack = self._stack()
        try:
            yield self
        finally:
            for m, attr, original in patched:
                setattr(m, attr, original)

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    run_lo = run_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if run_hi is None or a > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = a, b
        else:
            run_hi = max(run_hi, b)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_times(spans) -> dict:
    """name -> [calls, self seconds] over ``spans``."""
    children = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[id(s[4])].append((s[2], s[3]))
    out: dict = defaultdict(lambda: [0, 0.0])
    for s in spans:
        name, _tid, start, end, _parent = s
        agg = out[name]
        agg[0] += 1
        agg[1] += (end - start) - _covered(children.get(id(s), ()), start, end)
    return dict(out)
