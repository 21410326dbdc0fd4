"""In-memory spans and counters around threshlab's public functions.

The traced run installs a `Tracer`, which replaces each listed function with
a wrapper in every threshlab module that imported it (modules use
`from .x import y`, so patching the defining module alone would miss most
calls). Nothing under `src/` changes; uninstalling restores the originals.

A span is (id, parent id, name, start, end); ids are (pid, counter). Spans
and counters stay in memory until `metrics()` reads them. Pool workers are
forked from the traced process, so they inherit the wrappers; each
`_trial_block` result a worker returns carries the spans and counters the
worker recorded, and they are handed back to the tracer when the parent
unpickles that result.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# module -> functions recorded as spans named "<module>.<function>"
SPANNED = {
    "harness": ("rate_sweep", "_trial_block", "_aggregate", "certificate_sweep"),
    "sampling": ("draw",),
    "estimators": ("erm_threshold", "two_step", "refine_local"),
    "risk": ("excess_risk",),
    "divergence": ("adaptive_simpson", "relative_entropy"),
    "perturbation": ("perturb", "estimate_c1", "build_certificate"),
    "lowerbound": ("disjunction_check",),
}
# DensityPair methods -> span names
DENSITY_PAIR_SPANS = {
    "__post_init__": "model.density_pair",
    "sup_density": "model.sup_density",
}

_ACTIVE = None  # the installed tracer; unpickled worker payloads go to it
_FORK_HOOK = False


class _Shipped(list):
    """A worker's `_trial_block` result plus what the worker recorded.

    Pickles to a plain list: unpickling in the parent delivers the payload
    to the active tracer and hands `rate_sweep` the list it expects.
    """

    def __init__(self, items, payload):
        super().__init__(items)
        self.payload = payload

    def __reduce__(self):
        return _deliver, (list(self), self.payload)


def _deliver(items, payload):
    # runs in the executor's result thread; list.append is atomic, and the
    # main thread merges the inbox only after the traced passes end
    if _ACTIVE is not None:
        _ACTIVE.inbox.append(payload)
    return items


def _after_fork_in_child():
    if _ACTIVE is not None:
        _ACTIVE._forked()


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.root_pid = os.getpid()
        self.pid = self.root_pid
        self.spans = []
        self.counts = Counter()
        self.max_err = 0.0
        self.inbox = []
        self._stack = []
        self._next = 0
        self._expr_depth = 0
        self._undo = []

    # --- install / uninstall ---------------------------------------------

    def install(self):
        global _ACTIVE, _FORK_HOOK
        if _ACTIVE is not None:
            raise RuntimeError("a tracer is already installed")
        from threshlab import expr, model  # the package imports every submodule

        if not _FORK_HOOK:
            os.register_at_fork(after_in_child=_after_fork_in_child)
            _FORK_HOOK = True
        modules = [m for name, m in sys.modules.items()
                   if name == "threshlab" or name.startswith("threshlab.")]
        for mod_name, names in SPANNED.items():
            home = sys.modules[f"threshlab.{mod_name}"]
            for fname in names:
                original = getattr(home, fname)
                wrapped = self._span(f"{mod_name}.{fname}", self._extra(fname, original))
                if fname == "_trial_block":
                    wrapped = self._shipping(wrapped)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, wrapped)
        for meth, name in DENSITY_PAIR_SPANS.items():
            original = model.DensityPair.__dict__[meth]
            fn = original
            if meth == "__post_init__":
                fn = self._counting(original, "model.density_pair.builds")
            self._set(model.DensityPair, meth, self._span(name, fn))
        for cls in vars(expr).values():
            if isinstance(cls, type) and issubclass(cls, expr.Field) \
                    and cls is not expr.Field:
                for meth in ("val", "der"):
                    if meth in cls.__dict__:
                        self._set(cls, meth, self._outermost(cls.__dict__[meth]))
        _ACTIVE = self
        return self

    def uninstall(self):
        global _ACTIVE
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()
        _ACTIVE = None

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def _forked(self):
        # a pool worker starts with empty buffers but keeps the stack, so its
        # root spans name the parent span that was open at fork time
        self.pid = os.getpid()
        self.spans = []
        self.counts = Counter()
        self.max_err = 0.0
        self.inbox = []

    # --- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next += 1
            sid = (self.pid, self._next)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, name, start, end))
        return wrapper

    def _counting(self, fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _extra(self, fname, fn):
        """Counters measured where the work happens, for a few functions."""
        if fname == "draw":
            @functools.wraps(fn)
            def draw(*args, **kwargs):
                sample = fn(*args, **kwargs)
                self.counts["sampling.draw.calls"] += 1
                self.counts["sampling.draw.points"] += len(sample)
                return sample
            return draw
        if fname == "excess_risk":
            return self._counting(fn, "risk.excess_risk.calls")
        if fname == "adaptive_simpson":
            @functools.wraps(fn)
            def adaptive_simpson(f, *args, **kwargs):
                counts = self.counts

                def integrand(x):
                    counts["divergence.evals"] += 1
                    return f(x)

                value, err = fn(integrand, *args, **kwargs)
                counts["divergence.adaptive_simpson.calls"] += 1
                self.max_err = max(self.max_err, abs(err))
                return value, err
            return adaptive_simpson
        return fn

    def _shipping(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self.pid == self.root_pid:
                return out
            payload = (self.spans, dict(self.counts), self.max_err)
            self.spans, self.counts, self.max_err = [], Counter(), 0.0
            return _Shipped(out, payload)
        return wrapper

    def _outermost(self, method):
        """Count a Field.val/der call and its points unless another Field
        call is already on the stack (expression trees recurse)."""
        @functools.wraps(method)
        def wrapper(obj, x):
            if self._expr_depth:
                return method(obj, x)
            size = np.size(x)
            counts = self.counts
            counts["expr.val_calls"] += 1
            counts["expr.points"] += size
            if size == 1:
                counts["expr.scalar_calls"] += 1
            self._expr_depth = 1
            try:
                return method(obj, x)
            finally:
                self._expr_depth = 0
        return wrapper

    # --- read-out -----------------------------------------------------------

    def merge_inbox(self):
        for spans, counts, max_err in self.inbox:
            self.spans.extend(spans)
            self.counts.update(counts)
            self.max_err = max(self.max_err, max_err)
        self.inbox.clear()

    def self_times(self) -> dict:
        """Span name -> total self time: duration minus the union of the
        child spans' intervals (worker children run in parallel)."""
        children = defaultdict(list)
        for sid, parent, _name, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = defaultdict(float)
        for sid, _parent, name, start, end in self.spans:
            covered = 0.0
            reach = start  # children are sorted by start; count each instant once
            for lo, hi in sorted(children.get(sid, ())):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[name] += (end - start) - covered
        return out

    def metrics(self, units: int, workers: int, overhead_frac: float) -> dict:
        """The per-module metrics, by name, as (value, unit)."""
        self.merge_inbox()
        selfs = self.self_times()
        c = self.counts
        busy = sum(end - start for sid, _p, name, start, end in self.spans
                   if name == "harness._trial_block" and sid[0] != self.root_pid)
        sweep = sum(end - start for _s, _p, name, start, end in self.spans
                    if name == "harness.rate_sweep")
        draw_points = c["sampling.draw.points"]
        quad_calls = c["divergence.adaptive_simpson.calls"]
        val_calls = c["expr.val_calls"]

        def ratio(num, den):
            return num / den if den else 0.0

        s = "s"
        return {
            "harness.self_s": (sum(v for k, v in selfs.items()
                                   if k.startswith("harness.")), s),
            "harness.pool_busy_frac": (ratio(busy, workers * sweep), "ratio"),
            "sampling.draw.calls": (c["sampling.draw.calls"], "count"),
            "sampling.draw.self_s": (selfs["sampling.draw"], s),
            "sampling.draw.ns_per_point": (
                ratio(selfs["sampling.draw"] * 1e9, draw_points), "ns"),
            "estimators.erm_threshold.self_s": (selfs["estimators.erm_threshold"], s),
            "estimators.two_step.self_s": (selfs["estimators.two_step"], s),
            "estimators.refine_local.self_s": (selfs["estimators.refine_local"], s),
            "risk.excess_risk.calls": (c["risk.excess_risk.calls"], "count"),
            "risk.excess_risk.self_s": (selfs["risk.excess_risk"], s),
            "divergence.adaptive_simpson.calls": (quad_calls, "count"),
            "divergence.adaptive_simpson.self_s": (selfs["divergence.adaptive_simpson"], s),
            "divergence.relative_entropy.self_s": (selfs["divergence.relative_entropy"], s),
            "divergence.evals": (c["divergence.evals"], "count"),
            "divergence.evals_per_call": (ratio(c["divergence.evals"], quad_calls), "count"),
            "divergence.max_err_est": (self.max_err, "abs"),
            "expr.val_calls": (val_calls, "count"),
            "expr.points": (c["expr.points"], "count"),
            "expr.points_per_unit": (ratio(c["expr.points"], units), "count"),
            "expr.scalar_call_frac": (ratio(c["expr.scalar_calls"], val_calls), "ratio"),
            "model.density_pair.builds": (c["model.density_pair.builds"], "count"),
            "model.density_pair.self_s": (selfs["model.density_pair"], s),
            "model.sup_density.self_s": (selfs["model.sup_density"], s),
            "perturbation.perturb.self_s": (selfs["perturbation.perturb"], s),
            "perturbation.estimate_c1.self_s": (selfs["perturbation.estimate_c1"], s),
            "perturbation.build_certificate.self_s": (
                selfs["perturbation.build_certificate"], s),
            "lowerbound.disjunction_check.self_s": (
                selfs["lowerbound.disjunction_check"], s),
            "trace.overhead_frac": (overhead_frac, "ratio"),
        }
