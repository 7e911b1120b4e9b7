"""Per-layer spans and counters, installed on ``starhom`` from outside.

``install`` replaces public functions of the package's modules with timing
wrappers after the package is imported.  A function is reachable under
many names (``moyal_star`` is imported by name into five modules, the
suite keeps its criteria in the ``BATTERY`` list, ``Poly.__radd__`` is
``Poly.__add__``), so every alias found in a module namespace, a class
body or a module-level list is rebound, and ``unwrapped_holders`` reports
any other object still holding an original.

A span's self time is its duration minus the durations of the spans it
encloses.  Layer spans and criterion spans (``suite.C01`` ...) nest
independently: a criterion's time excludes only the criteria it runs,
so the twelve criterion times add up to the time of ``run_suite``.
``Poly.__init__`` gets a call counter and no span, because timing it
would double the cost of the wrapper on the hottest call.
"""

from __future__ import annotations

import functools
import gc
import sys
import time
import types
from collections import defaultdict

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.keys: dict[str, set] = defaultdict(set)
        self._stacks = {"layer": [], "suite": []}
        self._wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        """Time ``fn`` as a layer span.  ``before(args)`` and
        ``after(args, result)`` are bookkeeping: they run outside the span
        and their cost is taken out of the enclosing span's self time."""
        stack = self._stacks["layer"]
        calls, self_s = self.calls, self.self_s

        def charge(hook, *hook_args):
            t0 = _now()
            hook(*hook_args)
            if stack:
                stack[-1] += _now() - t0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                charge(before, args)
            stack.append(0.0)
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _now() - t0
                inner = stack.pop()
                calls[name] += 1
                self_s[name] += dt - inner
                if stack:
                    stack[-1] += dt
            if after is not None:
                charge(after, args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _criterion(self, fn):
        """Span of a suite criterion, named by the id of its result."""
        stack = self._stacks["suite"]
        calls, self_s = self.calls, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = _now()
            name = f"suite.{fn.__name__}"
            try:
                result = fn(*args, **kwargs)
                name = f"suite.{result.id}"
                return result
            finally:
                dt = _now() - t0
                inner = stack.pop()
                calls[name] += 1
                self_s[name] += dt - inner
                if stack:
                    stack[-1] += dt

        return wrapper

    def _words(self, name):
        counts = self.counts

        def before(args):
            counts[f"{name}.words_in"] += args[0].term_count()

        def after(args, result):
            counts[f"{name}.words_out"] += result.term_count()

        return before, after

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        from starhom import charclass, cli, fedosov, hkr, hochschild, rees, serialize, series, suite, weyl

        plan = {
            series.Poly.__init__: self._counter("series.Poly.init", series.Poly.__init__),
            series.Poly.__mul__: self._span("series.Poly.mul", series.Poly.__mul__),
            series.Poly.__add__: self._span("series.Poly.add", series.Poly.__add__),
            weyl.moyal_star: self._span("weyl.moyal_star", weyl.moyal_star),
            hochschild.HochschildChain.is_zero: self._span(
                "hochschild.is_zero", hochschild.HochschildChain.is_zero
            ),
            hochschild.induced_chain_map: self._span(
                "hochschild.induced_chain_map", hochschild.induced_chain_map
            ),
            rees.diffop_mul: self._span("rees.diffop_mul", rees.diffop_mul),
            rees.localized_to_weyl: self._span(
                "rees.localized_to_weyl",
                rees.localized_to_weyl,
                before=lambda args: self.keys["rees.localized_to_weyl"].add(args[0].key()),
            ),
            cli.main: self._span("cli.main", cli.main),
        }
        for fn in (hochschild.diff_b, hochschild.diff_B):
            name = f"hochschild.{fn.__name__}"
            plan[fn] = self._span(name, fn, *self._words(name))
        for module, names in (
            (hkr, ("hkr_map", "de_rham")),
            (fedosov, ("kazhdan_assemble", "lift_connection", "curvature", "psi_conjugate")),
            (charclass, ("rr_identity_check", "to_chern_basis")),
        ):
            for attr in names:
                fn = getattr(module, attr)
                plan[fn] = self._span(f"{module.__name__.split('.')[-1]}.{attr}", fn)
        for attr, fn in vars(serialize).items():
            if isinstance(fn, types.FunctionType) and not attr.startswith("_"):
                if attr.endswith("_from_json"):
                    plan[fn] = self._span("serialize.from_json", fn)
                elif attr.endswith("_to_json"):
                    plan[fn] = self._span("serialize.to_json", fn)
        for attr, fn in vars(suite).items():
            if attr.startswith("check_") and isinstance(fn, types.FunctionType):
                plan[fn] = self._criterion(fn)
        self._wrappers = {id(orig): (orig, wrapper) for orig, wrapper in plan.items()}
        self._rebind()

    def _rebind(self) -> None:
        swap = {key: wrapper for key, (_, wrapper) in self._wrappers.items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "starhom" and not mod_name.startswith("starhom."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in swap:
                    setattr(module, attr, swap[id(value)])
                elif isinstance(value, list):
                    value[:] = [swap.get(id(v), v) for v in value]
                elif isinstance(value, type) and value.__module__ == mod_name:
                    for cattr, cvalue in list(vars(value).items()):
                        if id(cvalue) in swap:
                            setattr(value, cattr, swap[id(cvalue)])

    def unwrapped_holders(self) -> list[str]:
        """Objects other than the tracer's own that still reference an
        original function, so calls through them would go untraced."""
        own = {id(self._wrappers)} | {id(pair) for pair in self._wrappers.values()}
        own |= {id(vars(w)) for _, w in self._wrappers.values()}
        found = []
        for orig, _ in self._wrappers.values():
            for ref in gc.get_referrers(orig):
                if id(ref) in own or isinstance(ref, (types.FrameType, types.CellType)):
                    continue
                found.append(f"{orig.__qualname__} held by {type(ref).__name__}")
        return found

    # -- results --------------------------------------------------------------

    def raw(self) -> dict:
        """Sums that add up across processes (the cli-oneshot workload)."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "distinct": {name: len(keys) for name, keys in self.keys.items()},
        }


def merge(raws: list[dict]) -> dict:
    out = {"calls": {}, "self_s": {}, "counts": {}, "distinct": {}}
    for raw in raws:
        for part, table in raw.items():
            for name, value in table.items():
                out[part][name] = out[part].get(name, 0) + value
    return out
