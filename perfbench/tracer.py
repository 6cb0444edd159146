"""Per-layer spans recorded from outside the wittcalc package.

The tracer replaces each target function object by a wrapper wherever a
``wittcalc.*`` module binds it, so calls made through a name imported
elsewhere (``gwcore.squarefree_part``, ``traceform.diagonalize``, the
package's re-exports) are seen too; methods are patched on their class.
Spans are folded into per-metric totals as they close: self time is the
span's duration minus the time of the spans opened inside it.
"""
from __future__ import annotations

import sys
import time
from typing import Any, Callable

# (module, attribute path, metric name); several targets may share a metric
TARGETS = [
    ("fields", "squarefree_part", "fields.squarefree_part"),
    ("fields", "FieldSpec.canonical_entry", "fields.canonical_entry"),
    ("fields", "factorize", "fields.factorize"),
    ("fields", "is_prime", "fields.is_prime"),
    ("gwcore", "GWClass.make", "gwcore.GWClass.make"),
    ("gwcore", "gw_mul", "gwcore.gw_mul"),
    ("gwcore", "gw_add", "gwcore.gw_add"),
    ("gwcore", "QForm.make", "gwcore.QForm.make"),
    ("gwcore", "diagonalize", "gwcore.diagonalize"),
    ("gwcore", "hilbert_symbol", "gwcore.hilbert_symbol"),
    ("gwcore", "invariants", "gwcore.invariants"),
    ("gwcore", "is_isometric", "gwcore.is_isometric"),
    ("gwcore", "witt_class", "gwcore.witt_class"),
    ("gwcore", "second_residue", "gwcore.second_residue"),
    ("gwcore", "format_form", "gwcore.format"),
    ("gwcore", "format_gw", "gwcore.format"),
    ("gwcore", "format_gw_grouped", "gwcore.format"),
    ("gwcore", "format_witt", "gwcore.format"),
    ("gwcore", "parse_form", "gwcore.parse"),
    ("gwcore", "parse_gw", "gwcore.parse"),
    ("qpoly", "mul", "qpoly.mul"),
    ("qpoly", "add", "qpoly.add"),
    ("qpoly", "pdivmod", "qpoly.pdivmod"),
    ("traceform", "cyclotomic_poly", "traceform.cyclotomic_poly"),
    ("traceform", "real_cyclotomic_minpoly", "traceform.real_cyclotomic_minpoly"),
    ("traceform", "trace_gram", "traceform.trace_gram"),
    ("a1deg", "build_G", "a1deg.build_G"),
    ("a1deg", "bezout_form", "a1deg.bezout_form"),
    ("charclass", "WittPoly.__mul__", "charclass.WittPoly.mul"),
    ("charclass", "parse_bundle", "charclass.parse_bundle"),
    ("charclass", "euler", "charclass.euler"),
    ("charclass", "pontryagin_total", "charclass.pontryagin_total"),
    ("enumgeo", "lines_count", "enumgeo.lines_count"),
    ("enumgeo", "quadratic_lines_class", "enumgeo.quadratic_lines_class"),
    ("enumgeo", "cellular_euler", "enumgeo.cellular_euler"),
]


def _peak_entries(x: Any) -> int:
    return x.plus.rank + x.minus.rank


def _peak_terms(x: Any) -> int:
    return len(x.terms)


# metric name -> (peak metric name, size of a result)
PEAKS: dict[str, tuple[str, Callable[[Any], int]]] = {
    "gwcore.GWClass.make": ("gwcore.GWClass.make.peak_entries", _peak_entries),
    "charclass.WittPoly.mul": ("charclass.WittPoly.peak_terms", _peak_terms),
}


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.peaks: dict[str, int] = {}
        self._stack: list[int] = []  # child time of each open span
        self._saved: list[tuple[Any, str, Any]] = []  # (owner, attr, original)
        self._cache: Any = None  # the lru_cache of fields.factorize
        self._hits = self._misses = 0

    def start(self) -> None:
        self.active = True
        self._info = self._cache.cache_info()

    def stop(self) -> None:
        self.active = False
        info = self._cache.cache_info()
        self._hits += info.hits - self._info.hits
        self._misses += info.misses - self._info.misses

    def _wrap(self, fn: Callable, name: str) -> Callable:
        calls, self_ns, stack = self.calls, self.self_ns, self._stack
        peak = PEAKS.get(name)
        clock = time.perf_counter_ns
        calls.setdefault(name, 0)
        self_ns.setdefault(name, 0)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack.append(0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                child = stack.pop()
                calls[name] += 1
                self_ns[name] += dur - child
                if stack:
                    stack[-1] += dur
            if peak is not None:
                size = peak[1](out)
                if size > tracer.peaks.get(peak[0], 0):
                    tracer.peaks[peak[0]] = size
            return out

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def install(self) -> None:
        """Patch every binding of every target in every wittcalc module."""
        modules = [m for n, m in sys.modules.items() if n == "wittcalc" or n.startswith("wittcalc.")]
        self._cache = sys.modules["wittcalc.fields"].factorize
        for mod_name, path, metric in TARGETS:
            owner: Any = sys.modules[f"wittcalc.{mod_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if outer:  # a method or staticmethod, patched on its class
                raw = owner.__dict__[attr]
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                wrapped = self._wrap(fn, metric)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, staticmethod(wrapped) if is_static else wrapped)
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(fn, metric)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, name, fn))
                        setattr(mod, name, wrapped)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def bindings_restored(self) -> bool:
        """True when no wittcalc module or class still binds a wrapper."""
        modules = [m for n, m in sys.modules.items() if n == "wittcalc" or n.startswith("wittcalc.")]
        for mod in modules:
            for value in vars(mod).values():
                if hasattr(value, "__wrapped__") and getattr(value, "__module__", "") == __name__:
                    return False
                if isinstance(value, type) and value.__module__.startswith("wittcalc"):
                    for raw in vars(value).values():
                        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                        if getattr(fn, "__module__", "") == __name__:
                            return False
        return True

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_ns[name] / 1e9
        out.update(self.peaks)
        looked_up = self._hits + self._misses
        out["fields.factorize.hit_ratio"] = self._hits / looked_up if looked_up else 0.0
        return out
