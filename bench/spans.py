"""Spans around the calls into each hatgame module, installed from outside.

:func:`install` wraps every public function of the package's modules (and
the root-finding methods of ``Poly``), then rebinds every name that points
at an original, in every ``hatgame`` module and in any extra namespace
given.  That catches names a module imported from another, such as
``hatgame.analysis.min_cover_optimize`` or the helpers ``hatgame.cli``
imports.

Each call records a span on a stack.  A function's time ``s`` counts only
its outermost span, so recursion is not counted twice; a module's
``self_s`` is the time its spans cover minus the time their child spans
cover.  Spans stay in memory and are summed when :meth:`Tracer.metrics`
is read.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("core", "adequate", "strategy", "polys", "analysis", "cli")

#: Poly methods that get spans (the Sturm and root-isolation layer).
POLY_METHODS = ("sturm_chain", "count_roots_open", "isolate_roots_open", "refine_root")

#: Functions called once per configuration, per set or per number.  A
#: span there would cost more than the work it times, so their time is
#: left in the caller's self time.
LEAVES = frozenset(
    {
        "core.bits",
        "core.code_from_bits",
        "core.config_probability",
        "core.count_whites",
        "core.exact_fraction",
        "core.flip",
        "core.score",
        "core.score_vector",
        "core.wins",
        "adequate.ball_mask",
        "adequate.set_probability",
        "adequate.signature",
        "polys.decimal_str",
        "polys.number_sign",
        "analysis.sci_2sig",
        "analysis.signature_poly",
        "cli.rational_str",
    }
)


#: Work counts kept per function: the items a generator yields, or the
#: length of the list a function returns.
COUNTS = {"adequate.enumerate_adequate": "sets", "adequate.size_sweep": "rows"}


class Tracer:
    """Call counts, inclusive times and module self times of the wrapped
    functions."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.self_seconds: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.enabled = True
        self._stack: list[list] = []  # [start, child seconds]
        self._active: dict[str, int] = {}

    def _span(self, name: str, module: str, step):
        """Run ``step()`` as one span of ``name``."""
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        self._active[name] = self._active.get(name, 0) + 1
        try:
            return step()
        finally:
            span = time.perf_counter() - frame[0]
            self._stack.pop()
            self._active[name] -= 1
            if not self._active[name]:
                self.seconds[name] += span
            self.self_seconds[module] += span - frame[1]
            if self._stack:
                self._stack[-1][1] += span

    def wrap(self, name: str, fn):
        module = name.split(".", 1)[0]
        self.calls.setdefault(name, 0)
        self.seconds.setdefault(name, 0.0)
        self.self_seconds.setdefault(module, 0.0)
        counted = COUNTS.get(name)
        if counted:
            self.counts.setdefault("%s.%s" % (name, counted), 0)

        if inspect.isgeneratorfunction(fn):
            # each resumption is a span; the consumer's time between
            # resumptions is not the generator's

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                gen = fn(*args, **kwargs)
                if not self.enabled:
                    yield from gen
                    return
                self.calls[name] += 1
                while True:
                    try:
                        item = self._span(name, module, gen.__next__)
                    except StopIteration:
                        return
                    if counted:
                        self.counts["%s.%s" % (name, counted)] += 1
                    yield item

        else:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if not self.enabled:
                    return fn(*args, **kwargs)
                self.calls[name] += 1
                result = self._span(name, module, lambda: fn(*args, **kwargs))
                if counted:
                    self.counts["%s.%s" % (name, counted)] += len(result)
                return result

        for attr in ("cache_clear", "cache_info"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in self.calls:
            out[name + ".calls"] = self.calls[name]
            out[name + ".s"] = self.seconds[name]
        out.update(self.counts)
        for module, value in self.self_seconds.items():
            out[module + ".self_s"] = value
        return out


def _public_functions(module):
    short = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in vars(module).items():
        if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        name = "%s.%s" % (short, attr)
        if name not in LEAVES:
            yield name, obj


def install(tracer: Tracer, extra_namespaces=()) -> None:
    """Wrap the package's public functions and rebind every reference to
    them."""
    import hatgame

    modules = [importlib.import_module("hatgame." + m) for m in MODULES]
    replaced = {}
    for module in modules:
        for name, fn in _public_functions(module):
            replaced[fn] = tracer.wrap(name, fn)
    poly = importlib.import_module("hatgame.polys").Poly
    for attr in POLY_METHODS:
        setattr(poly, attr, tracer.wrap("polys." + attr, getattr(poly, attr)))
    namespaces = [vars(hatgame)] + [vars(m) for m in modules] + list(extra_namespaces)
    for ns in namespaces:
        for attr, obj in list(ns.items()):
            try:
                wrapper = replaced.get(obj)
            except TypeError:  # unhashable module attribute
                continue
            if wrapper is not None:
                ns[attr] = wrapper
