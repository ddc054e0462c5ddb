"""Spans and counters recorded from outside chaincat, by wrapping the public
functions and methods of its modules.

Only a traced pass installs these wrappers; timed passes run the modules
untouched.  A span records its name, start, end and parent, and a layer's
self time is its span time minus the time of the spans it encloses.  The
hottest leaves (``chain.compose`` and the ideal categories' ``compose``) get
counters only, so tracing overhead stays readable.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict


def chaincat_modules() -> dict:
    """The loaded chaincat package and submodules, keyed by short name."""
    return {
        name.rpartition(".")[2]: module
        for name, module in sys.modules.items()
        if name == "chaincat" or name.startswith("chaincat.")
    }


class Tracer:
    """Collects counts, self and total span times, and the coarse spans."""

    def __init__(self):
        self.counts: defaultdict = defaultdict(int)
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.spans: list = []  # (name, start, end, parent index) of recorded spans
        self.build_s = 0.0  # first calls of verify's memoized builders, outermost only
        self.check_s = 0.0  # run_check time minus the builds inside it
        self._stack: list = []  # per open span: [time covered by child spans, record index]
        self._build_depth = 0
        self.originals: list = []  # every wrapped function, for the binding check

    # -- recording -------------------------------------------------------

    def _timed(self, name: str, record: bool, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1][1] if stack else -1
        index = len(self.spans) if record else parent
        if record:
            self.spans.append(None)
        frame = [0.0, index]
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            self.self_s[name] += duration - frame[0]
            self.total_s[name] += duration
            if stack:
                stack[-1][0] += duration
            if record:
                self.spans[index] = (name, start, end, parent)
        return result, duration

    def span(self, name: str, fn, *, record: bool = False, calls: bool = False, after=None):
        """Wrap fn in a span; optionally count calls and inspect each result."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if calls:
                counts[name + ".calls"] += 1
            result, _ = self._timed(name, record, fn, args, kwargs)
            if after is not None:
                after(result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- wrappers with their own bookkeeping -------------------------------

    def semigroup_build(self, fn, module):
        """``semigroups.build``: products and time inside the product callback,
        and the associativity triples the module's limits imply for the order."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(elements, mul_fn, *args, **kwargs):
            counts["semigroups.build.calls"] += 1
            mul = self.span("semigroups.build.mul", mul_fn, calls=True)
            result, _ = self._timed("semigroups.build", True, fn, (elements, mul) + args, kwargs)
            # Left at zero, and so caught by the counter self-check, once the
            # module no longer splits exhaustive from sampled associativity.
            limit = getattr(module, "EXHAUSTIVE_ASSOC_LIMIT", None)
            sampled = getattr(module, "SAMPLED_ASSOC_TRIPLES", None)
            if limit is not None and sampled is not None:
                m = result.order
                counts["semigroups.build.assoc_triples"] += m**3 if m <= limit else sampled
            return result

        return wrapper

    def category_hom(self, fn):
        """``FiniteCategory.hom``, attributed to the concrete category class.

        Counts each distinct (category, a, b) request once as a pair, with the
        size of its hom-set."""
        counts, names, seen = self.counts, {}, set()

        @functools.wraps(fn)
        def wrapper(category, *args, **kwargs):
            cls = type(category)
            name = names.get(cls)
            if name is None:
                name = names[cls] = f"{cls.__module__.rpartition('.')[2]}.{cls.__qualname__}.hom"
            result, _ = self._timed(name, False, fn, (category,) + args, kwargs)
            key = (category, args, tuple(kwargs.items()))
            if key not in seen:
                seen.add(key)
                counts[name + ".pairs"] += 1
                counts[name + ".morphisms"] += len(result)
            return result

        return wrapper

    def memoized_builder(self, name: str, fn):
        """A ``functools.lru_cache`` builder in verify: a cache miss is a build."""
        info = fn.cache_info

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            misses = info().misses
            outer = self._build_depth == 0
            self._build_depth += 1
            try:
                result, duration = self._timed(name, True, fn, args, kwargs)
            finally:
                self._build_depth -= 1
            if info().misses != misses:
                self.counts["verify.builds"] += 1
                if outer:
                    self.build_s += duration
            return result

        return wrapper

    def run_check(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            builds_before = self.build_s
            report, duration = self._timed("verify.run_check", True, fn, args, kwargs)
            counts["verify.checks"] += 1
            counts["verify.checks_failed"] += report.status == "fail"
            self.check_s += duration - (self.build_s - builds_before)
            return report

        return wrapper

    # -- results ---------------------------------------------------------

    def value(self, metric: str) -> float:
        """The value of one per-layer metric named in the layer map."""
        if metric == "verify.build_s":
            return self.build_s
        if metric == "verify.check_s":
            return self.check_s
        if metric == "semigroups.build.mul_s":
            return self.total_s["semigroups.build.mul"]
        if metric == "semigroups.build.products":
            return self.counts["semigroups.build.mul.calls"]
        if metric.endswith(".self_s"):
            return self.self_s[metric[: -len(".self_s")]]
        return self.counts[metric]

    def dump(self, path: str, origin: float) -> None:
        """Write the recorded spans (times relative to origin) and the totals."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": [[n, s - origin, e - origin, p] for n, s, e, p in self.spans],
                    "counts": dict(self.counts),
                    "self_s": dict(self.self_s),
                    "total_s": dict(self.total_s),
                },
                fh,
            )


def _rebind(modules: dict, original, wrapper) -> None:
    """Point every module-level name bound to original at wrapper, so that
    ``from ... import`` copies are wrapped too."""
    for module in modules.values():
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def unwrapped_bindings(modules: dict, originals: list) -> list[str]:
    """Module-level names and class attributes still bound to a wrapped original."""
    ids = {id(f) for f in originals}
    found = []
    for short, module in modules.items():
        for key, value in vars(module).items():
            if id(value) in ids:
                found.append(f"{short}.{key}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                found.extend(f"{short}.{key}.{a}" for a, v in vars(value).items() if id(v) in ids)
    return found


def install(tracer: Tracer) -> None:
    """Wrap the traced functions and methods of the loaded chaincat modules."""
    modules = chaincat_modules()
    chain, semigroups, cones = modules["chain"], modules["semigroups"], modules["cones"]
    ideals, partitions, verify, cli = modules["ideals"], modules["partitions"], modules["verify"], modules["cli"]

    def wrap_function(module, attr: str, make) -> None:
        original = getattr(module, attr)
        tracer.originals.append(original)
        _rebind(modules, original, make(original))

    def wrap_method(cls, attr: str, make) -> None:
        original = vars(cls)[attr]
        tracer.originals.append(original)
        setattr(cls, attr, make(original))

    def spanned(name: str, **options):
        return lambda fn: tracer.span(name, fn, **options)

    def add(metric: str, of):
        def after(result):
            tracer.counts[metric] += of(result)

        return after

    wrap_function(chain, "compose", lambda fn: tracer.counter("chain.compose.calls", fn))
    for attr in ("factorize_submap", "factorize_block_map"):
        wrap_function(chain, attr, spanned(f"chain.{attr}", calls=True))

    wrap_function(semigroups, "build", lambda fn: tracer.semigroup_build(fn, semigroups))
    wrap_function(semigroups, "find_isomorphism", spanned("semigroups.find_isomorphism", record=True))
    wrap_function(semigroups, "green_oracle", spanned("semigroups.green_oracle", calls=True))
    wrap_function(semigroups, "is_regular", spanned("semigroups.is_regular", record=True))
    wrap_method(semigroups.FiniteSemigroup, "to_json", spanned("semigroups.FiniteSemigroup.to_json", record=True))

    wrap_function(cones, "cone_mul", spanned("cones.cone_mul", calls=True))
    wrap_method(cones.Cone, "__hash__", spanned("cones.Cone.hash", calls=True))
    wrap_function(cones, "validate_cone", spanned("cones.validate_cone", calls=True))
    wrap_function(
        cones,
        "enumerate_normal_cones",
        spanned("cones.enumerate_normal_cones", record=True, after=add("cones.enumerate_normal_cones.cones", len)),
    )
    for attr in ("check_normal_category_axioms", "check_functor_isomorphism"):
        morphisms = add(f"cones.{attr}.morphisms", lambda result: result[1]["morphisms"])
        wrap_function(cones, attr, spanned(f"cones.{attr}", record=True, after=morphisms))
    wrap_method(cones.FiniteCategory, "hom", tracer.category_hom)

    for cls in (ideals.LCategory, ideals.RCategory):
        wrap_method(cls, "compose", lambda fn, c=cls: tracer.counter(f"ideals.{c.__name__}.compose.calls", fn))
    wrap_method(ideals.LCategory, "principal_cone", lambda fn: tracer.counter("ideals.LCategory.principal_cone.calls", fn))
    wrap_method(
        ideals.RCategory, "dual_principal_cone", lambda fn: tracer.counter("ideals.RCategory.dual_principal_cone.calls", fn)
    )

    wrap_function(partitions, "factorize_pi", spanned("partitions.factorize_pi", calls=True))

    for attr, value in list(vars(verify).items()):
        if hasattr(value, "cache_info") and value.__module__ == verify.__name__:
            wrap_function(verify, attr, lambda fn, a=attr: tracer.memoized_builder(f"verify.{a}", fn))
    wrap_function(verify, "run_check", tracer.run_check)
    wrap_function(
        verify,
        "export_cayley",
        spanned("verify.export_cayley", record=True, after=add("verify.export_cayley.bytes", os.path.getsize)),
    )
    wrap_function(cli, "main", spanned("cli.main", record=True, calls=True))

    missed = unwrapped_bindings(modules, tracer.originals)
    if missed:
        raise RuntimeError(f"traced functions still bound without a wrapper: {', '.join(missed)}")
