"""Outside-in layer tracing for the convlab benchmark.

``Tracer.install()`` replaces every public function of the six convlab layers
(``numerics``, ``geometry``, ``weights``, ``prekopa``, ``bergman``,
``scenarios``) and every public method of the classes they define with a
timing wrapper, in every loaded module namespace that holds the name.  Nothing
under ``src/`` is edited: the wrappers are installed from here, at run time,
and only in the process that asked for a traced run.

Each wrapper records a span: it pushes a frame, calls the original, pops the
frame and charges ``duration - time covered by child spans`` to its own key.
Spans are aggregated in memory per ``(layer, function)`` key instead of being
kept one by one (a traced ``lemma3`` makes millions of them).  Integrands
handed to the quadrature layer are wrapped as well, and their self time is
charged to the layer that supplied them, so ``prekopa.self_s`` and
``bergman.self_s`` include their integrand glue.  The root frame is the
benchmark itself: its self time is the unattributed remainder, so the layer
self times plus ``bench.self_s`` add up to the traced wall time exactly.

Wrappers return what the original returns and re-raise every exception
unchanged (``numerics._eval_node`` relies on seeing ``OverflowError`` from an
integrand), so tracing changes no number.  Counters that need more than a
call count (panels, leaf evaluations, nested integrals, divergence verdicts,
top-level distance queries, Gram entries, ...) are kept by a few hand-written
wrappers below; ``PER_LAYER`` lists every metric the traced run reports.
"""

from __future__ import annotations

import gc
import inspect
import math
import sys
from time import perf_counter

LAYERS = ("numerics", "geometry", "weights", "prekopa", "bergman", "scenarios")
ROOT = ("bench", "root")
INTEGRAND = "/integrand"

# Methods that are public API despite their dunder names.
_PUBLIC_DUNDERS = ("__call__", "__add__")

_CLOSED_FORMS = ("berndtsson_m0_closed", "berndtsson_phi_closed",
                 "berndtsson_inner_laplacian")
_MEMBER_METHODS = ("member", "closed_member")

SCENARIO_NAMES = ("prekopa-cex", "twisted-nonconvex", "lemma1", "min-principle",
                  "berndtsson-cex", "lemma2", "lemma3", "midpoint-probe",
                  "disc-distance", "psh-delta")

# name -> unit, in the order the traced run prints them.
PER_LAYER = {
    "numerics.panels": "count",
    "numerics.evals": "count",
    "numerics.calls": "count",
    "numerics.nested_calls": "count",
    "numerics.divergent": "count",
    "numerics.divergent_frac": "ratio",
    "numerics.self_s": "s",
    "numerics.us_per_panel": "us",
    "numerics.min.calls": "count",
    "numerics.min.evals": "count",
    "numerics.min.self_s": "s",
    "weights.evals": "count",
    "weights.self_s": "s",
    "weights.us_per_eval": "us",
    "prekopa.calls": "count",
    "prekopa.self_s": "s",
    "prekopa.audit.points": "count",
    "prekopa.audit.self_s": "s",
    "bergman.self_s": "s",
    "bergman.gram.calls": "count",
    "bergman.gram.entries": "count",
    "bergman.gram.self_s": "s",
    "bergman.radial.calls": "count",
    "bergman.radial.moments": "count",
    "bergman.radial.divergent": "count",
    "bergman.radial.self_s": "s",
    "bergman.psh.samples": "count",
    "bergman.psh.self_s": "s",
    "bergman.closed.calls": "count",
    "bergman.closed.self_s": "s",
    "geometry.queries": "count",
    "geometry.node_visits": "count",
    "geometry.visits_per_query": "ratio",
    "geometry.self_s": "s",
    "geometry.us_per_query": "us",
    "geometry.member_calls": "count",
    "geometry.slices": "count",
    "geometry.escapes": "count",
    "scenarios.self_s": "s",
    **{f"scenarios.run_s.{name}": "s" for name in SCENARIO_NAMES},
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_frac": "ratio",
}

# Counts that depend only on the inputs, never on the clock.
COUNT_METRICS = tuple(k for k, u in PER_LAYER.items() if u == "count")


class Counters:
    """Machine-independent work counts, filled by the wrappers."""

    def __init__(self):
        self.integrand_depth = 0
        self.integral_entries = 0   # integrate_1d calls
        self.nested_calls = 0       # integrate_1d calls made inside an integrand
        self.integrand_calls = 0    # every call of an integrate_1d integrand
        self.leaf_evals = 0         # ... of which issued no integral themselves
        self.divergent = 0
        self.last_divergent = None
        self.min_evals = 0
        self.weight_depth = 0
        self.weight_evals = 0
        self.audit_points = 0
        self.gram_entries = 0
        self.radial_moments = 0
        self.radial_divergent = 0
        self.psh_samples = 0
        self.closed_depth = 0
        self.closed_calls = 0
        self.dist_depth = 0
        self.queries = 0
        self.member_depth = 0
        self.member_calls = 0
        self.escapes = 0
        self.last_escape = None
        self.scenario_s = {}


class Tracer:
    """Installs the wrappers and aggregates spans per (layer, function) key."""

    def __init__(self):
        self.frames = [[0.0, ROOT]]
        self.stats = {}             # key -> [calls, total_s, self_s]
        self.c = Counters()
        self.originals = {}         # id(original function) -> (original, wrapper)
        self.wrapped_methods = []   # (class, attribute name)
        self.patches = []           # (object, attribute, previous value)
        self.installed = False

    # -- span plumbing ---------------------------------------------------

    def _rec(self, key):
        rec = self.stats.get(key)
        if rec is None:
            rec = self.stats[key] = [0, 0.0, 0.0]
        return rec

    def span(self, fn, key, enter=None, leave=None):
        """Wrap ``fn`` in a span charged to ``key``.

        ``enter(args, kwargs)`` runs before the call and returns a token;
        ``leave(token, result, exc)`` runs after it, with the exception when
        the call raised.  Neither may change what the call returns or raises.
        """
        frames = self.frames
        rec = self._rec(key)
        if enter is None and leave is None:
            def wrapper(*args, **kwargs):
                frame = [0.0, key]
                frames.append(frame)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    frames.pop()
                    frames[-1][0] += dt
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += dt - frame[0]
        else:
            def wrapper(*args, **kwargs):
                token = enter(args, kwargs) if enter is not None else None
                frame = [0.0, key]
                frames.append(frame)
                t0 = perf_counter()
                result = exc = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                except BaseException as e:
                    exc = e
                    raise
                finally:
                    dt = perf_counter() - t0
                    frames.pop()
                    frames[-1][0] += dt
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += dt - frame[0]
                    if leave is not None:
                        leave(token, result, exc)
        wrapper._perfbench_span = key
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _caller_key(self):
        return self.frames[-1][1]

    def _integrand(self, f, kind):
        """Wrap an integrand as a span of the layer that supplied it."""
        layer, name = self._caller_key()
        if name.endswith(INTEGRAND):
            name = name[: -len(INTEGRAND)]
        key = (layer, name + INTEGRAND)
        c = self.c
        frames = self.frames
        rec = self._rec(key)

        def integrand(*args):
            c.integrand_depth += 1
            entries = c.integral_entries
            frame = [0.0, key]
            frames.append(frame)
            t0 = perf_counter()
            try:
                return f(*args)
            finally:
                dt = perf_counter() - t0
                frames.pop()
                frames[-1][0] += dt
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[0]
                c.integrand_depth -= 1
                if kind == "1d":
                    c.integrand_calls += 1
                    if c.integral_entries == entries:
                        c.leaf_evals += 1
                elif kind == "min":
                    c.min_evals += 1
        integrand._perfbench_span = key
        return integrand

    # -- hand-written wrappers for the counted entry points ----------------

    def _count_divergent(self, exc):
        from convlab.errors import DivergentIntegral
        if isinstance(exc, DivergentIntegral) and exc is not self.c.last_divergent:
            self.c.divergent += 1
            self.c.last_divergent = exc

    def _integral(self, orig, key, kind):
        """integrate_1d ("1d"), integrate_fiber / integrate_radial_2d ("outer")
        and minimize_over_fiber ("min"): wrap the integrand, then the call."""
        c = self.c
        inner = self.span(orig, key, leave=lambda tok, res, exc:
                          exc is not None and self._count_divergent(exc))

        def wrapper(f, *args, **kwargs):
            if kind == "1d":
                c.integral_entries += 1
                if c.integrand_depth > 0:
                    c.nested_calls += 1
            return inner(self._integrand(f, kind), *args, **kwargs)
        wrapper._perfbench_span = key
        wrapper.__wrapped__ = orig
        return wrapper

    def _outermost(self, depth_attr, count_attr):
        """enter/leave pair counting only calls not nested in the same group."""
        c = self.c

        def enter(args, kwargs):
            depth = getattr(c, depth_attr)
            setattr(c, depth_attr, depth + 1)
            if depth == 0 and count_attr is not None:
                setattr(c, count_attr, getattr(c, count_attr) + 1)

        def leave(token, result, exc):
            setattr(c, depth_attr, getattr(c, depth_attr) - 1)
        return enter, leave

    def _special(self, layer, name, orig):
        """The wrapper for one public function, with its counters if any."""
        key = (layer, name)
        c = self.c
        if layer == "numerics" and name == "integrate_1d":
            return self._integral(orig, key, "1d")
        if layer == "numerics" and name in ("integrate_fiber", "integrate_radial_2d"):
            return self._integral(orig, key, "outer")
        if layer == "numerics" and name == "minimize_over_fiber":
            return self._integral(orig, key, "min")
        if layer == "geometry" and name in ("dist_to_complement", "dist_to_set"):
            enter, leave = self._outermost(
                "dist_depth", "queries" if name == "dist_to_complement" else None)
            return self.span(orig, key, enter, leave)
        if layer == "geometry" and name.rsplit(".", 1)[-1] in _MEMBER_METHODS \
                and "." in name:
            enter, leave = self._outermost("member_depth", "member_calls")
            return self.span(orig, key, enter, leave)
        if layer == "geometry" and name == "disc_distance_check":
            from convlab.errors import DiscEscapesDomain

            def leave(token, result, exc):
                if isinstance(exc, DiscEscapesDomain) and exc is not c.last_escape:
                    c.escapes += 1
                    c.last_escape = exc
            return self.span(orig, key, leave=leave)
        if layer == "bergman" and name in _CLOSED_FORMS:
            enter, leave = self._outermost("closed_depth", "closed_calls")
            return self.span(orig, key, enter, leave)
        if layer == "bergman" and name == "gram_kernel":
            sig = inspect.signature(orig)

            def enter(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                return (int(bound.arguments["degree"]) + 1) ** 2, c.leaf_evals

            def leave(token, result, exc):
                entries, evals0 = token
                c.gram_entries += entries * (c.leaf_evals - evals0)
            return self.span(orig, key, enter, leave)
        if layer == "bergman" and name == "radial_moments":
            def leave(token, result, exc):
                if exc is None:
                    c.radial_moments += len(result.values)
                    c.radial_divergent += result.statuses.count("divergent")
            return self.span(orig, key, leave=leave)
        if layer == "bergman" and name == "psh_mean_value_check":
            sig = inspect.signature(orig)

            def enter(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                return int(bound.arguments["n_angles"])

            def leave(n_angles, result, exc):
                if exc is None:
                    c.psh_samples += result.checked * n_angles
            return self.span(orig, key, enter, leave)
        if layer == "prekopa" and name == "convexity_check":
            def leave(token, result, exc):
                if exc is None:
                    c.audit_points += result.checked + result.skipped
            return self.span(orig, key, leave=leave)
        if layer == "scenarios" and name == "run_scenario":
            def enter(args, kwargs):
                return args[0] if args else kwargs["name"], perf_counter()

            def leave(token, result, exc):
                scen, t0 = token
                c.scenario_s[scen] = c.scenario_s.get(scen, 0.0) + perf_counter() - t0
            return self.span(orig, key, enter, leave)
        return self.span(orig, key)

    def _weight_fn(self, fn):
        """Span around one WeightField's ``fn``, counting outermost calls."""
        enter, leave = self._outermost("weight_depth", "weight_evals")
        return self.span(fn, ("weights", "WeightField.fn"), enter, leave)

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every public function and method of the six layers, everywhere."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        import convlab  # noqa: F401  (loads every layer)
        mods = {layer: sys.modules[f"convlab.{layer}"] for layer in LAYERS}

        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    self.originals[id(obj)] = (obj, self._special(layer, name, obj))
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)

        # Re-imported names: replace the original wherever a module holds it.
        for ns in self._namespaces():
            for name, obj in list(vars(ns).items()):
                hit = self.originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(ns, name, hit[1])

        weights = mods["weights"]
        post_init = weights.WeightField.__post_init__
        tracer = self

        def traced_post_init(w):
            post_init(w)
            if not hasattr(w.fn, "_perfbench_span"):
                object.__setattr__(w, "fn", tracer._weight_fn(w.fn))
        self._patch(weights.WeightField, "__post_init__", traced_post_init)
        self.installed = True

    def uninstall(self):
        """Put back every original; weights built while tracing keep their spans."""
        for obj, attr, old in reversed(self.patches):
            setattr(obj, attr, old)
        self.patches.clear()
        self.wrapped_methods.clear()
        self.installed = False

    def _patch(self, obj, attr, new):
        self.patches.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, new)

    def _wrap_class(self, layer, cls):
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _PUBLIC_DUNDERS:
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(val, staticmethod):
                new = staticmethod(self._special(layer, name, val.__func__))
            elif isinstance(val, classmethod):
                new = classmethod(self._special(layer, name, val.__func__))
            elif inspect.isfunction(val):
                new = self._special(layer, name, val)
            else:
                continue  # properties and plain attributes
            self._patch(cls, attr, new)
            self.wrapped_methods.append((cls, attr))

    @staticmethod
    def _namespaces():
        """Every loaded module that may hold a convlab function by name."""
        out = []
        for name, mod in list(sys.modules.items()):
            if mod is None:
                continue
            if name in ("convlab", "suites", "workloads") or name.startswith("convlab."):
                out.append(mod)
        return out

    def coverage_gaps(self, deep: bool = False) -> list:
        """Places that still reach an unwrapped public layer function.

        The shallow check scans every namespace the tracer patches.  The deep
        check asks the garbage collector for every module or class dict that
        still refers to an original.
        """
        gaps = []
        for ns in self._namespaces():
            for name, obj in vars(ns).items():
                hit = self.originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    gaps.append(f"{ns.__name__}.{name}")
        for cls, attr in self.wrapped_methods:
            val = vars(cls)[attr]
            fn = val.__func__ if isinstance(val, (staticmethod, classmethod)) else val
            if not hasattr(fn, "_perfbench_span"):
                gaps.append(f"{cls.__module__}.{cls.__name__}.{attr}")
        if deep:
            module_dicts = {id(vars(m)): m.__name__ for m in list(sys.modules.values())
                            if m is not None and hasattr(m, "__dict__")}
            for orig, wrapper in self.originals.values():
                for ref in gc.get_referrers(orig):
                    if isinstance(ref, dict) and id(ref) in module_dicts:
                        name = next((k for k, v in ref.items() if v is orig), "?")
                        gaps.append(f"{module_dicts[id(ref)]}.{name}")
        return sorted(set(gaps))

    # -- results --------------------------------------------------------------

    def reset(self):
        """Zero every count and time; wrappers stay installed."""
        self.frames[:] = [[0.0, ROOT]]
        for rec in self.stats.values():
            rec[0], rec[1], rec[2] = 0, 0.0, 0.0
        # the wrappers hold this Counters object, so refill it in place
        self.c.__init__()

    def _self(self, pred) -> float:
        return math.fsum(rec[2] for key, rec in self.stats.items() if pred(key))

    def _calls(self, pred) -> int:
        return sum(rec[0] for key, rec in self.stats.items() if pred(key))

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        """Every PER_LAYER metric for one traced pass of ``traced_wall`` seconds."""
        c = self.c
        st = self.stats

        def layer(name):
            return lambda key: key[0] == name

        def named(lay, *prefixes):
            return lambda key: key[0] == lay and key[1].startswith(prefixes)

        panels, rem = divmod(c.integrand_calls, 15)
        if rem:
            raise AssertionError(f"{c.integrand_calls} integrand calls is not 15 per panel")
        calls_1d = st.get(("numerics", "integrate_1d"), [0])[0]
        dist_visits = (st.get(("geometry", "dist_to_complement"), [0])[0]
                       + st.get(("geometry", "dist_to_set"), [0])[0])
        slices = (st.get(("geometry", "fiber"), [0])[0]
                  + st.get(("geometry", "FiberDomain.slice_intervals"), [0])[0])
        numerics_self = self._self(layer("numerics"))
        weights_self = self._self(layer("weights"))
        geometry_self = self._self(layer("geometry"))
        bench_self = traced_wall - self.frames[0][0]
        out = {
            "numerics.panels": panels,
            "numerics.evals": c.leaf_evals,
            "numerics.calls": calls_1d,
            "numerics.nested_calls": c.nested_calls,
            "numerics.divergent": c.divergent,
            "numerics.divergent_frac": c.divergent / calls_1d if calls_1d else 0.0,
            "numerics.self_s": numerics_self,
            "numerics.us_per_panel": 1e6 * numerics_self / panels if panels else 0.0,
            "numerics.min.calls": st.get(("numerics", "minimize_over_fiber"), [0])[0],
            "numerics.min.evals": c.min_evals,
            "numerics.min.self_s": self._self(named("numerics", "minimize_over_fiber")),
            "weights.evals": c.weight_evals,
            "weights.self_s": weights_self,
            "weights.us_per_eval": (1e6 * weights_self / c.weight_evals
                                    if c.weight_evals else 0.0),
            "prekopa.calls": self._calls(lambda k: k[0] == "prekopa"
                                         and not k[1].endswith(INTEGRAND)),
            "prekopa.self_s": self._self(layer("prekopa")),
            "prekopa.audit.points": c.audit_points,
            "prekopa.audit.self_s": self._self(named("prekopa", "convexity_check")),
            "bergman.self_s": self._self(layer("bergman")),
            "bergman.gram.calls": st.get(("bergman", "gram_kernel"), [0])[0],
            "bergman.gram.entries": c.gram_entries,
            "bergman.gram.self_s": self._self(
                named("bergman", "gram_kernel", "bergman_gram", "GramKernel.")),
            "bergman.radial.calls": st.get(("bergman", "radial_moments"), [0])[0],
            "bergman.radial.moments": c.radial_moments,
            "bergman.radial.divergent": c.radial_divergent,
            "bergman.radial.self_s": self._self(
                named("bergman", "radial_moments", "bergman_radial")),
            "bergman.psh.samples": c.psh_samples,
            "bergman.psh.self_s": self._self(named("bergman", "psh_mean_value_check")),
            "bergman.closed.calls": c.closed_calls,
            "bergman.closed.self_s": self._self(named("bergman", *_CLOSED_FORMS)),
            "geometry.queries": c.queries,
            "geometry.node_visits": dist_visits,
            "geometry.visits_per_query": dist_visits / c.queries if c.queries else 0.0,
            "geometry.self_s": geometry_self,
            "geometry.us_per_query": 1e6 * geometry_self / c.queries if c.queries else 0.0,
            "geometry.member_calls": c.member_calls,
            "geometry.slices": slices,
            "geometry.escapes": c.escapes,
            "scenarios.self_s": self._self(layer("scenarios")),
            **{f"scenarios.run_s.{n}": c.scenario_s.get(n, 0.0) for n in SCENARIO_NAMES},
            "bench.self_s": bench_self,
            "trace.wall_s": traced_wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        }
        assert list(out) == list(PER_LAYER), "metric list drifted from PER_LAYER"
        return out

    def layer_self_total(self, traced_wall: float) -> float:
        """Sum of every layer's self time plus the unattributed remainder."""
        layers = math.fsum(rec[2] for rec in self.stats.values())
        return layers + (traced_wall - self.frames[0][0])
