"""Quadrature, compensated summation, and fiber minimization."""

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from convlab.errors import DivergentIntegral, InvalidParam, NonConvergent, Unbounded
from convlab.geometry import box_domain, disc_region, fiber, full_space
from convlab.numerics import (
    _ABS_TOL,
    _GW,
    _KW,
    _MAX_PANELS,
    _NODES_ROW,
    _REL_TOL,
    _circle_crossings,
    _panel_rule,
    integrate_1d,
    integrate_fiber,
    kahan_total,
    minimize_over_fiber,
    skirt_ladder,
)
from convlab.weights import lemma3_weight

SQRT_PI = math.sqrt(math.pi)
_NODES = np.array(_NODES_ROW)


class TestIntegrate1d:
    def test_polynomial_is_exact(self):
        val = integrate_1d(lambda x: 3 * x * x - 2 * x + 1, -1.0, 2.0)
        np.testing.assert_allclose(val, 9.0, rtol=1e-13)

    def test_gaussian_on_the_whole_line(self):
        val = integrate_1d(lambda x: math.exp(-x * x), -math.inf, math.inf)
        np.testing.assert_allclose(val, SQRT_PI, rtol=1e-12)

    def test_exponential_half_line(self):
        val = integrate_1d(lambda x: math.exp(-x), 0.0, math.inf)
        np.testing.assert_allclose(val, 1.0, rtol=1e-12)
        val = integrate_1d(lambda x: math.exp(x), -math.inf, 0.0)
        np.testing.assert_allclose(val, 1.0, rtol=1e-12)

    def test_kink_with_breakpoint(self):
        val = integrate_1d(abs, -1.0, 1.0, breakpoints=(0.0,))
        np.testing.assert_allclose(val, 1.0, rtol=1e-13)

    def test_empty_interval_is_zero(self):
        assert integrate_1d(lambda x: 1.0, 0.3, 0.3) == 0.0

    @pytest.mark.parametrize("a,b", [(1.0, 0.0), (math.nan, 1.0), (0.0, math.nan)])
    def test_bad_endpoints_rejected(self, a, b):
        with pytest.raises(InvalidParam):
            integrate_1d(lambda x: 1.0, a, b)

    def test_growing_integrand_raises(self):
        with pytest.raises(DivergentIntegral):
            integrate_1d(math.exp, 0.0, math.inf)

    def test_slowly_divergent_tail_raises(self):
        with pytest.raises(DivergentIntegral):
            integrate_1d(lambda x: 1.0 / x, 1.0, math.inf)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_division_by_a_node_at_zero_is_non_convergent(self):
        # the midpoint node of [-1, 1] is exactly 0.0, and a float raises
        # ZeroDivisionError there; the panel is non-finite, as for an overflow
        with pytest.raises(NonConvergent):
            integrate_1d(lambda x: 1.0 / x, -1.0, 1.0)

    @pytest.mark.parametrize("a,b", [(1e20, math.inf), (-math.inf, -1e20)])
    def test_divergent_tail_from_a_huge_end_raises(self, a, b):
        # a window of radius _TAIL_RADIUS at 1e20 rounds to one float and
        # would add 0; the core reaches 16 ulps of the anchor instead
        with pytest.raises(DivergentIntegral):
            integrate_1d(lambda x: 1.0, a, b)

    def test_decaying_tail_from_a_huge_end_is_zero(self):
        assert integrate_1d(lambda x: math.exp(-x), 1e20, math.inf) == 0.0

    @pytest.mark.parametrize("a,b,f,outside", [
        (0.0, math.inf, lambda x: math.exp(-abs(x - 1.0)), (-30.0, -0.5, 0.0)),
        (-math.inf, 0.0, lambda x: math.exp(-abs(x + 1.0)), (0.0, 0.5, 30.0)),
        (-math.inf, math.inf, lambda x: math.exp(-x * x), (-math.inf, math.inf, math.nan)),
    ])
    def test_breakpoints_outside_the_range_are_ignored(self, a, b, f, outside):
        # The core of an improper integral reaches only the breakpoints in (a, b).
        assert _bits(integrate_1d(f, a, b, breakpoints=outside)) == _bits(integrate_1d(f, a, b))

    def test_far_kink_widens_the_core(self):
        # The kink at 20 lies beyond the default core (0, 8); registering it
        # stretches the core to (0, 20) so no tail window straddles it.
        val = integrate_1d(lambda x: math.exp(-abs(x - 20.0)), 0.0, math.inf, breakpoints=(20.0,))
        np.testing.assert_allclose(val, 2.0 - math.exp(-20.0), rtol=1e-12)

    def test_far_bump_found_via_breakpoint(self):
        # A bump far outside the default tail window is invisible unless its
        # location is registered.
        f = lambda x: math.exp(-((x - 40.0) ** 2))
        val = integrate_1d(f, -math.inf, math.inf, breakpoints=(40.0,))
        np.testing.assert_allclose(val, SQRT_PI, rtol=1e-10)

    def test_complex_valued_integrand(self):
        val = integrate_1d(lambda x: complex(math.cos(x), math.sin(x)), 0.0, math.pi)
        np.testing.assert_allclose(val, 2.0j, atol=1e-12)

    def test_vector_valued_integrand(self):
        val = integrate_1d(lambda x: np.array([x, x * x]), 0.0, 1.0)
        np.testing.assert_allclose(val, [0.5, 1.0 / 3.0], rtol=1e-12)

    @given(
        lo=st.floats(-3, 3),
        width=st.floats(0.1, 4),
        c0=st.floats(-5, 5),
        c1=st.floats(-5, 5),
        c2=st.floats(-5, 5),
    )
    @settings(max_examples=50, deadline=None)
    def test_quadratic_matches_antiderivative(self, lo, width, c0, c1, c2):
        hi = lo + width
        F = lambda x: c0 * x + c1 * x * x / 2 + c2 * x ** 3 / 3
        val = integrate_1d(lambda x: c0 + c1 * x + c2 * x * x, lo, hi)
        np.testing.assert_allclose(val, F(hi) - F(lo), rtol=1e-10, atol=1e-10)


@st.composite
def _finite_integrals(draw):
    """(lo, hi, f, breakpoints, split point): a smooth integrand, or a kinked
    one whose kink is registered as its breakpoint."""
    lo, width = draw(st.floats(-5, 5)), draw(st.floats(0.01, 6))
    c0, c1 = draw(st.floats(-3, 3)), draw(st.floats(-3, 3))
    mid = lo + draw(st.floats(0.05, 0.95)) * width
    if draw(st.booleans()):
        kink = lo + draw(st.floats(0.0, 1.0)) * width
        return lo, lo + width, lambda x: c0 * abs(x - kink) + math.cos(c1 * x), (kink,), mid
    return lo, lo + width, lambda x: c0 * math.cos(c1 * x) + math.exp(-x * x), (), mid


def _assert_same_integral(got, want):
    """Equal within twice the tolerance ``integrate_1d`` works to."""
    tol = 2.0 * max(_ABS_TOL, _REL_TOL * abs(want))
    assert abs(got - want) <= tol


def _counted(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)
    return g, calls


class TestAdaptiveFailures:
    @pytest.mark.parametrize("b,n_calls", [
        (1.0 + 1e-15, 15),  # the first panel is already at roundoff width
        (1.0 + 1e-13, 945),  # panels split down to roundoff width first
    ])
    def test_stalls_when_every_panel_is_at_roundoff_width(self, b, n_calls):
        f, calls = _counted(lambda x: 1e30 * math.sin(1e20 * x))
        with pytest.raises(NonConvergent, match="stalled .* roundoff width"):
            integrate_1d(f, 1.0, b)
        assert len(calls) == n_calls

    def test_panel_cap(self):
        f, calls = _counted(lambda x: math.sin(1e6 * x))
        with pytest.raises(NonConvergent, match=f"more than {_MAX_PANELS} panels"):
            integrate_1d(f, 0.0, 1000.0)
        # one initial panel, then two new panels per split until the cap
        assert len(calls) == 15 * (2 * _MAX_PANELS - 1)

    @pytest.mark.parametrize("f,b,breakpoints,message", [
        (math.exp, 1000.0, (), r"on \[0.0, 1000.0\]"),  # math.exp overflows
        (lambda x: math.nan if x > 1.0 else 1.0, 2.0, (1.0,), r"on \[1.0, 2.0\]"),
        # 0.5 is the centre node of [0, 1], the first split of [0, 2]
        (lambda x: math.inf if x == 0.5 else math.sqrt(x), 2.0, (), r"inside \[0.0, 2.0\]"),
    ])
    def test_non_finite_panel_value(self, f, b, breakpoints, message):
        with pytest.raises(NonConvergent, match="non-finite panel value " + message):
            integrate_1d(f, 0.0, b, breakpoints=breakpoints)

    def test_a_raising_first_panel_is_named_alone(self):
        # [0, 100], [100, 800] and [800, 1000] take one call, and math.exp
        # raises in the last two; a call that raises is made again one panel
        # at a time, so the first non-finite panel is named, not the call
        with pytest.raises(NonConvergent, match=r"non-finite panel value on \[100.0, 800.0\]$"):
            integrate_1d(math.exp, 0.0, 1000.0, breakpoints=[100.0, 800.0])

    @pytest.mark.parametrize("pole", [0.5, 1.5])  # the centre node of [0, 1], of [1, 2]
    def test_a_raising_half_of_a_bisection(self, pole):
        # both halves of the first split of [0, 2] take one call, which a
        # float division by zero at either centre node makes raise
        with pytest.raises(NonConvergent, match=r"non-finite panel value inside \[0.0, 2.0\]$"):
            integrate_1d(lambda x: 1.0 / (x - pole), 0.0, 2.0)

    def test_a_raising_tail_window_is_named(self):
        # the window [520, 1032] is the first that reaches beyond math.exp's range
        with pytest.raises(DivergentIntegral, match=r"^tail window \[520.0, 1032.0\] did not "
                           r"stabilize: non-finite panel value on \[520.0, 1032.0\]$"):
            integrate_1d(math.exp, 0.0, math.inf)

    @pytest.mark.parametrize("f,b,breakpoints", [
        (lambda x: 5e307, 4.0, (1.0, 2.0, 3.0)),  # four finite panels of 5e307
        # three finite pieces of about 7e307: the core and two tail windows
        (lambda x: 2e307 * sum(math.exp(-(x - c) ** 2) for c in (2, 5, 10, 14, 20, 28)),
         math.inf, ()),
    ], ids=["panels", "tail-pieces"])
    def test_finite_parts_summing_beyond_the_float_range(self, f, b, breakpoints):
        with pytest.raises(NonConvergent, match=r"on \[0.0, %s\] sum beyond the float range" % b):
            integrate_1d(f, 0.0, b, breakpoints=breakpoints)


class TestIntegrate1dProperties:
    @given(_finite_integrals())
    @settings(max_examples=60, deadline=None)
    def test_additive_over_a_split_interval(self, case):
        lo, hi, f, bps, mid = case
        parts = (integrate_1d(f, lo, mid, breakpoints=bps)
                 + integrate_1d(f, mid, hi, breakpoints=bps))
        _assert_same_integral(parts, integrate_1d(f, lo, hi, breakpoints=bps))

    @given(_finite_integrals())
    @settings(max_examples=60, deadline=None)
    def test_an_inserted_breakpoint_changes_nothing(self, case):
        lo, hi, f, bps, mid = case
        _assert_same_integral(integrate_1d(f, lo, hi, breakpoints=bps + (mid,)),
                              integrate_1d(f, lo, hi, breakpoints=bps))

    @given(_finite_integrals())
    @settings(max_examples=60, deadline=None)
    def test_reflection_symmetry(self, case):
        lo, hi, f, bps, _ = case
        mirrored = integrate_1d(lambda x: f(-x), -hi, -lo, breakpoints=[-p for p in bps])
        _assert_same_integral(mirrored, integrate_1d(f, lo, hi, breakpoints=bps))


def _cumsum_panel_rule(f, a, b):
    """The GK15 panel rule with every sum left to right, by ``np.cumsum`` along
    the nodes.

    Values of one entry per node are numbers, as in the rule: their |z| is C's
    hypot (Python's abs) and their ``** 1.5`` is C's pow.  Larger arrays take
    numpy's absolute value and power.
    """
    eps = float(np.finfo(np.float64).eps)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    stack = np.array([f(mid + half * u) for u in _NODES])
    flat = stack.reshape(15, -1)
    number = flat.shape[1] == 1
    total = lambda terms: np.cumsum(terms, axis=0)[-1]
    mag = (lambda z: np.hypot(np.real(z), np.imag(z))) if number else np.abs
    resk = total(_KW[:, None] * flat) * half
    resg = total(_GW[:, None] * flat[1::2]) * half
    resabs = total(_KW[:, None] * mag(flat)) * abs(half)
    reskh = resk * 0.5
    resasc = total(_KW[:, None] * mag(flat * half - reskh))
    raw = mag(resk - resg)
    scale = 200.0 * raw / np.where(resasc == 0.0, 1.0, resasc)
    power = np.array([math.pow(min(x, 1.0), 1.5) for x in scale]) if number else scale ** 1.5
    err = np.where((resasc != 0.0) & (raw != 0.0), resasc * np.minimum(1.0, power), raw)
    err = np.maximum(err, 50.0 * eps * resabs)
    return resk.reshape(stack.shape[1:]), float(err.max())


def _bits(v):
    v = np.asarray(v)
    return v.shape, v.dtype, v.tobytes()


def _integrand(kind, c0, c1, degree):
    if kind == "real":
        return lambda x: c0 * math.cos(c1 * x) + math.exp(-x * x)
    if kind == "complex":
        return lambda x: complex(math.cos(c1 * x), c0 * x) * math.exp(-0.1 * x * x)
    js = np.arange(degree + 1)
    if kind == "vector":  # a vector of monomial moments, one per power
        return lambda x: abs(x) ** (2 * js + 1) * math.exp(-c0 * c0 - x * x)

    def tensor(x):  # shaped like the Gram route's rank-one integrand
        b = (complex(x, c1) - c0) ** js
        return b[:, None] * b.conj() * math.exp(-x * x)
    return tensor


_KINDS = st.sampled_from(["real", "complex", "vector", "matrix"])


def _per_node(f):
    """The batched panel integrand of a per-node ``f``, as ``integrate_1d`` makes it."""
    return lambda xs: [f(x) for x in xs]


class TestPanelRule:
    @given(kind=_KINDS, lo=st.floats(-20, 20), width=st.floats(1e-6, 10),
           c0=st.floats(-3, 3), c1=st.floats(-3, 3), degree=st.integers(0, 16))
    @settings(max_examples=200, deadline=None)
    # A degree-0 Gram tensor: numpy would sum its single column pairwise.
    @example(kind="matrix", lo=1.05, width=1.82, c0=-1.7, c1=1.2, degree=0)
    def test_matches_the_left_to_right_rule_to_the_bit(self, kind, lo, width, c0, c1, degree):
        # Every sum runs left to right over the nodes: numbers in Python,
        # arrays a row at a time, a single-entry array as a number.
        f = _integrand(kind, c0, c1, degree)
        (val, err), = _panel_rule(_per_node(f), [(lo, lo + width)])
        ref_val, ref_err = _cumsum_panel_rule(f, lo, lo + width)
        assert _bits(val) == _bits(ref_val)
        assert err == ref_err

    @given(mid=st.floats(allow_nan=False, allow_infinity=False),
           half=st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=300, deadline=None)
    @example(mid=-0.0, half=-0.0)
    @example(mid=0.0, half=-0.0)
    @example(mid=-0.0, half=5e-324)
    @example(mid=5e-324, half=-2.2250738585072014e-308)
    @example(mid=1.7976931348623157e308, half=1.7976931348623157e308)
    @example(mid=-1e308, half=1e308)
    @example(mid=1e300, half=1e-300)
    def test_nodes_in_python_floats_match_the_array_expression(self, mid, half):
        # Each node rounds a product and a sum, as numpy's array expression
        # does, including at overflow, in the subnormal range and at zeros.
        with np.errstate(over="ignore"):
            want = (mid + half * _NODES).tolist()
        got = [mid + half * u for u in _NODES_ROW]
        assert [x.hex() for x in got] == [x.hex() for x in want]

    @pytest.mark.parametrize("zero, value", [
        (-0.0, -0.0), (0.0, 0.0),
        # a real weight times complex(-0.0, -0.0) is a complex product: +0.0
        (complex(-0.0, -0.0), complex(0.0, 0.0))])
    def test_a_panel_of_zeros_keeps_the_signed_zero_start(self, zero, value):
        # Sums start from -0.0, so a panel of -0.0 values is worth -0.0 (a
        # +0.0 start would give +0.0), one of +0.0 values +0.0; the error
        # of either is +0.0, as the left-to-right rule gives it.
        (val, err), = _panel_rule(_per_node(lambda x: zero), [(-1.0, 2.0)])
        ref_val, ref_err = _cumsum_panel_rule(lambda x: zero, -1.0, 2.0)
        assert type(val) is type(zero)
        assert _bits(val) == _bits(ref_val) == _bits(value)
        assert math.copysign(1.0, err) == math.copysign(1.0, ref_err) == 1.0
        assert err == ref_err == 0.0

    @pytest.mark.parametrize("wrap, as_python", [
        (np.float32, float), (np.asarray, float), (lambda v: round(1e6 * v), float),
        (np.complex64, complex), (lambda v: np.asarray(complex(v, -v)), complex)])
    def test_any_scalar_type_takes_the_python_reduction(self, wrap, as_python):
        # Ints, numpy scalars and 0-d arrays are summed as the Python numbers
        # they convert to.
        f = _integrand("real", 0.7, 1.3, 0)
        (val, err), = _panel_rule(_per_node(lambda x: wrap(f(x))), [(-0.4, 2.1)])
        (ref_val, ref_err), = _panel_rule(_per_node(lambda x: as_python(wrap(f(x)))),
                                          [(-0.4, 2.1)])
        assert type(val) is as_python
        assert _bits(val) == _bits(ref_val)
        assert err == ref_err

    @given(kind=st.sampled_from(["real", "complex"]), scale=st.floats(1e290, 1.7e308),
           lo=st.floats(-1e10, 1e10), width=st.floats(1e-3, 1e10), freq=st.floats(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_values_near_the_float_range_give_inf_or_a_finite_error(
            self, kind, scale, lo, width, freq):
        # Python floats overflow to inf in products, while ``**`` and abs() of
        # a complex number raise OverflowError; the panel gives (inf, inf) or
        # a finite error and never raises.
        def f(x):
            c, s = math.cos(freq * float(x)), math.sin(freq * float(x))
            return scale * c if kind == "real" else complex(scale * c, scale * s)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (val, err), = _panel_rule(_per_node(f), [(lo, lo + width)])
        assert (val, err) == (math.inf, math.inf) or (
            math.isfinite(err) and np.isfinite(val))

    @pytest.mark.parametrize("value, width", [(1e308, 10.0), (1e300, 1e10),
                                              (complex(1.5e308, 1.5e308), 1.0)])
    def test_an_overflowing_panel_is_inf(self, value, width):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pairs = _panel_rule(_per_node(lambda x: value), [(0.0, width)])
        assert pairs == [(math.inf, math.inf)]

    @given(kind=_KINDS, node=st.integers(0, 14), bad=st.sampled_from([math.inf, math.nan]),
           degree=st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_one_non_finite_node_gives_inf(self, kind, node, bad, degree):
        smooth = _integrand(kind, 0.5, 1.5, degree)
        x_bad = 0.5 + 0.5 * _NODES[node]
        f = lambda x: smooth(x) + bad if x == x_bad else smooth(x)
        (val, err), = _panel_rule(_per_node(f), [(0.0, 1.0)])
        assert err == math.inf
        assert np.all(np.asarray(val) == math.inf)
        assert np.shape(val) == np.shape(smooth(0.5))

    @given(kind=_KINDS, degree=st.integers(0, 16), c0=st.floats(-3, 3), c1=st.floats(-3, 3),
           edges=st.lists(st.floats(-20, 20), min_size=2, max_size=5, unique=True),
           bad=st.none() | st.tuples(st.integers(0, 3), st.integers(0, 14),
                                     st.sampled_from([math.inf, math.nan, "raise"])))
    @settings(max_examples=200, deadline=None)
    def test_panels_in_one_call_give_each_panel_alone(self, kind, degree, c0, c1, edges, bad):
        # One (value, error) per panel, with the bits of a call of that panel
        # alone, also where one node of one panel is non-finite or raises.
        edges = sorted(edges)
        intervals = list(zip(edges, edges[1:]))
        smooth = f = _integrand(kind, c0, c1, degree)
        if bad is not None:
            panel, node, value = bad
            lo, hi = intervals[panel % len(intervals)]
            x_bad = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _NODES_ROW[node]

            def f(x):
                if x != x_bad:
                    return smooth(x)
                if value == "raise":
                    raise OverflowError
                return smooth(x) + value
        together = _panel_rule(_per_node(f), intervals)
        alone = [_panel_rule(_per_node(f), [iv])[0] for iv in intervals]
        assert [(_bits(v), e) for (v, e) in together] == [(_bits(v), e) for (v, e) in alone]

    @given(rate=st.floats(0.05, 4.0), freq=st.floats(-3, 3), start=st.floats(-5, 5))
    # no shrink phase: a broken panel rule makes tail integrals hit the panel
    # cap, and shrinking through them took minutes before reporting
    @settings(max_examples=25, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    def test_tail_integral_repeats_bit_for_bit(self, rate, freq, start):
        f = lambda x: math.exp(-rate * abs(x)) * complex(math.cos(freq * x), 1.0)
        first = integrate_1d(f, start, math.inf)
        assert _bits(integrate_1d(f, start, math.inf)) == _bits(first)


def _monomials(c, degree):
    """A panel factor shaped like the Gram route's: the upper triangle of
    b b^H at the points x + 0.3i, with b = (z - c)^j.  Numpy hands the
    product back in a transposed memory layout."""
    js = np.arange(degree + 1)
    rows, cols = np.triu_indices(degree + 1)

    def factor(xs):
        b = np.array([complex(x, 0.3) - c for x in xs])[:, None] ** js
        return b[:, rows] * b[:, cols].conj()
    return factor


def _recorded(seen):
    def f(x):
        seen.append(x)
        return math.exp(-x * x)
    return f


_FACTOR_RANGES = [(-1.0, 2.0, ()), (0.0, 1.5, (0.4,)), (0.5, math.inf, ()),
                  (-math.inf, math.inf, (0.0,))]


class TestFactor:
    """``integrate_1d(f, a, b, factor=F)``: the integrand at a node is
    ``F(nodes)[i] * f(x_i)``, with F formed once per call of the panel rule."""

    @pytest.mark.parametrize("a, b, bps", _FACTOR_RANGES)
    @pytest.mark.parametrize("degree", [0, 3, 8])
    def test_equals_the_per_node_product_bit_for_bit(self, a, b, bps, degree):
        factor = _monomials(0.2 - 0.1j, degree)
        batched, per_node = [], []
        got = integrate_1d(_recorded(batched), a, b, breakpoints=bps, factor=factor)
        f = _recorded(per_node)
        want = integrate_1d(lambda x: factor([x])[0] * f(x), a, b, breakpoints=bps)
        assert _bits(got) == _bits(want)
        assert batched == per_node

    @pytest.mark.parametrize("a, b, bps", _FACTOR_RANGES)
    def test_a_fortran_ordered_factor_gives_the_same_bits(self, a, b, bps):
        # Numpy sums the columns of a Fortran-ordered stack pairwise, not row
        # after row, so the panel rule makes the stack C-ordered first.
        factor = _monomials(0.2 - 0.1j, 8)
        f = lambda x: math.exp(-x * x)
        c_order = integrate_1d(f, a, b, breakpoints=bps,
                               factor=lambda xs: np.ascontiguousarray(factor(xs)))
        f_order = integrate_1d(f, a, b, breakpoints=bps,
                               factor=lambda xs: np.asfortranarray(factor(xs)))
        assert _bits(f_order) == _bits(c_order)

    def test_integrate_fiber_passes_the_factor_to_its_inner_integrals(self):
        # the factor takes the points of a panel; here, the monomials of x
        js = np.arange(4)
        factor = lambda pts: np.array([p[0] for p in pts])[:, None] ** js
        f = lambda p: math.exp(-sum(v * v for v in p))
        fib = fiber(disc_region(0.75, 0.3 - 0.2j), ())
        seams = {"seams": (((0.0, 0.0), 0.5),)}
        got = integrate_fiber(f, fib, factor=factor, **seams)
        want = integrate_fiber(lambda p: factor([p])[0] * f(p), fib, **seams)
        assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("interval", [(-1.0, 2.0), (1.0, 1.0)])
    def test_a_one_dimensional_fiber_refuses_a_factor(self, interval):
        # rather than integrate f alone, an empty fiber included
        fib = fiber(box_domain((interval[0],), (interval[1],), split=(0, 1)), ())
        with pytest.raises(InvalidParam, match="dimension 2 only"):
            integrate_fiber(lambda p: 1.0, fib, factor=lambda pts: np.ones((len(pts), 2)))


def _digest(xs):
    return hashlib.sha256(" ".join(x.hex() for x in xs).encode()).hexdigest()[:16]


class TestNodeSequence:
    """The nodes an integrand sees, in order, pinned by a digest: batching
    panels into one call must not move, add or drop a node."""

    def test_improper_integral_with_breakpoints(self):
        seen = []

        def f(x):
            seen.append(x)
            return math.exp(-abs(x - 1.5)) * (1.0 + 0.5 * math.cos(3.0 * x))
        integrate_1d(f, -math.inf, math.inf, breakpoints=(1.5, -2.0, 12.0))
        assert (len(seen), _digest(seen)) == (840, "37ebc9c6773afe1f")

    def test_gram_inner_slice(self):
        # one inner integral of a degree-8 Gram matrix on the unit disc, as
        # integrate_fiber makes it at x = 0.3: lemma3's density times the
        # monomial products, between the crossings of the seam circle
        w, x, c = lemma3_weight(4, 0.5), 0.3, 0.2 + 0.1j
        fib = fiber(disc_region(1.0), ())
        density = w.fiber_density(fib)
        (ylo, yhi), = fib.slice_intervals(x)
        circles = [(cx, cy, r) for ((cx, cy), r) in w.fiber_seams(())]
        js = np.arange(9)
        rows, cols = np.triu_indices(9)

        def factor(ys):
            b = np.array([complex(x, y) - c for y in ys])[:, None] ** js
            return np.take(b, rows, 1) * np.take(b.conj(), cols, 1)
        seen = []

        def g(y):
            seen.append(y)
            return density((x, y))
        integrate_1d(g, ylo, yhi, breakpoints=_circle_crossings(x, circles),
                     abs_tol=_ABS_TOL / 32.0, factor=factor)
        assert (len(seen), _digest(seen)) == (105, "aabf1d43970dd3dd")


class TestSkirtLadder:
    def test_keeps_the_original_points(self):
        out = skirt_ladder((0.3, -1.0))
        assert 0.3 in out and -1.0 in out

    def test_default_scales_are_symmetric(self):
        out = skirt_ladder((2.0,))
        for s in (1e-7, 1e-5, 1e-3, 1e-1, 1.0):
            assert 2.0 - s in out
            assert 2.0 + s in out

    def test_rate_adds_matched_scales(self):
        out = skirt_ladder((0.0,), rate=100.0)
        for mult in (1.0, 8.0, 64.0, 512.0):
            assert mult / 100.0 in out

    def test_empty_input(self):
        assert skirt_ladder(()) == ()

    def test_narrow_spike_is_integrated(self):
        # The reason this helper exists: a spike of width 1e-6 sits between
        # the sample nodes of any panel of width O(1), so plain adaptive
        # refinement estimates zero and stops.  The ladder forces panels at
        # the spike's own scale.
        f = lambda x: math.exp(-(((x - 0.3) / 1e-6) ** 2))
        val = integrate_1d(f, -8.0, 8.0, breakpoints=skirt_ladder((0.3,)))
        np.testing.assert_allclose(val, SQRT_PI * 1e-6, rtol=1e-8)

    def test_spike_with_known_rate(self):
        f = lambda x: math.exp(-1e6 * abs(x - 0.3))
        val = integrate_1d(f, -4.0, 4.0, breakpoints=skirt_ladder((0.3,), rate=1e6))
        np.testing.assert_allclose(val, 2e-6, rtol=1e-9)


class TestKahanTotal:
    def test_repeated_decimal_fractions(self):
        assert kahan_total([0.1] * 10) == 1.0

    def test_many_tiny_increments(self):
        parts = [1.0] + [1e-16] * 10000
        total = kahan_total(parts)
        np.testing.assert_allclose(total - 1.0, 1e-12, rtol=1e-3)

    def test_array_parts(self):
        out = kahan_total([np.array([0.1, 0.2])] * 10)
        np.testing.assert_allclose(out, [1.0, 2.0], rtol=1e-15)

    def test_empty(self):
        assert kahan_total([]) == 0.0

    @given(st.lists(st.floats(width=64), max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_float_parts_match_the_array_sum_to_the_bit(self, parts):
        # reference: the same compensated sum on 0-d arrays
        total = carry = None
        with np.errstate(all="ignore"):
            for p in map(np.asarray, parts):
                if total is None:
                    total, carry = p.copy(), np.zeros_like(p)
                    continue
                y = p - carry
                t = total + y
                carry = (t - total) - y
                total = t
        want = 0.0 if total is None else total[()]
        got = kahan_total(parts)
        assert type(got) is float
        if not (math.isnan(got) and math.isnan(want)):  # numpy and CPython pick different NaN signs
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_numpy_scalars_stay_numpy_scalars(self):
        assert type(kahan_total([np.float64(0.1)] * 3)) is np.float64


class TestIntegrandsSeePythonFloats:
    """Every node and every fiber coordinate reaches an integrand as a Python
    float, never a numpy scalar."""

    @pytest.mark.parametrize("a,b,bps", [
        (0.0, 1.0, ()),
        (-2.0, 3.0, (0.5,)),
        (0.0, math.inf, (1.0,)),
        (-math.inf, math.inf, ()),
    ])
    def test_integrate_1d_nodes_are_floats(self, a, b, bps):
        seen = set()

        def f(x):
            seen.add(type(x))
            return math.exp(-abs(x))
        integrate_1d(f, a, b, breakpoints=bps)
        assert seen == {float}

    @pytest.mark.parametrize("domain, seams", [
        (box_domain((-1.0,), (2.0,), split=(0, 1)), {"seams": (((0.5,), 0.0),)}),
        (full_space(split=(0, 1)), {}),
        (disc_region(0.75, 0.3 - 0.2j), {"seams": (((0.0, 0.0), 0.5),)}),
        (full_space(split=(0, 2)), {}),
    ])
    def test_integrate_fiber_points_are_tuples_of_floats(self, domain, seams):
        seen = set()

        def f(x):
            seen.add((type(x), *map(type, x)))
            return math.exp(-sum(v * v for v in x))
        fib = fiber(domain, ())
        integrate_fiber(f, fib, **seams)
        assert seen == {(tuple, *[float] * fib.dim)}


class TestIntegrateFiber:
    def test_interval_fiber(self):
        dom = box_domain((-1.0,), (2.0,), split=(0, 1))
        val = integrate_fiber(lambda x: x[0] * x[0], fiber(dom, ()))
        np.testing.assert_allclose(val, 3.0, rtol=1e-12)

    def test_intervals_summing_beyond_the_float_range(self):
        class TwoIntervals:  # two intervals of width 2, each integrating to 1e308
            dim = 1

            def quad_intervals(self):
                return [(0.0, 2.0), (3.0, 5.0)]

        with pytest.raises(NonConvergent, match="on the fiber sum beyond the float range"):
            integrate_fiber(lambda x: 5e307, TwoIntervals())

    def test_interval_kink_via_a_radius_zero_seam(self):
        dom = box_domain((-1.0,), (1.0,), split=(0, 1))
        val = integrate_fiber(lambda x: abs(x[0]), fiber(dom, ()), seams=(((0.0,), 0.0),))
        np.testing.assert_allclose(val, 1.0, rtol=1e-13)

    def test_a_one_dimensional_seam_is_its_two_ends_on_a_ladder(self):
        # the ends c -+ r, padded by skirt_ladder at the decay rate
        f = lambda x: math.exp(-8.0 * abs(abs(x[0] - 0.2) - 0.5))
        dom = box_domain((-2.0,), (3.0,), split=(0, 1))
        got = integrate_fiber(f, fiber(dom, ()), seams=(((0.2,), 0.5),), rate=8.0)
        ladder = skirt_ladder((0.2 - 0.5, 0.2 + 0.5), 8.0)
        want = integrate_1d(lambda x: f((x,)), -2.0, 3.0, breakpoints=ladder)
        assert _bits(got) == _bits(want)

    def test_a_two_dimensional_fiber_takes_no_rate(self):
        f = lambda x: 1.0 + max(0.0, 0.25 - (x[0] - 0.5) ** 2 - x[1] ** 2)
        fib, seams = fiber(disc_region(1.0), ()), (((0.5, 0.0), 0.5),)
        assert _bits(integrate_fiber(f, fib, seams=seams, rate=8.0)) \
            == _bits(integrate_fiber(f, fib, seams=seams))

    @pytest.mark.parametrize("domain, seam", [
        (box_domain((-1.0,), (1.0,), split=(0, 1)), ((0.0, 0.0), 0.5)),
        (disc_region(1.0), ((0.0,), 0.5)),
    ], ids=["2d-seam-on-an-interval", "1d-seam-on-a-disc"])
    def test_a_seam_of_another_dimension_is_refused(self, domain, seam):
        # a seam the quadrature cannot place is an error, never a seam skipped
        with pytest.raises(InvalidParam, match="needs a center of length"):
            integrate_fiber(lambda x: 1.0, fiber(domain, ()), seams=(seam,))

    def test_disc_area(self):
        val = integrate_fiber(lambda x: 1.0, fiber(disc_region(0.75), ()))
        np.testing.assert_allclose(val, math.pi * 0.5625, rtol=1e-10)

    def test_plane_gaussian(self):
        dom = full_space(split=(0, 2))
        val = integrate_fiber(
            lambda x: math.exp(-(x[0] ** 2 + x[1] ** 2)), fiber(dom, ())
        )
        np.testing.assert_allclose(val, math.pi, rtol=1e-9)

    def test_indicator_needs_circle_seam(self):
        dom = disc_region(1.0)
        ind = lambda x: 1.0 if x[0] ** 2 + x[1] ** 2 <= 0.25 else 0.0
        val = integrate_fiber(
            lambda x: ind(x), fiber(dom, ()), seams=(((0.0, 0.0), 0.5),)
        )
        np.testing.assert_allclose(val, math.pi / 4.0, rtol=1e-6)

    # The outer integrand of a disc has square-root endpoints at x = c -+ r;
    # the segment map of the outer variable makes them smooth.

    def test_off_centre_disc_area(self):
        val = integrate_fiber(lambda x: 1.0, fiber(disc_region(0.75, 0.3 - 0.2j), ()))
        np.testing.assert_allclose(val, math.pi * 0.5625, rtol=1e-13)

    def test_disc_second_moment(self):
        val = integrate_fiber(lambda x: x[0] * x[0] + x[1] * x[1], fiber(disc_region(1.0), ()))
        np.testing.assert_allclose(val, math.pi / 2.0, rtol=1e-13)

    def test_seam_circle_tangent_to_the_disc(self):
        # A cone of height 1/4 over the circle |z - 1/2| = 1/2, which touches
        # the unit circle at z = 1: its volume is pi/32.
        f = lambda x: 1.0 + max(0.0, 0.25 - (x[0] - 0.5) ** 2 - x[1] ** 2)
        val = integrate_fiber(f, fiber(disc_region(1.0), ()),
                              seams=(((0.5, 0.0), 0.5),))
        np.testing.assert_allclose(val, math.pi + math.pi / 32.0, rtol=1e-13)

    def test_disc_area_takes_few_integrand_calls(self):
        calls = []

        def one(x):
            calls.append(1)
            return 1.0
        integrate_fiber(one, fiber(disc_region(0.75), ()))
        assert len(calls) <= 2000  # 18,000 with the unmapped outer variable

    def test_two_dimensional_fiber_repeats_bit_for_bit(self):
        js = np.arange(4)

        def tensor(x):
            b = complex(x[0], x[1]) ** js
            return b[:, None] * b.conj() * math.exp(-abs(x[0] - 0.1))
        fd = fiber(disc_region(0.9, 0.2 + 0.1j), ())
        seams = (((0.0, 0.0), 0.5),)
        first = integrate_fiber(tensor, fd, seams=seams)
        assert _bits(integrate_fiber(tensor, fd, seams=seams)) == _bits(first)


class TestMinimizeOverFiber:
    def test_interior_minimum(self):
        dom = box_domain((-1.0,), (2.0,), split=(0, 1))
        arg, val = minimize_over_fiber(lambda x: (x[0] - 0.3) ** 2, fiber(dom, ()))
        np.testing.assert_allclose(arg, [0.3], atol=1e-8)
        assert val < 1e-15

    def test_boundary_minimum(self):
        dom = box_domain((-1.0,), (2.0,), split=(0, 1))
        arg, val = minimize_over_fiber(lambda x: -x[0], fiber(dom, ()))
        np.testing.assert_allclose(arg, [2.0], rtol=1e-9)
        np.testing.assert_allclose(val, -2.0, rtol=1e-9)

    def test_unbounded_fiber_needs_a_box(self):
        fd = fiber(full_space(split=(0, 1)), ())
        with pytest.raises(Unbounded):
            minimize_over_fiber(lambda x: -x[0], fd)

    def test_search_box_on_the_whole_line(self):
        fd = fiber(full_space(split=(0, 1)), ())
        arg, val = minimize_over_fiber(
            lambda x: (x[0] - 0.3) ** 2, fd, search_box=((-4.0, 4.0),)
        )
        np.testing.assert_allclose(arg, [0.3], atol=1e-8)

    def test_two_dimensional_fiber(self):
        fd = fiber(disc_region(1.0), ())
        f = lambda x: (x[0] - 0.2) ** 2 + (x[1] + 0.1) ** 2
        arg, val = minimize_over_fiber(f, fd)
        np.testing.assert_allclose(arg, [0.2, -0.1], atol=1e-7)
        assert val < 1e-13

    @pytest.mark.parametrize("domain, box, f", [
        (disc_region(1.0), None, lambda p: (p[0] - 0.2) ** 2 + (p[1] + 0.1) ** 2),
        (full_space(split=(0, 1)), ((-4.0, 4.0),), lambda p: (p[0] - 0.3) ** 2),
        # a flat minimum on the box's edge, compared with its inward neighbour
        (full_space(split=(0, 1)), ((-1.0, 2.0),), lambda p: 1.0),
    ])
    def test_grid_points_are_tuples_of_floats(self, domain, box, f):
        seen = set()

        class Spy:  # the fiber, recording what its member test is handed
            def __init__(self, fib):
                self.fib = fib

            def __getattr__(self, name):
                return getattr(self.fib, name)

            def member(self, p, closed=False):
                seen.add(("member", type(p), *map(type, p)))
                return self.fib.member(p, closed)

        def g(p):
            seen.add(("f", type(p), *map(type, p)))
            return f(p)
        fib = fiber(domain, ())
        arg, _ = minimize_over_fiber(g, Spy(fib), search_box=box)
        assert seen == {(who, tuple, *[float] * fib.dim) for who in ("member", "f")}
        assert (type(arg), *map(type, arg)) == (tuple, *[float] * fib.dim)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_everywhere_gives_the_first_node_and_infinity(self):
        fd = fiber(full_space(split=(0, 1)), ())
        arg, val = minimize_over_fiber(lambda x: math.inf, fd, search_box=((-1.0, 2.0),))
        assert arg == (-1.0,) and val == math.inf

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_never_wins_over_a_finite_value(self):
        dom = box_domain((-1.0,), (2.0,), split=(0, 1))
        f = lambda x: math.nan if x[0] < 0.0 else (x[0] - 0.3) ** 2
        arg, val = minimize_over_fiber(f, fiber(dom, ()))
        np.testing.assert_allclose(arg, [0.3], atol=1e-8)
        assert val < 1e-15


class TestQuadConfig:
    def test_tolerances_are_honoured(self):
        val = integrate_1d(lambda x: math.exp(-x * x), -math.inf, math.inf, abs_tol=1e-4)
        np.testing.assert_allclose(val, SQRT_PI, rtol=1e-3)

    @pytest.mark.parametrize("abs_tol", [0.0, -1e-10, math.nan, math.inf])
    def test_bad_abs_tol_rejected(self, abs_tol):
        with pytest.raises(InvalidParam):
            integrate_1d(lambda x: 1.0, 0.0, 1.0, abs_tol=abs_tol)
