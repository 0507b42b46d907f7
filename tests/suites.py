"""Randomized property suites behind the acceptance gate.

Each suite draws at least a thousand seeded cases of one structural identity
or monotonicity, evaluates both sides honestly -- quadrature against
quadrature, or quadrature against a hand-derived closed form -- and returns a
summary dict.  Nothing asserts in here: the caller owns pass/fail, the suites
own the sampling and the bookkeeping.

Cases are drawn in small batches that share one baseline evaluation (the
un-shifted marginal, the un-bumped moment table, the reference base point),
which halves the quadrature bill without weakening anything: every case still
checks its own freshly randomized instance of the property.

Every coefficient an integrand closes over is a Python float: a scalar draw
already is one, and a vector draw is unpacked through ``.tolist()``.  So the
integrands compute in Python floats from node to value, as ``numerics``
asks; numpy scalars would give the same bits at several times the cost per
operation.

Summary shape::

    {"suite": str, "cases": int, "failures": [str, ...], "worst": {...}}

``failures`` is capped at eight messages; ``worst`` carries the most extreme
signed margin seen for every quantity the suite watches (violations are
positive, so a healthy suite reports negatives or tiny roundoff).
"""

import math

import numpy as np

from convlab.bergman import (MomentTable, bergman_gram, bergman_radial,
                             kernel_curve, radial_moments)
from convlab.geometry import AffineFiberMap, ball_domain, bidisc, full_space
from convlab.prekopa import (convexity_check, marginal_transform,
                             sample_marginal_curve, twisted_marginal)
from convlab.weights import (RadialProfile, constant_weight, convex_localizer,
                             weight_from_fn)

STRIP = full_space((1, 1))
MAX_REPORTED = 8
BATCH = 5

# Identity checks get twice the quadrature abs_tol (1e-10 per side); the
# forward convexity check reuses the stock curve tolerance; Gram comparisons
# get room for the conditioning of a small normal solve.
TOL_IDENTITY = 2e-10
TOL_CONVEX = 1e-7
TOL_CLOSED = 1e-8
TOL_KERNEL_REL = 1e-10
TOL_GRAM = 1e-8


def _note(failures, msg: str) -> None:
    if len(failures) < MAX_REPORTED:
        failures.append(msg)


def _batches(cases: int) -> int:
    return (cases + BATCH - 1) // BATCH


def _tilted_gaussian(rng):
    """A random convex quadratic on R^2 plus its closed-form marginal."""
    ga = rng.uniform(0.4, 3.0)
    be = rng.uniform(-1.2, 1.2)
    al = be * be / ga + rng.uniform(0.0, 2.5)
    t0, x0 = rng.uniform(-1.0, 1.0, 2).tolist()
    c = rng.uniform(-1.0, 1.0)

    def fn(p, al=al, be=be, ga=ga, t0=t0, x0=x0, c=c):
        u, v = p[0] - t0, p[1] - x0
        return float(al * u * u + 2.0 * be * u * v + ga * v * v + c)

    def closed(t, al=al, be=be, ga=ga, t0=t0, c=c):
        return (al - be * be / ga) * (t - t0) ** 2 + c - 0.5 * math.log(math.pi / ga)

    return weight_from_fn(fn, 1, 1, lower_bound=c), closed


def _nonneg_quadratic_twist(rng):
    d = rng.uniform(0.0, 3.0)
    x1 = rng.uniform(-1.0, 1.0)
    c1 = rng.uniform(0.0, 2.0)
    return weight_from_fn(
        lambda p, d=d, x1=x1, c1=c1: float(d * (p[1] - x1) ** 2 + c1),
        1, 1, lower_bound=c1,
    )


def _radial_quartic(rng, cutoff):
    a2, a4 = rng.uniform(0.0, 2.0, 2).tolist()
    return RadialProfile(
        fn=lambda r, a2=a2, a4=a4: a2 * r * r + a4 * r ** 4, cutoff=cutoff)


# ---------------------------------------------------------------------------
# 1. forward direction: marginals of convex weights stay convex


NAMED_CONVEX = (
    ("sum-of-squares", lambda p: float(p[0] ** 2 + p[1] ** 2)),
    ("cross-term", lambda p: float(p[0] ** 2 + p[0] * p[1] + p[1] ** 2)),
    ("taxicab", lambda p: float(abs(p[0]) + abs(p[1]))),
)


def forward_convexity_suite(seed: int, cases: int = 1000) -> dict:
    """Midpoint convexity of marginals of random convex quadratics.

    Each batch lays a random arithmetic grid of seven base points over one
    tilted Gaussian and checks every interior midpoint triple, so a batch
    yields five cases from seven quadratures.  Every evaluation is also
    cross-checked against the hand-integrated closed form.
    """
    rng = np.random.default_rng(seed)
    failures = []
    worst_mid = -math.inf
    worst_closed = 0.0
    done = 0

    for name, fn in NAMED_CONVEX:
        w = weight_from_fn(fn, 1, 1, lower_bound=0.0)
        crv = sample_marginal_curve(w, STRIP, np.linspace(-1.5, 1.5, 41))
        rep = convexity_check(crv.ts, crv.values, tol=TOL_CONVEX)
        worst_mid = max(worst_mid, rep.worst_violation)
        if not rep.verdict:
            _note(failures, f"named weight {name}: marginal not convex "
                            f"(worst {rep.worst_violation:.3e})")

    for b in range(_batches(cases)):
        w, closed = _tilted_gaussian(rng)
        origin = rng.uniform(-1.6, -0.4)
        step = rng.uniform(0.1, 0.35)
        ts = origin + step * np.arange(BATCH + 2)
        fs = [marginal_transform(w, STRIP, t) for t in ts]
        for t, f in zip(ts, fs):
            worst_closed = max(worst_closed, abs(f - closed(t)))
        if worst_closed > TOL_CLOSED:
            _note(failures, f"batch {b}: closed-form gap {worst_closed:.3e}")
        for j in range(1, BATCH + 1):
            if done >= cases:
                break
            viol = fs[j] - 0.5 * (fs[j - 1] + fs[j + 1])
            worst_mid = max(worst_mid, viol)
            if viol > TOL_CONVEX:
                _note(failures,
                      f"batch {b}: midpoint violation {viol:.3e} at {ts[j]:.3f}")
            done += 1

    return {"suite": "forward-convexity", "cases": done + len(NAMED_CONVEX),
            "failures": failures,
            "worst": {"midpoint": worst_mid, "closed_form": worst_closed}}


# ---------------------------------------------------------------------------
# 2. nonnegative twists can only raise the marginal


def twist_monotonicity_suite(seed: int, cases: int = 1000) -> dict:
    """twisted >= plain for pointwise-nonnegative twists.

    Four of five twists per batch are nonnegative fiber quadratics; the fifth
    is a cone localizer lifted by its own certified lower bound so it is
    nonnegative too.  The plain marginal is computed once per batch.
    """
    rng = np.random.default_rng(seed)
    failures = []
    worst = -math.inf
    done = 0

    for b in range(_batches(cases)):
        w, _ = _tilted_gaussian(rng)
        t = rng.uniform(-1.0, 1.0)
        plain = marginal_transform(w, STRIP, t)
        for j in range(BATCH):
            if done >= cases:
                break
            if j == BATCH - 1:
                k = int(rng.integers(2, 33))
                amap = AffineFiberMap.through(0.0, rng.uniform(-1, 1),
                                              1.0, rng.uniform(-1, 1))
                loc = convex_localizer(k, amap)
                twist = loc + constant_weight(-loc.lower_bound, 1, 1)
            else:
                twist = _nonneg_quadratic_twist(rng)
            twisted = twisted_marginal(w, twist, STRIP, t)
            viol = plain - twisted
            worst = max(worst, viol)
            if viol > TOL_IDENTITY:
                _note(failures,
                      f"batch {b} twist {j}: marginal fell by {viol:.3e}")
            done += 1

    return {"suite": "twist-monotonicity", "cases": done,
            "failures": failures, "worst": {"drop": worst}}


# ---------------------------------------------------------------------------
# 3. constant shifts pass through marginals and kernels exactly


def constant_shift_suite(seed: int, cases: int = 1000) -> dict:
    """shift by c: marginal gains c, kernel gains a factor e^c.

    Each batch fixes one base weight, one twist, one radial profile; every
    case then draws its own shift c and checks both the marginal identity
    (against the batch's unshifted twisted marginal) and the kernel identity
    (against the batch's unshifted moment table), plus the exact 1/m0 form of
    the kernel at the center.
    """
    rng = np.random.default_rng(seed)
    failures = []
    worst_marginal = 0.0
    worst_kernel = 0.0
    worst_center = 0.0
    done = 0

    for b in range(_batches(cases)):
        w, _ = _tilted_gaussian(rng)
        twist = _nonneg_quadratic_twist(rng)
        t = rng.uniform(-1.0, 1.0)
        base_val = twisted_marginal(w, twist, STRIP, t)

        cutoff = rng.uniform(0.6, 1.8)
        prof = _radial_quartic(rng, cutoff)
        mt = radial_moments(prof, 3)
        center_gap = abs(bergman_radial(mt, 0.0) - 1.0 / mt.values[0])
        worst_center = max(worst_center, center_gap)
        if center_gap != 0.0:
            _note(failures, f"batch {b}: center kernel not exactly 1/m0")

        for j in range(BATCH):
            if done >= cases:
                break
            c = rng.uniform(-2.0, 2.0)
            lhs = twisted_marginal(w, twist + constant_weight(c, 1, 1), STRIP, t)
            gap = abs(lhs - (base_val + c))
            worst_marginal = max(worst_marginal, gap)
            if gap > TOL_IDENTITY:
                _note(failures,
                      f"batch {b} case {j}: marginal shift off by {gap:.3e}")

            shifted = RadialProfile(
                fn=lambda r, f=prof.fn, c=c: f(r) + c, cutoff=cutoff)
            mt_shift = radial_moments(shifted, 3)
            rho = rng.uniform(0.0, 0.9 * cutoff)
            rel = abs(bergman_radial(mt_shift, rho)
                      - math.exp(c) * bergman_radial(mt, rho))
            rel /= math.exp(c) * bergman_radial(mt, rho)
            worst_kernel = max(worst_kernel, rel)
            if rel > TOL_KERNEL_REL:
                _note(failures,
                      f"batch {b} case {j}: kernel shift off by rel {rel:.3e}")
            done += 1

    return {"suite": "constant-shift", "cases": done, "failures": failures,
            "worst": {"marginal": worst_marginal, "kernel_rel": worst_kernel,
                      "center": worst_center}}


# ---------------------------------------------------------------------------
# 4. kernel monotonicity in the weight, the domain, and the degree


def kernel_monotonicity_suite(seed: int, cases: int = 1000,
                              gram_cases: int = 3) -> dict:
    """Bigger weight => bigger kernel; smaller disc => bigger kernel;
    higher truncation degree => bigger kernel.

    The bulk runs on the radial route (moment tables); a few smooth cases at
    the end confirm the same orderings through the Gram route.
    """
    rng = np.random.default_rng(seed)
    failures = []
    worst_weight = worst_domain = worst_degree = -math.inf
    worst_gram = -math.inf

    for i in range(cases):
        cutoff = rng.uniform(0.6, 1.8)
        prof = _radial_quartic(rng, cutoff)
        mt = radial_moments(prof, 6)
        rho = rng.uniform(0.0, 0.9 * cutoff)

        # raising the weight shrinks every moment and raises the kernel
        d2 = rng.uniform(0.0, 2.0)
        dk = rng.uniform(0.0, 3.0)
        r1 = rng.uniform(0.1, 0.9) * cutoff
        bumped = RadialProfile(
            fn=lambda r, f=prof.fn, d2=d2, dk=dk, r1=r1:
                f(r) + d2 * r * r + dk * max(r - r1, 0.0),
            cutoff=cutoff, seam_radii=(r1,))
        mt_up = radial_moments(bumped, 6)
        moment_growth = max(b - a for a, b in zip(mt.values, mt_up.values))
        kernel_drop = bergman_radial(mt, rho) - bergman_radial(mt_up, rho)
        viol = max(moment_growth, kernel_drop)
        worst_weight = max(worst_weight, viol)
        if viol > TOL_IDENTITY:
            _note(failures, f"case {i}: weight monotonicity broke by {viol:.3e}")

        # shrinking the disc raises the kernel at shared points
        small = cutoff * rng.uniform(0.4, 0.95)
        mt_small = radial_moments(RadialProfile(fn=prof.fn, cutoff=small), 6)
        rho2 = rng.uniform(0.0, 0.9 * small)
        drop = bergman_radial(mt, rho2) - bergman_radial(mt_small, rho2)
        worst_domain = max(worst_domain, drop)
        if drop > TOL_IDENTITY:
            _note(failures, f"case {i}: domain monotonicity broke by {drop:.3e}")

        # truncation degree: partial sums of positive terms never decrease
        prev = -math.inf
        for K in range(len(mt)):
            b = bergman_radial(MomentTable(values=mt.values[:K + 1],
                                           statuses=mt.statuses[:K + 1]), rho)
            worst_degree = max(worst_degree, prev - b)
            if prev > b:
                _note(failures, f"case {i}: kernel fell between degrees "
                                f"{K - 1} and {K}")
            prev = b

    # tie the Gram route to the same monotonicities on a few smooth weights
    disc = ball_domain((0, 1), radius=1.0, kind="complex")
    origin = AffineFiberMap.constant((0.0, 0.0), base_rdim=0)
    for i in range(gram_cases):
        a2 = rng.uniform(0.2, 1.5)
        lift = rng.uniform(0.2, 1.0)
        z = complex(*rng.uniform(-0.35, 0.35, 2))
        wv = weight_from_fn(
            lambda p, a2=a2: a2 * (p[0] ** 2 + p[1] ** 2), 0, 2,
            radial_center=origin,
            radial_fn=lambda t, a2=a2: lambda r: a2 * r * r)
        wu = weight_from_fn(
            lambda p, a2=a2, lift=lift: (a2 + lift) * (p[0] ** 2 + p[1] ** 2),
            0, 2, radial_center=origin,
            radial_fn=lambda t, a2=a2, lift=lift: lambda r: (a2 + lift) * r * r)
        g_low = bergman_gram(wv, disc, (), at=z, degree=4)
        g_high = bergman_gram(wu, disc, (), at=z, degree=4)
        g_deg6 = bergman_gram(wv, disc, (), at=z, degree=6)
        viol = max(g_low - g_high, g_low - g_deg6)
        worst_gram = max(worst_gram, viol)
        if viol > TOL_GRAM:
            _note(failures, f"gram case {i}: monotonicity broke by {viol:.3e}")

    return {"suite": "kernel-monotonicity", "cases": cases + gram_cases,
            "failures": failures,
            "worst": {"weight": worst_weight, "domain": worst_domain,
                      "degree": worst_degree, "gram": worst_gram}}


# ---------------------------------------------------------------------------
# 5. separable weights split: base part peels off marginals and log-kernels


def product_split_suite(seed: int, cases: int = 1000) -> dict:
    """For w(t, x) = u(t) + v(x): marginal(t) - u(t) is t-constant, and the
    localized log-kernel on the bidisc satisfies the same identity.

    Each batch fixes u, v, and a reference base point; every case draws a
    fresh base point and compares its peeled value against the reference,
    both through the marginal and through the radial kernel route.
    """
    rng = np.random.default_rng(seed)
    failures = []
    worst_marginal = 0.0
    worst_kernel = 0.0
    domain = bidisc()
    center = AffineFiberMap.constant((0.0, 0.0), base_rdim=2)
    done = 0

    for b in range(_batches(cases)):
        au, bu, cu = rng.uniform(-2.0, 2.0, 3).tolist()
        ga = rng.uniform(0.4, 3.0)
        x0 = rng.uniform(-1.0, 1.0)
        cv = rng.uniform(-1.0, 1.0)

        def u(t, au=au, bu=bu, cu=cu):
            return float(au * t * t + bu * t + cu)

        w = weight_from_fn(
            lambda p, ga=ga, x0=x0, cv=cv, u=u:
                u(p[0]) + ga * (p[1] - x0) ** 2 + cv,
            1, 1, lower_bound=None)
        t_ref = rng.uniform(-1.2, 1.2)
        peel_ref = marginal_transform(w, STRIP, t_ref) - u(t_ref)

        q0, q1, s2 = rng.uniform(-1.0, 1.0, 3).tolist()
        a2 = rng.uniform(0.0, 2.0)

        def u2(t, q0=q0, q1=q1, s2=s2):
            return float(q0 * t[0] + q1 * t[1] + s2 * (t[0] ** 2 + t[1] ** 2))

        wk = weight_from_fn(
            lambda p, a2=a2, u2=u2: u2(p[:2]) + a2 * (p[2] ** 2 + p[3] ** 2),
            2, 2, radial_center=center,
            radial_fn=lambda t, a2=a2, u2=u2: lambda r, ut=u2(t): ut + a2 * r * r)
        k = int(rng.integers(2, 25))
        n_taus = min(BATCH, cases - done) + 1
        ths = rng.uniform(0.0, 2.0 * math.pi, n_taus)
        rads = rng.uniform(0.0, 0.85, n_taus)
        taus = [complex(rr * math.cos(th), rr * math.sin(th))
                for rr, th in zip(rads, ths)]
        kvals = kernel_curve(wk, domain, center, k, taus)
        kpeel_ref = math.log(kvals[0]) - u2((taus[0].real, taus[0].imag))

        for j in range(n_taus - 1):
            t_j = rng.uniform(-1.2, 1.2)
            peel = marginal_transform(w, STRIP, t_j) - u(t_j)
            gap = abs(peel - peel_ref)
            worst_marginal = max(worst_marginal, gap)
            if gap > TOL_IDENTITY:
                _note(failures,
                      f"batch {b} case {j}: marginal split off by {gap:.3e}")

            tau = taus[j + 1]
            kpeel = math.log(kvals[j + 1]) - u2((tau.real, tau.imag))
            gap = abs(kpeel - kpeel_ref)
            worst_kernel = max(worst_kernel, gap)
            if gap > TOL_IDENTITY:
                _note(failures,
                      f"batch {b} case {j}: kernel split off by {gap:.3e}")
            done += 1

    return {"suite": "product-split", "cases": done, "failures": failures,
            "worst": {"marginal": worst_marginal, "kernel": worst_kernel}}


ALL_SUITES = (
    forward_convexity_suite,
    twist_monotonicity_suite,
    constant_shift_suite,
    kernel_monotonicity_suite,
    product_split_suite,
)
