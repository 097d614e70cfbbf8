"""Scalar special functions: log-gamma, normal CDF, Riemann and Hurwitz zeta.

Zeta values are computed with Euler-Maclaurin summation under explicit
remainder control, which keeps full double accuracy even for exponents
barely above 1 (the regime power-law count data lives in).  Log-gamma and
the normal CDF delegate to the C library via :mod:`math`, which already
meets the accuracy contract here; only domain validation is added.
"""

from __future__ import annotations

import math

from scipy.optimize import brentq

from .errors import ConvergenceError, DomainError

__all__ = [
    "ln_gamma",
    "normal_cdf",
    "riemann_zeta",
    "hurwitz_zeta",
    "solve_zeta_equals",
]

# relative accuracy of every zeta value, and the iteration budget of the
# bracket search and root polish in solve_zeta_equals
_REL_TOL = 1e-12
_MAX_ITER = 200


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if not (x > 0.0) or math.isinf(x):
        raise DomainError(f"ln_gamma requires finite x > 0, got {x}")
    return math.lgamma(x)


_SQRT2 = math.sqrt(2.0)


def normal_cdf(t: float) -> float:
    """Standard normal CDF Phi(t), computed through erfc for tail accuracy."""
    if math.isnan(t):
        raise DomainError("normal_cdf is undefined for NaN")
    return 0.5 * math.erfc(-t / _SQRT2)


# Bernoulli numbers B_2, B_4, ..., B_20; ten correction terms are far more
# than the adaptive loop ever needs once the head sum is long enough.
_B2K = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
)


def _hurwitz_em(alpha: float, h: float, head: int) -> tuple[float, bool]:
    """One Euler-Maclaurin evaluation of zeta(alpha, h) with ``head`` terms.

    Returns (value, converged).  For real alpha the correction series
    envelopes the true value, so the magnitude of the next term bounds the
    remainder; convergence means that bound dropped below _REL_TOL.
    """
    acc = math.fsum((h + k) ** -alpha for k in range(head))
    x = h + head
    acc += x ** (1.0 - alpha) / (alpha - 1.0)
    acc += 0.5 * x**-alpha

    rising = alpha  # alpha (alpha+1) ... (alpha + 2j - 2)
    xpow = x ** (-alpha - 1.0)
    prev = math.inf
    for j, b2k in enumerate(_B2K, start=1):
        term = b2k / math.factorial(2 * j) * rising * xpow
        if abs(term) >= prev:
            return acc, False  # series turned before reaching tolerance
        acc += term
        if abs(term) <= _REL_TOL * abs(acc):
            return acc, True
        prev = abs(term)
        rising *= (alpha + 2 * j - 1) * (alpha + 2 * j)
        xpow /= x * x
    return acc, False


def hurwitz_zeta(alpha: float, h: float) -> float:
    """Hurwitz zeta: sum over l >= 0 of (l + h)^(-alpha), for alpha > 1, h > 0."""
    if not (alpha > 1.0) or math.isinf(alpha):
        raise DomainError(f"hurwitz_zeta requires finite alpha > 1, got {alpha}")
    if not (h > 0.0) or math.isinf(h):
        raise DomainError(f"hurwitz_zeta requires finite h > 0, got {h}")
    head = 16
    while head <= 4_194_304:
        value, ok = _hurwitz_em(alpha, h, head)
        if ok:
            return value
        head *= 2
    raise ConvergenceError(
        f"hurwitz_zeta({alpha}, {h}) did not reach rel_tol={_REL_TOL}"
    )


def riemann_zeta(alpha: float) -> float:
    """Riemann zeta for real alpha > 1."""
    return hurwitz_zeta(alpha, 1.0)


def solve_zeta_equals(c: float) -> float:
    """Invert the Riemann zeta: find alpha > 1 with zeta(alpha) = c.

    zeta is strictly decreasing from +inf to 1 on (1, inf), so any c > 1 has
    exactly one preimage.  A verified bracket is expanded first, then Brent's
    method (bisection refined by secant/inverse-quadratic steps) polishes it.
    """
    if not (c > 1.0) or math.isinf(c):
        raise DomainError(f"solve_zeta_equals requires finite c > 1, got {c}")

    lo_off = 1.0
    for _ in range(_MAX_ITER):
        if riemann_zeta(1.0 + lo_off) >= c:
            break
        lo_off /= 2.0
    else:
        raise ConvergenceError(f"could not bracket zeta = {c} from below")
    hi_off = max(lo_off, 1.0)
    for _ in range(_MAX_ITER):
        if riemann_zeta(1.0 + hi_off) <= c:
            break
        hi_off *= 2.0
    else:
        raise ConvergenceError(f"could not bracket zeta = {c} from above")

    root, res = brentq(
        lambda a: riemann_zeta(a) - c,
        1.0 + lo_off,
        1.0 + hi_off,
        xtol=1e-14,
        rtol=4 * math.ulp(1.0),
        maxiter=_MAX_ITER,
        full_output=True,
        disp=False,
    )
    residual = abs(riemann_zeta(root) - c)
    if not res.converged or residual > 10.0 * c * _REL_TOL:
        raise ConvergenceError(
            f"zeta inversion at c={c} stalled (residual {residual:.3e})"
        )
    return root
