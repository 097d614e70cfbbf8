"""Zeta functions: Hurwitz and Riemann zeta and the inverse of the latter.

Zeta values are computed by one Euler-Maclaurin pass under explicit
remainder control, which keeps full double accuracy even for exponents
barely above 1 (the regime power-law count data lives in).  The pass sums
the first 16 terms directly; a value whose head sum exceeds the float range
raises ``DomainError``.  Log-gamma and the normal CDF, which the bounds also
need, come straight from :mod:`math`.
"""

from __future__ import annotations

import math

from scipy.optimize import brentq

from .errors import ConvergenceError, DomainError

__all__ = [
    "riemann_zeta",
    "hurwitz_zeta",
    "solve_zeta_equals",
]

# relative accuracy of every zeta value, and the iteration budget of the
# root polish in solve_zeta_equals
_REL_TOL = 1e-12
_MAX_ITER = 200
# tolerances of that polish in alpha: it stops within _XTOL + _RTOL * alpha
_XTOL = 1e-14
_RTOL = 4 * math.ulp(1.0)
# terms summed directly before the Euler-Maclaurin tail takes over
_HEAD = 16

# Bernoulli numbers B_2, B_4, ..., B_20; after a head of 16 terms the
# correction series reaches _REL_TOL well before they run out.
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


def hurwitz_zeta(alpha: float, h: float) -> float:
    """Hurwitz zeta: sum over l >= 0 of (l + h)^(-alpha), for alpha > 1, h > 0.

    The first _HEAD terms are summed exactly, the rest by the integral, the
    half term and Bernoulli corrections at x = h + _HEAD.  For real alpha
    the correction series envelopes the true value, so the magnitude of the
    next term bounds the remainder; the value is returned once that bound
    drops below _REL_TOL, and ``ConvergenceError`` is raised if the series
    turns or runs out first.
    """
    if not (alpha > 1.0) or math.isinf(alpha):
        raise DomainError(f"hurwitz_zeta requires finite alpha > 1, got {alpha}")
    if not (h > 0.0) or math.isinf(h):
        raise DomainError(f"hurwitz_zeta requires finite h > 0, got {h}")
    try:
        acc = math.fsum((h + k) ** -alpha for k in range(_HEAD))
    except OverflowError:
        raise DomainError(f"hurwitz_zeta({alpha}, {h}) exceeds the float range") from None
    x = h + _HEAD
    acc += x ** (1.0 - alpha) / (alpha - 1.0)
    acc += 0.5 * x**-alpha

    rising = alpha  # alpha (alpha+1) ... (alpha + 2j - 2)
    xpow = x ** (-alpha - 1.0)
    prev = math.inf
    for j, b2k in enumerate(_B2K, start=1):
        term = b2k / math.factorial(2 * j) * rising * xpow
        if abs(term) >= prev:
            break  # series turned before reaching tolerance
        acc += term
        if abs(term) <= _REL_TOL * abs(acc):
            return acc
        prev = abs(term)
        rising *= (alpha + 2 * j - 1) * (alpha + 2 * j)
        xpow /= x * x
    raise ConvergenceError(f"hurwitz_zeta({alpha}, {h}) did not reach rel_tol={_REL_TOL}")


def riemann_zeta(alpha: float) -> float:
    """Riemann zeta for real alpha > 1."""
    return hurwitz_zeta(alpha, 1.0)


def solve_zeta_equals(c: float) -> float:
    """Invert the Riemann zeta: find alpha > 1 with zeta(alpha) = c.

    zeta is strictly decreasing from +inf to 1 on (1, inf), so any c > 1 has
    exactly one preimage.  A verified bracket is expanded first, then Brent's
    method (bisection refined by secant/inverse-quadratic steps) polishes it.
    Near alpha = 1 adjacent floats step zeta by more than the residual
    tolerance (from c of about 5e3 on); there the converged root is bisected
    on floats to the adjacent pair that brackets c, and the one nearer c is
    returned.  Above zeta(1 + 2^-52), about 4.5e15, no float alpha brackets
    c from below and ``ConvergenceError`` is raised.
    """
    if not (c > 1.0) or math.isinf(c):
        raise DomainError(f"solve_zeta_equals requires finite c > 1, got {c}")

    lo_off = 1.0
    while riemann_zeta(1.0 + lo_off) < c:
        lo_off /= 2.0
        if 1.0 + lo_off == 1.0:
            raise ConvergenceError(f"could not bracket zeta = {c} from below")
    # zeta(1 + 2^j) rounds to 1.0 by j = 6, so this doubling ends
    hi_off = max(lo_off, 1.0)
    while riemann_zeta(1.0 + hi_off) > c:
        hi_off *= 2.0

    root, res = brentq(
        lambda a: riemann_zeta(a) - c,
        1.0 + lo_off,
        1.0 + hi_off,
        xtol=_XTOL,
        rtol=_RTOL,
        maxiter=_MAX_ITER,
        full_output=True,
        disp=False,
    )
    tol = 10.0 * c * _REL_TOL
    residual = abs(riemann_zeta(root) - c)
    if res.converged and residual > tol:
        # brentq stopped with c bracketed within xtol + rtol * root of root,
        # a span of tens of floats near alpha = 1, where one float step
        # moves zeta by about c^2 ulp(1): bisect it down to adjacent floats.
        span = _XTOL + _RTOL * root
        lo = max(root - span, 1.0 + lo_off)
        hi = min(root + span, 1.0 + hi_off)
        z_lo, z_hi = riemann_zeta(lo), riemann_zeta(hi)
        if z_lo >= c >= z_hi:
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                z_mid = riemann_zeta(mid)
                if z_mid > c:
                    lo, z_lo = mid, z_mid
                else:
                    hi, z_hi = mid, z_mid
            return lo if z_lo - c < c - z_hi else hi
    if not res.converged or residual > tol:
        raise ConvergenceError(
            f"zeta inversion at c={c} stalled (residual {residual:.3e})"
        )
    return root
