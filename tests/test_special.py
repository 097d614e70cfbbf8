"""Special-function accuracy against high-precision references and identities."""

import math
import re

import mpmath as mp
import numpy as np
import pytest

from zipforder import (
    ConvergenceError,
    DomainError,
    hurwitz_zeta,
    riemann_zeta,
    solve_zeta_equals,
)

mp.mp.dps = 30


class TestLnGamma:
    """math.lgamma, which the Poisson tail bounds use for t!."""

    def test_gautschi_inequality_strict(self):
        """x^(1-s) < Gamma(x+1)/Gamma(x+s) < (x+1)^(1-s) on 1000 random (x, s)."""
        rng = np.random.default_rng(20260809)
        violations = 0
        for _ in range(1000):
            x = float(rng.uniform(1e-12, 100.0))
            s = float(rng.uniform(1e-12, 1.0))
            if s == 0.0 or s == 1.0 or x == 0.0:
                continue
            ratio = math.exp(math.lgamma(x + 1.0) - math.lgamma(x + s))
            if not (x ** (1.0 - s) < ratio < (x + 1.0) ** (1.0 - s)):
                violations += 1
        assert violations == 0


class TestRiemannZeta:
    def test_basel(self):
        assert riemann_zeta(2.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-12)

    def test_fourth_power(self):
        assert riemann_zeta(4.0) == pytest.approx(math.pi**4 / 90.0, rel=1e-12)

    def test_near_one_anchor(self):
        assert riemann_zeta(1.106) == pytest.approx(10.0, abs=0.05)

    def test_against_mpmath(self):
        for alpha in [1.0001, 1.01, 1.106, 1.5, 2.0, 3.0, 6.0, 12.0, 25.0, 60.0]:
            assert riemann_zeta(alpha) == pytest.approx(
                float(mp.zeta(alpha)), rel=1e-12
            )

    def test_monotone_decreasing(self):
        grid = [1.05, 1.106, 1.3, 1.8, 2.5, 4.0, 8.0]
        values = [riemann_zeta(a) for a in grid]
        assert all(v1 > v2 for v1, v2 in zip(values, values[1:]))

    @pytest.mark.parametrize("alpha", [1.0, 0.5, -2.0])
    def test_domain(self, alpha):
        with pytest.raises(DomainError):
            riemann_zeta(alpha)


class TestHurwitzZeta:
    def test_reduces_to_riemann(self):
        for alpha in [1.5, 2.0, 3.0]:
            assert hurwitz_zeta(alpha, 1.0) == pytest.approx(
                riemann_zeta(alpha), rel=1e-13
            )

    def test_shift_by_one(self):
        assert hurwitz_zeta(2.0, 2.0) == pytest.approx(math.pi**2 / 6.0 - 1.0, rel=1e-12)

    def test_offset_identity(self):
        expect = riemann_zeta(1.106) - 1.0 - 2.0**-1.106
        assert hurwitz_zeta(1.106, 3.0) == pytest.approx(expect, rel=1e-12)

    def test_partial_summation_bracket(self):
        """Value sits inside the partial-sum + integral-tail bracket."""
        alpha, h = 1.106, 3.0
        cut = 200_000
        head = math.fsum((l + h) ** -alpha for l in range(cut))
        tail_lo = (cut + h) ** (1.0 - alpha) / (alpha - 1.0)
        tail_hi = tail_lo + (cut + h) ** -alpha
        value = hurwitz_zeta(alpha, h)
        assert head + tail_lo <= value <= head + tail_hi

    def test_telescoping(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            alpha = float(rng.uniform(1.05, 6.0))
            h = float(rng.uniform(0.1, 25.0))
            lhs = hurwitz_zeta(alpha, h) - hurwitz_zeta(alpha, h + 1.0)
            assert lhs == pytest.approx(h**-alpha, rel=1e-10)

    def test_against_mpmath(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            alpha = float(rng.uniform(1.01, 10.0))
            h = float(rng.uniform(0.05, 50.0))
            assert hurwitz_zeta(alpha, h) == pytest.approx(
                float(mp.zeta(alpha, h)), rel=1e-12
            )

    def test_against_mpmath_grid(self):
        """One 16-term pass stays within 1e-12 from alpha near 1+ to 1e300 and
        from h = 1e-3 to offsets k+1 with k up to 1e300."""
        alphas = [1.0 + 1e-9, 1.0 + 1e-6, 1.01, 1.106, 1.5, 2.0, 3.0, 10.0, 50.0, 1e3]
        offsets = [1e-3, 1.0] + [k + 1.0 for k in (2.5, 100.0, 1e6, 1e12, 1e100, 1e300)]
        # h^-alpha overflows past exp(709): those points are the case below;
        # mpmath needs about a second per point at alpha = 1e300, so two
        points = [(a, h) for a in alphas for h in offsets if -a * math.log(h) <= 709.0]
        points += [(1e300, 1.0), (1e300, 3.5)]
        for alpha, h in points:
            with mp.workdps(60):  # 30 digits miss zeta(50, 101) by 4.5e-12
                ref = float(mp.zeta(mp.mpf(alpha), mp.mpf(h)))
            assert hurwitz_zeta(alpha, h) == pytest.approx(ref, rel=1e-12, abs=0.0), (alpha, h)

    @pytest.mark.parametrize("alpha,h", [(400.0, 0.1), (1e3, 1e-3), (1e300, 1e-3), (1.1, 1e-300)])
    def test_overflow_is_domain_error(self, alpha, h):
        with pytest.raises(DomainError, match="float range"):
            hurwitz_zeta(alpha, h)

    def test_series_exhausted(self, monkeypatch):
        """With one Bernoulli term the remainder stays near 1e-4: ConvergenceError."""
        monkeypatch.setattr("zipforder.special._B2K", (1.0 / 6.0,))
        with pytest.raises(ConvergenceError, match="rel_tol"):
            hurwitz_zeta(1.5, 1.0)

    @pytest.mark.parametrize("alpha,h", [(1.0, 1.0), (2.0, 0.0), (2.0, -1.0), (0.9, 2.0)])
    def test_domain(self, alpha, h):
        with pytest.raises(DomainError):
            hurwitz_zeta(alpha, h)


class TestSolveZetaEquals:
    def test_reference_anchor(self):
        alpha = solve_zeta_equals(10.0)
        assert 1.105 <= alpha <= 1.107

    def test_round_trip_basel(self):
        assert solve_zeta_equals(riemann_zeta(2.0)) == pytest.approx(2.0, abs=1e-9)

    def test_residual_small(self):
        for c in [1.2, 1.9, 5.0, 42.0, 750.0]:
            alpha = solve_zeta_equals(c)
            assert abs(riemann_zeta(alpha) - c) <= 10.0 * c * 1e-12

    @pytest.mark.parametrize("c", [4934.0, 1e6, 1e9, 1e12, 1e15])
    def test_float_bracket(self, c):
        """Where one float step moves zeta past the tolerance, the root's neighbours bracket c."""
        alpha = solve_zeta_equals(c)
        below, above = math.nextafter(alpha, 1.0), math.nextafter(alpha, 2.0)
        assert riemann_zeta(below) >= c >= riemann_zeta(above)
        assert abs(riemann_zeta(alpha) - c) <= min(
            riemann_zeta(below) - c, c - riemann_zeta(above)
        )
        if c == 4934.0:
            assert abs(riemann_zeta(alpha) - c) <= 10.0 * c * 1e-12

    def test_polished_roots_unchanged(self):
        assert solve_zeta_equals(10.0) == 1.106212299474838

    def test_starved_iteration_budget(self, monkeypatch):
        monkeypatch.setattr("zipforder.special._MAX_ITER", 1)
        with pytest.raises(ConvergenceError):
            solve_zeta_equals(10.0)

    @pytest.mark.parametrize("c", [1e16, 1e300])
    def test_beyond_float_bracket(self, c):
        """Above zeta(1 + 2^-52) ~ 4.5e15 no float alpha brackets c from below."""
        with pytest.raises(ConvergenceError, match=re.escape(f"zeta = {c} ")):
            solve_zeta_equals(c)

    @pytest.mark.parametrize("c", [1.0, 0.3, -4.0, math.inf])
    def test_domain(self, c):
        with pytest.raises(DomainError):
            solve_zeta_equals(c)
