"""Scale estimation from observed rank-count tables.

The decay exponent alpha is always user-supplied (chosen by inspecting the
log-log plot); only the scale N is estimated, either from the total count
via the zeta normalisation or as the smallest N_i = X_i i^alpha in a window.
The ordering threshold driven by the total count, n-hat, is the threshold
n' at N = T / zeta(alpha).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

from .bounds import _check_law, threshold_n_prime
from .errors import DomainError
from .special import hurwitz_zeta

__all__ = [
    "RankedCounts",
    "SensitivityRow",
    "SensitivityReport",
    "estimate_N_total",
    "threshold_n_hat",
    "local_scale_estimates",
    "sensitivity_sweep",
]


@dataclass(frozen=True)
class RankedCounts:
    """An observed table of per-rank counts, rank i = position i (1-based).

    Rank is defined by count order, so counts must be nonincreasing;
    construction rejects violations.  Simulated draws, whose inversions are
    the object of study, are plain arrays (see ``ordering_outcome``).

    ``total`` defaults to the table sum but may be supplied larger for
    truncated tables (published lists often stop at a count floor while the
    full corpus total is known).
    """

    counts: tuple[float, ...]
    labels: Sequence[str] | None = None
    total: float | None = None

    def __post_init__(self):
        if len(self.counts) == 0:
            raise DomainError("RankedCounts needs at least one entry")
        c = self.counts
        if not (all(map(math.isfinite, c)) and min(c) >= 0.0):
            bad = next(x for x in c if not (x >= 0.0) or math.isinf(x))
            raise DomainError(f"counts must be finite and >= 0, got {bad}")
        if any(map(operator.lt, c, c[1:])):
            i = next(i for i in range(len(c) - 1) if c[i] < c[i + 1])
            raise DomainError(
                f"counts must be nonincreasing (rank is count order); "
                f"rank {i + 1} has {c[i]} < {c[i + 1]}"
            )
        if self.labels is not None and len(self.labels) != len(self.counts):
            raise DomainError("labels and counts must have equal length")
        try:
            observed = math.fsum(self.counts)
        except OverflowError:
            raise DomainError("the table sum exceeds the float range") from None
        if self.total is None:
            object.__setattr__(self, "total", observed)
        elif math.isnan(self.total) or math.isinf(self.total):
            raise DomainError(f"total must be finite, got {self.total}")
        elif self.total < observed * (1.0 - 1e-12):
            raise DomainError(
                f"total {self.total} is smaller than the table sum {observed}"
            )

    def __len__(self) -> int:
        return len(self.counts)

    def rows(self) -> Iterator[tuple[int, str | None, float]]:
        """Iterate (rank, label, count)."""
        for i, c in enumerate(self.counts, start=1):
            yield i, (self.labels[i - 1] if self.labels else None), c


@dataclass(frozen=True)
class SensitivityRow:
    alpha: float
    N_est: float
    n_prime: float


@dataclass(frozen=True)
class SensitivityReport:
    """Scale and threshold estimates across a grid of decay exponents."""

    rows: tuple[SensitivityRow, ...]

    def __post_init__(self):
        if not self.rows:
            raise DomainError("sensitivity report needs at least one row")
        alphas = [r.alpha for r in self.rows]
        if any(a2 <= a1 for a1, a2 in zip(alphas, alphas[1:])):
            raise DomainError("alphas must be strictly increasing")


def estimate_N_total(T: float, alpha: float, k: float) -> float:
    """Scale estimate N = T / zeta(alpha, k+1) from the corpus total T.

    The expected total of the ensemble is N sum over i >= 1 of (i+k)^-alpha,
    and that sum is the Hurwitz zeta value at offset k + 1 (plain zeta when
    k = 0).
    """
    if not (T > 0.0) or math.isinf(T):
        raise DomainError(f"T must be finite and > 0, got {T}")
    _check_law(alpha, k)
    zeta = hurwitz_zeta(alpha, k + 1.0)
    if zeta == 0.0 or math.isinf(T / zeta):
        raise DomainError(
            f"T / zeta(alpha, k+1) exceeds the float range at alpha={alpha}, k={k}"
        )
    return T / zeta


def threshold_n_hat(T: float, alpha: float) -> float:
    """Ordering threshold driven by the total count: n' at N = T / zeta(alpha)."""
    return threshold_n_prime(estimate_N_total(T, alpha, 0.0), alpha).n_prime


def local_scale_estimates(
    counts: RankedCounts, alpha: float, lo: int, hi: int
) -> float:
    """Window scale: the smallest N_i = X_i i^alpha over ranks [lo, hi].

    The minimum is conservative: a smaller N gives a smaller threshold.
    """
    _check_law(alpha)
    if not 1 <= lo <= hi <= len(counts):
        raise DomainError(
            f"window [{lo}, {hi}] invalid for a table of length {len(counts)}"
        )
    smallest = math.inf
    for i in range(lo, hi + 1):
        x = counts.counts[i - 1]
        if x <= 0.0:
            raise DomainError(f"rank {i} has count 0; no scale estimate there")
        try:
            scale = x * i**alpha
        except OverflowError:
            scale = math.inf
        if math.isinf(scale):
            raise DomainError(
                f"N_i = X_i i^alpha exceeds the float range at rank {i}, alpha={alpha}"
            )
        smallest = min(smallest, scale)
    return smallest


def sensitivity_sweep(
    counts: RankedCounts, alphas: Sequence[float], lo: int, hi: int
) -> SensitivityReport:
    """Sweep alpha over a grid, re-estimating N and the ordering threshold.

    The scale for each alpha is ``local_scale_estimates`` over the window.
    """
    rows = []
    for alpha in alphas:
        scale = local_scale_estimates(counts, alpha, lo, hi)
        n_prime = threshold_n_prime(scale, alpha).n_prime
        rows.append(SensitivityRow(alpha=alpha, N_est=scale, n_prime=n_prime))
    return SensitivityReport(rows=tuple(rows))
