"""Monte Carlo simulation of the power-law Poisson count ensemble.

Reproducibility contract: replicate r of a run with seed s draws from a
counter-based Philox stream keyed by (s, r), so any partition of the
replicates across workers produces bit-identical results.

Correct-prefix rule
-------------------
For a draw X_1..X_M the correct prefix length L is the largest n >= 0 with

    X_1 > X_2 > ... > X_n   and   X_n > X_i for every i in (n, M].

The second clause makes interlopers observable: rank n only counts as
settled if nothing later ties or beats it.  When L < M the chain is intact
through position c = L + 1 and the failure is always that X_c fails to
dominate the rest; the blocker b is the first index attaining
max over (L, M] of X.  The first error is classified as

* ``tie`` when b = c (X_c equals the best of the rest),
* ``transposition`` when b = c + 1 (the immediate successor overtook X_c),
* ``jump(d)`` with d = b - c >= 2 otherwise (a deeper entity overtook X_c).

A full-length prefix (L = M) reports ``none``: the draw was ordered out to
the truncation horizon, which the caller should treat as a horizon hit,
not a perfectly ordered infinite ensemble.

Replicate core
--------------
Each worker chunk owns one Philox bit generator.  Before replicate r it is
reset to key (s, r), counter 0 and an empty buffer, the exact state a
fresh ``Philox(key=(s, r))`` starts in, so the draws equal those of
``replicate_stream(s, r)`` without building a generator per replicate.
Draws are collected into blocks of about 2**15 counts and classified a
block at a time by array operations; ``ordering_outcome`` runs the same
classifier on a single row.  Outputs therefore do not depend on the
worker count, the block size or how chunks are cut.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

from .bounds import EnsembleParams, poisson_upper_tail_bound, threshold_n_prime
from .errors import ConfigurationError, DomainError

__all__ = [
    "OrderingOutcome",
    "ExperimentSummary",
    "replicate_stream",
    "truncation_index",
    "ordering_outcome",
    "run_experiment",
]

_ERROR_KINDS = ("none", "transposition", "tie", "jump")
# error kind index by blocker offset b - c, clipped to 0..2: tie, transposition, jump
_KIND_BY_OFFSET = np.array([2, 1, 3])
_U64 = 0xFFFFFFFFFFFFFFFF
# counts per classified block: enough rows to amortise the fixed cost of each
# array operation when M is small, while the block and its temporaries stay
# well under a megabyte
_BLOCK_ELEMENTS = 2**15
# largest certified horizon: one replicate then holds 2**20 counts
_MAX_HORIZON = 2**20
# numpy's Poisson sampler rejects a mean above int64 max - 10 sqrt(int64 max),
# about 9.2234e18, so that a draw ten standard deviations above its mean
# still fits the int64 counts; lambda_1 is the largest mean of the ensemble
_MAX_MEAN = np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class OrderingOutcome:
    """Correct-prefix length and the first rank error of one draw."""

    correct_prefix_len: int
    first_error: str  # one of "none", "transposition", "tie", "jump"
    jump_offset: int | None = None  # b - (L+1) >= 2, for jumps only
    blocker_index: int | None = None  # 1-based rank that stopped the prefix


@dataclass(frozen=True)
class ExperimentSummary:
    """Aggregate of ordering outcomes over independent replicates."""

    reps: int
    histogram: dict[int, int]  # correct prefix length -> frequency
    error_kind_counts: dict[str, int]
    seed: int
    truncation_m: int
    n_focus: int

    def to_dict(self) -> dict:
        """JSON-ready form with the histogram as sorted [L, count] pairs."""
        return {
            "reps": self.reps,
            "seed": self.seed,
            "n_focus": self.n_focus,
            "truncation_m": self.truncation_m,
            "histogram": [[l, c] for l, c in sorted(self.histogram.items())],
            "error_kind_counts": {k: self.error_kind_counts[k] for k in _ERROR_KINDS},
        }


def _stream_key(seed: int, replicate: int) -> tuple[int, int]:
    """Philox key of one replicate's stream: seed and index reduced mod 2**64."""
    return seed & _U64, replicate & _U64


def replicate_stream(seed: int, replicate: int) -> np.random.Generator:
    """Independent Philox stream for one (seed, replicate) pair."""
    key = np.array(_stream_key(seed, replicate), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _means(params: EnsembleParams, m: int) -> np.ndarray:
    ranks = np.arange(1, m + 1, dtype=np.float64)
    return params.N * (ranks + params.k) ** -params.alpha


def truncation_index(params: EnsembleParams, n_focus: int, safety: float) -> int:
    """Smallest horizon M >= 4 n_focus whose beyond-horizon entities are negligible.

    Negligible means: the probability that any entity of rank > M reaches the
    low reference level tau = lambda at rank 2 n_focus is certified <= safety.
    Ranks beyond M then perturb prefix outcomes with probability <= safety
    and the infinite ensemble can be simulated on 1..M.  The candidates are
    4 n_focus, then steps of max(1, M // 8); past the floor, a horizon above
    2**20 raises ``ConfigurationError``.

    Counts are integers, so X >= tau exactly when X >= t = ceil(tau) >= 1,
    and the certificate bounds the sum over i > M of Pr(X_i >= t) by the
    rank-(M+1) tail bound ``poisson_upper_tail_bound(lam, t)``, lam =
    lam_{M+1}, times 1 + r with s = t - 1/alpha > 0 and

        r = (M+1+k) (1 - lam/(t+1)) / (alpha (s - lam) (1 - lam_{M+2}/(t+1))).

    For i >= M+2 the tail bound is at most e^-lam_i lam_i^t / (t! (1 -
    lam_{M+2}/(t+1))), and below t the factor e^-lam lam^t increases with lam,
    so the sum over i >= M+2 is at most the integral over x >= M+1 of
    e^-lam(x) lam(x)^t, lam(x) = N (x+k)^-alpha.  Substituting lam = lam(x),
    valid for any k >= 0, turns it into (N^(1/alpha) / alpha) gamma(s, lam),
    and gamma(s, x) <= x^s e^-x / (s - x) for x < s.  As (N / lam)^(1/alpha)
    = M+1+k, that is the point mass e^-lam lam^t / t! times
    r / (1 - lam/(t+1)): the tail bound times r.  A candidate with
    lam_{M+1} >= s, or whose lam_{M+1} underflows to 0, has no finite bound
    and is passed over.
    """
    if n_focus < 1:
        raise DomainError(f"n_focus must be >= 1, got {n_focus}")
    if not (0.0 < safety < 1.0):
        raise DomainError(f"safety must lie in (0, 1), got {safety}")
    t = math.ceil(params.mean_of(2 * n_focus))
    s = t - 1.0 / params.alpha
    m = 4 * n_focus
    while True:
        lam = params.mean_of(m + 1)
        if 0.0 < lam < s:
            r = (m + 1 + params.k) * (1.0 - lam / (t + 1.0)) / (
                params.alpha * (s - lam) * (1.0 - params.mean_of(m + 2) / (t + 1.0))
            )
            if poisson_upper_tail_bound(lam, t) * (1.0 + r) <= safety:
                return m
        m += max(1, m // 8)
        if m > _MAX_HORIZON:
            raise ConfigurationError(
                f"no horizon up to {_MAX_HORIZON} certifies safety {safety} "
                f"for {params} at n_focus={n_focus}"
            )


def _classify(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Correct-prefix length, error kind index and 1-based blocker of each row.

    x is a (rows, M) block, one draw per row.  Let K be the length of the
    strictly descending chain x_1 > ... > x_K and top = max(x[K:]) the
    largest count after it.  A chain rank n dominates everything after it
    exactly when x_n > top; the chain descends, so these ranks form its
    prefix and L is the index of the first count <= top, which is at most K
    because x[K] <= top.  The blocker, the first maximiser of x[L:], is the
    first count equal to top in the whole row: counts before L exceed top,
    and the chain after L stays below x[L] <= top.  Rows with K = M are
    ordered to the horizon; their blocker is meaningless.
    """
    rows, m = x.shape
    breaks = np.empty((rows, m), dtype=bool)
    np.greater_equal(x[:, 1:], x[:, :-1], out=breaks[:, :-1])
    breaks[:, -1] = True
    chain = breaks.argmax(axis=1) + 1
    # max of each row's tail x[K:], one reduceat over the flat block: even
    # cuts open a tail, odd cuts open the next row (whose chain is dropped)
    starts = np.arange(rows) * m
    cuts = np.empty(2 * rows - 1, dtype=np.intp)
    cuts[0::2] = np.minimum(starts + chain, rows * m - 1)
    cuts[1::2] = starts[1:]
    top = np.maximum.reduceat(x.ravel(), cuts)[0::2][:, np.newaxis]
    prefix = (x <= top).argmax(axis=1)
    blocker = (x == top).argmax(axis=1)
    kind = _KIND_BY_OFFSET.take(blocker - prefix, mode="clip")
    full = chain == m
    prefix[full] = m
    kind[full] = 0
    return prefix, kind, blocker + 1


def ordering_outcome(counts: Sequence[int] | np.ndarray) -> OrderingOutcome:
    """Correct-prefix length and first-error classification of one draw.

    ``counts`` holds the draw in true-rank order, X_1 first; it is not
    re-sorted, since its inversions are what the classification describes.
    """
    x = np.asarray(counts)
    if x.ndim != 1 or x.size == 0:
        raise DomainError("counts must be a nonempty one-dimensional sequence")
    prefix, kind, blocker = (int(v[0]) for v in _classify(x[np.newaxis]))
    first_error = _ERROR_KINDS[kind]
    if first_error == "none":
        return OrderingOutcome(prefix, "none")
    jump_offset = blocker - (prefix + 1) if first_error == "jump" else None
    return OrderingOutcome(
        prefix, first_error, jump_offset=jump_offset, blocker_index=blocker
    )


def _simulate_chunk(
    params: EnsembleParams, seed: int, start: int, stop: int, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Counts of prefix lengths 0..M and of error kinds over replicates start..stop-1."""
    lam = _means(params, m)
    stream = replicate_stream(seed, start)
    bit_gen = stream.bit_generator
    # the state Philox(key=...) starts in: counter 0, empty buffer
    keyed = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": None},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    block = np.empty((max(1, _BLOCK_ELEMENTS // m), m), dtype=np.int64)
    lengths = np.zeros(m + 1, dtype=np.int64)
    kinds = np.zeros(len(_ERROR_KINDS), dtype=np.int64)
    for lo in range(start, stop, len(block)):
        hi = min(lo + len(block), stop)
        for row, r in enumerate(range(lo, hi)):
            keyed["state"]["key"] = _stream_key(seed, r)
            bit_gen.state = keyed
            block[row] = stream.poisson(lam)
        prefix, kind, _ = _classify(block[: hi - lo])
        lengths += np.bincount(prefix, minlength=m + 1)
        kinds += np.bincount(kind, minlength=len(_ERROR_KINDS))
    return lengths, kinds


def run_experiment(
    params: EnsembleParams,
    reps: int,
    seed: int,
    n_focus: int | None = None,
    workers: int = 1,
) -> ExperimentSummary:
    """Aggregate ordering outcomes over seeded independent replicates.

    Deterministic given (seed, reps, params, n_focus): outcomes depend only
    on per-replicate streams, and per-chunk aggregates merge by addition, so
    the worker count changes nothing but wall time.  At most
    min(workers, reps, CPU count) processes are started.
    """
    if reps < 1:
        raise DomainError(f"reps must be >= 1, got {reps}")
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    lam_1 = params.mean_of(1)
    if lam_1 > _MAX_MEAN:
        raise DomainError(
            f"lambda_1 = {lam_1} exceeds the largest Poisson mean numpy can draw, {_MAX_MEAN}"
        )
    if n_focus is None:
        n_focus = math.ceil(threshold_n_prime(params.N, params.alpha).n_prime)
    m = truncation_index(params, n_focus, 1e-6)

    # a forked pool starts all its processes at the first job, so it gets
    # no more than there are chunks of work and cores to run them
    workers = min(workers, reps, os.cpu_count() or 1)
    if workers == 1:
        parts = [_simulate_chunk(params, seed, 0, reps, m)]
    else:
        cuts = np.linspace(0, reps, workers + 1).astype(int).tolist()
        # fork where the platform has it: a forkserver or spawn pool (the
        # Linux default from Python 3.14, and elsewhere) takes about a second
        # to start and re-imports the caller's script, which breaks the pool
        # when that script has no __main__ guard
        fork = "fork" in multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if fork else None)
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            parts = list(pool.map(
                _simulate_chunk, repeat(params), repeat(seed), cuts[:-1], cuts[1:], repeat(m)
            ))

    lengths = sum(part[0] for part in parts)
    kinds = sum(part[1] for part in parts)
    return ExperimentSummary(
        reps=reps,
        histogram={length: int(freq) for length, freq in enumerate(lengths) if freq},
        error_kind_counts=dict(zip(_ERROR_KINDS, kinds.tolist())),
        seed=seed,
        truncation_m=m,
        n_focus=n_focus,
    )
