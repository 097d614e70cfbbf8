"""Inputs of the benchmark: fixed query points and everything derived from the seed.

The program only ever receives what is built here.  The analytic queries
(threshold, bound, pick-n) and the Monte Carlo points are fixed; the seed
picks the simulation seeds and the synthetic frequency table.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

ALPHA = 1.106

# BNC point: N = 1e7 with the British National Corpus exponent (certified M = 292).
BNC_N = 1e7
# Deep point: a thousand-fold larger ensemble than the BNC-sized one (M = 4840).
DEEP_N = 1e11
# Sparse regime whose horizon certification fails today (see README).
SPARSE_N = 3.0
SPARSE_ALPHA = 1.2

# Replicates per in-process Monte Carlo call, sized to about half a second each
# so that every run takes a dozen samples of each point.
BNC_REPS = 10_000
DEEP_REPS = 2_000
SPARSE_REPS = 1_000
# Replicates of each call that the checks redraw and classify themselves.
BNC_CHECK_REPS = 200
DEEP_CHECK_REPS = 40

CLI_REPS = 1_000
BOUND_N = 72
PICK_N_N = 1e12
PICK_N_EPSILON = 0.01

TABLE_ROWS = 100_000
TABLE_SCALE = 1.25e7
TABLE_TOTAL = 1e8
WINDOW = (10, 100)

CLI_ARGS = {
    "threshold": ["threshold", "--N", "1e7", "--alpha", "1.106"],
    "bound": ["bound", "--N", "1e7", "--alpha", "1.106", "--n", str(BOUND_N)],
    "pick-n": ["pick-n", "--N", "1e12", "--alpha", "1.106", "--epsilon", "0.01"],
    "simulate": ["simulate", "--N", "1e7", "--alpha", "1.106", "--reps", str(CLI_REPS)],
}


def derive_seed(seed: int, *path: object) -> int:
    """A 63-bit seed for one use of the workload seed, named by ``path``."""
    text = "/".join(str(p) for p in (seed, *path))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


@dataclass(frozen=True)
class Table:
    """A synthetic ``label<TAB>count`` table, rows in file order."""

    labels: tuple[str, ...]
    counts: np.ndarray  # int64, same order as labels
    text: str

    def ranked_counts(self) -> np.ndarray:
        """Counts by rank: descending, ties in file order (as the parser ranks them)."""
        return self.counts[np.argsort(-self.counts, kind="stable")].astype(np.float64)

    def ranked_labels(self) -> list[str]:
        order = np.argsort(-self.counts, kind="stable")
        return [self.labels[j] for j in order]


def make_table(seed: int, rows: int = TABLE_ROWS) -> Table:
    """Counts Poisson around TABLE_SCALE * i^-ALPHA for i = 1..rows, rows shuffled."""
    rng = np.random.default_rng(derive_seed(seed, "table"))
    ranks = np.arange(1, rows + 1, dtype=np.float64)
    counts_by_rank = rng.poisson(TABLE_SCALE * ranks**-ALPHA)
    order = rng.permutation(rows)
    labels = tuple(f"w{j + 1:06d}" for j in order)
    counts = counts_by_rank[order]
    text = "".join(f"{lab}\t{c}\n" for lab, c in zip(labels, counts.tolist()))
    return Table(labels=labels, counts=counts, text=text)
