"""Dataset container, instrument augmentation, splitting, and seeded RNG.

Matrices are dense row-major float64 throughout; the largest designs this
package targets are on the order of 10^4 x 10^2, so no sparse path exists.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = [
    "Dataset",
    "SeededRng",
    "augment_instruments",
    "split_indices",
    "split_dataset",
]


def _as_float_matrix(a, name, ndim):
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != ndim:
        raise DataError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains non-finite entries")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


class SeededRng:
    """Deterministic random source for every stochastic operation.

    Streams come from numpy's Philox counter-based bit generator keyed by
    ``SeedSequence((seed, *path))``. Identical ``(seed, path)`` pairs produce
    bit-identical streams on every platform. Child generators derived through
    :meth:`child` are statistically independent of the parent and of each
    other, which is how replications and pipeline stages stay decoupled.
    """

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        seed = int(seed)
        if seed < 0:
            raise DataError("seed must be a non-negative integer")
        self.seed = seed
        self.path = tuple(int(t) for t in path)
        self._gen: np.random.Generator | None = None

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            seq = np.random.SeedSequence((self.seed, *self.path))
            self._gen = np.random.Generator(np.random.Philox(seq))
        return self._gen

    def child(self, *tags: int) -> "SeededRng":
        """A fresh, independent stream addressed by integer tags."""
        return SeededRng(self.seed, self.path + tags)

    # Thin delegations; keeping them here means call sites never touch
    # numpy's global state.
    def normal(self, size=None, loc=0.0, scale=1.0):
        return self.generator.normal(loc=loc, scale=scale, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self.generator.permutation(n)

    def __repr__(self):
        return f"SeededRng(seed={self.seed}, path={self.path})"


@dataclass(frozen=True)
class Dataset:
    """Outcome y, policy p, instruments z (n x m), covariates x (n x k).

    Constructors validate rather than repair: all row counts must agree, every
    entry must be finite, and m + k must be strictly smaller than n so the
    augmented instrument matrix has more rows than columns.
    """

    y: np.ndarray
    p: np.ndarray
    z: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        y = _as_float_matrix(self.y, "y", 1)
        p = _as_float_matrix(self.p, "p", 1)
        z = _as_float_matrix(self.z, "z", 2)
        x = np.asarray(self.x, dtype=np.float64)
        if x.ndim == 1 and x.size == 0:
            x = x.reshape(len(y), 0)
        x = _as_float_matrix(x, "x", 2)
        n = len(y)
        if not (len(p) == n and z.shape[0] == n and x.shape[0] == n):
            raise DataError(
                "row counts differ: "
                f"y={n}, p={len(p)}, z={z.shape[0]}, x={x.shape[0]}"
            )
        if z.shape[1] < 1:
            raise DataError("z must have at least one instrument column")
        if z.shape[1] + x.shape[1] >= n:
            raise DataError(
                f"m + k = {z.shape[1] + x.shape[1]} must be < n = {n}"
            )
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def m(self) -> int:
        return self.z.shape[1]

    @property
    def k(self) -> int:
        return self.x.shape[1]

    def take(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset(self.y[idx], self.p[idx], self.z[idx], self.x[idx])


def augment_instruments(z, x) -> np.ndarray:
    """Build the augmented instrument matrix [z, x]: instruments first."""
    z = np.asarray(z, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1 and x.size == 0:
        x = x.reshape(z.shape[0], 0)
    if z.ndim != 2 or x.ndim != 2:
        raise DataError("z and x must be matrices")
    if z.shape[0] != x.shape[0]:
        raise DataError(
            f"row counts differ: z has {z.shape[0]}, x has {x.shape[0]}"
        )
    zbar = np.hstack([z, x])
    if not np.all(np.isfinite(zbar)):
        raise DataError("zbar contains non-finite entries")
    return zbar


def part_count(work: int, part_min: int) -> int:
    """Parts to split `work` units of order-free row work into: one per CPU
    this process may run on, with at least part_min units in each part.

    Only Linux reports those CPUs (os.sched_getaffinity); elsewhere, and
    below 2 * part_min units, the work is one part.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, min(cpus, work // part_min))


def split_indices(
    n: int, test_fraction: float, rng: SeededRng
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted (train, test) row indices from a uniformly random permutation
    cut; deterministic given the rng seed."""
    if not (0.0 < test_fraction < 1.0):
        raise DataError("test_fraction must lie strictly inside (0, 1)")
    if n < 4:
        raise DataError("need at least 4 rows to split")
    n_test = int(round(n * test_fraction))
    n_test = min(max(n_test, 1), n - 1)
    perm = rng.permutation(n)
    return np.sort(perm[n_test:]), np.sort(perm[:n_test])


def split_dataset(
    ds: Dataset, test_fraction: float, rng: SeededRng
) -> tuple[Dataset, Dataset]:
    """Split rows into (train, test) datasets.

    Both partitions must individually satisfy m + k < n_split, otherwise the
    downstream estimators are unidentified and the split is refused.
    """
    train, test = split_indices(ds.n, test_fraction, rng)
    d = ds.m + ds.k
    for name, part in (("train", train), ("test", test)):
        if d >= len(part):
            raise DataError(
                f"{name} split of {len(part)} rows violates m + k < n "
                f"(m + k = {d})"
            )
    return ds.take(train), ds.take(test)
