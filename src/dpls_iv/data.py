"""Dataset container, instrument augmentation, splitting, and seeded RNG,
plus the input rules the estimators share (the integer check, the
(design, target) check, the covariate block and the design width a fit
predicts on), the part bounds of the work spread over CPUs (the CLI's row
work and the early lambda CVs), the package's one way to fork (_Children,
whose one part runner is parts; a part's spill must end with _END), the
float64 wire format of forked cells (_send_cells, _receive_cells) and the
one rule every child runs under (_raising), the PSD square-root factor
and the fold count and held-out error of the lambda and q CVs.

A process sees the CPUs it may run on (os.sched_getaffinity), except in a
run_benchmark part child, which sees its share of them (_share_cpus), so
the children's parts and helpers do not crowd each other.

Matrices are dense row-major float64 throughout; the largest designs this
package targets are on the order of 10^4 x 10^2, so no sparse path exists.
"""
from __future__ import annotations

import contextlib
import numbers
import os
import tempfile
import warnings
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


def check_int(name: str, value) -> int:
    """value as an int. A bool or a value of a non-integral type, 2.0
    included, is a DataError naming the field; numpy integers pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DataError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_design(design, target) -> tuple[np.ndarray, np.ndarray]:
    """design and target as float64: a matrix with at least one row and one
    column, and a vector with one entry per row of it, every entry finite."""
    design = np.asarray(design, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if design.ndim != 2 or 0 in design.shape:
        raise DataError("design must be a matrix with at least one row and one column")
    if target.shape != (len(design),):
        raise DataError("target must be a vector with one entry per row of the design")
    for name, cells in (("design", design), ("target", target)):
        if not np.isfinite(cells).all():
            raise DataError(f"{name} contains non-finite entries")
    return design, target


def covariate_block(x, n: int) -> np.ndarray:
    """x as float64, an empty 1-D x as the (n, 0) block of no covariates;
    the caller checks the shape."""
    x = np.asarray(x, dtype=np.float64)
    return x.reshape(n, 0) if x.ndim == 1 and x.size == 0 else x


def _check_width(design, width: int) -> np.ndarray:
    """design as float64: a matrix of the `width` columns a fit was made on."""
    design = np.asarray(design, dtype=np.float64)
    if design.ndim != 2 or design.shape[1] != width:
        got = design.shape[1] if design.ndim == 2 else f"shape {design.shape}"
        raise DataError(f"fit expects {width} design columns, data has {got}")
    return design


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
        seed = check_int("seed", seed)
        if seed < 0:
            raise DataError("seed must be a non-negative integer")
        self.seed = seed
        self.path = tuple(check_int("path tag", t) for t in path)
        if any(t < 0 for t in self.path):
            raise DataError(f"path tags must be non-negative integers, got {self.path}")
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
    def normal(self, size=None):
        return self.generator.normal(size=size)

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
        x = _as_float_matrix(covariate_block(self.x, len(y)), "x", 2)
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
    x = covariate_block(x, z.shape[0])
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


# This process's share of its CPUs when it is one of several workers that
# run side by side (_share_cpus); None in any other process.
_cpu_share: int | None = None


def _usable_cpus() -> int:
    """The CPUs this process may run on, which only Linux reports (1
    elsewhere; os.sched_getaffinity), or a benchmark part child's share."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return cpus if _cpu_share is None else min(cpus, _cpu_share)


def _share_cpus(workers: int) -> None:
    """Called first in each of run_benchmark's `workers` part children: this
    child uses usable CPUs // workers of them, at least 1."""
    global _cpu_share
    _cpu_share = max(1, _usable_cpus() // workers)


def part_bounds(rows: int, work: int, part_min: int) -> list[int]:
    """Bounds 0 = b_0 <= ... <= b_parts = rows that cut rows holding `work`
    units of order-free work into parts: one per usable CPU, at least
    part_min units each, and no more parts than rows, so none is empty if
    rows >= 1."""
    parts = max(1, min(_usable_cpus(), rows, work // part_min))
    return [rows * i // parts for i in range(parts + 1)]


def _child_bounds(jobs: int, children: int) -> list[int]:
    """Part bounds that leave this process an empty part 0 and cut `jobs`
    jobs over `children` children, none empty if jobs >= children."""
    return [0] + [jobs * i // children for i in range(children + 1)]


class _Children:
    """Forked children, the package's one way to fork. Each runs its work
    under _raising and leaves through os._exit, whose status nothing reads:
    a part's result is its spill file if that ends with _END, which no UTF-8
    text holds and no arithmetic makes (a NaN), so a host that ignores
    SIGCHLD, whose kernel reaps the children, changes nothing. parts is the
    one part runner, and pipe makes a pipe to a child that fork started; raw
    float64 cells cross through _send_cells and _receive_cells (benchmark
    parts pickle their results, which hold failure text). Work whose spill
    file, pipe or child the system refused, or whose child failed, falls to
    the caller, so whatever it would warn or raise surfaces there, once.
    Leaving the with block kills and reaps every child still running and
    closes every spill file and pipe end, so none outlives the call. Work
    is forked, not sent to a process pool: on the 10k x 77 data.csv a pool
    slowed the CLI chain from 2.91 to 3.48 s, and the pickled part text
    raised simulate's peak from 68.6 to 103.3 MB.
    """

    _END = b"\xff" * 8

    def __init__(self):
        self._pids: list[int] = []
        self._files: list = []

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        import signal

        for pid in self._pids:
            # one the kernel reaped is not signalled: its pid may be reused
            with contextlib.suppress(ChildProcessError, ProcessLookupError):
                if os.waitpid(pid, os.WNOHANG)[0] == 0:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
        for file in self._files:
            file.close()

    def fork(self, work, *args):
        """Fork a child that runs work(*args); its pid, or None if refused."""
        try:
            pid = os.fork()
        except OSError:
            return None
        if pid == 0:
            try:
                with _raising():
                    work(*args)
            finally:  # no status is read: a part's spill is its result
                os._exit(0)
        self._pids.append(pid)
        return pid

    def parts(self, bounds, work):
        """Fork a child for each part bounds[i]..bounds[i + 1] but the first
        that runs work(start, stop, spill) on a new unnamed spill file, then
        appends _END; yield (start, stop, spill) for each part in order, spill
        rewound and less _END if it ends with it, else None (always for part
        0), for the caller to do the part itself where it falls in the loop."""
        children = [None]
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            try:
                self._files.append(spill := tempfile.TemporaryFile())
            except OSError:
                children.append(None)
                continue
            # the child calls this at once, on this iteration's values
            pid = self.fork(lambda: (work(start, stop, spill), spill.write(self._END), spill.flush()))
            children.append(None if pid is None else (pid, spill))
        for child, start, stop in zip(children, bounds, bounds[1:]):
            spill = None
            if child is not None:
                self._pids.remove(child[0])
                with contextlib.suppress(ChildProcessError):  # SIGCHLD ignored: reaped
                    os.waitpid(child[0], 0)
                end = child[1].seek(0, os.SEEK_END) - len(self._END)
                if os.pread(child[1].fileno(), len(self._END), max(end, 0)) == self._END:
                    spill = child[1]
                    spill.truncate(end)
                    spill.seek(0)
            yield start, stop, spill

    def pipe(self):
        """A new pipe's ends: a buffered binary reader, whose read(k) returns
        fewer than k bytes only at end of file, and an unbuffered writer,
        which keeps no bytes back to fail on when it is closed."""
        try:
            read, write = os.pipe()
        except OSError:
            return None
        self._files += (ends := (open(read, "rb"), open(write, "wb", buffering=0)))
        return ends


def _send_cells(file, cells) -> bool:
    """Write an array's float64 cells raw, in C order; False if the file took fewer."""
    raw = np.ascontiguousarray(cells, dtype=np.float64).reshape(-1).view(np.uint8)
    return file.write(raw) == raw.nbytes


def _receive_cells(file, out) -> bool:
    """Fill the C-contiguous float64 array out from the file; False if it ends first."""
    raw = out.reshape(-1).view(np.uint8)
    return file.readinto(raw) == raw.nbytes


def _raised_errstate():
    """np.errstate keywords that raise every floating-point error the
    current state does not ignore: one that would warn, call, print, log or
    raise."""
    return {kind: "raise" for kind, mode in np.geterr().items() if mode != "ignore"}


@contextlib.contextmanager
def _raising():
    """Every warning, and every floating-point error the current state does
    not ignore, raised: the rule every forked child runs under. Whatever its
    work would emit ends the child instead, and the parent then does the
    work itself, so it surfaces there, once."""
    with warnings.catch_warnings(), np.errstate(**_raised_errstate()):
        warnings.simplefilter("error")
        yield


def psd_factor(sigma, n) -> np.ndarray:
    """F with F @ F.T = sigma / n once the negative eigenvalues of the
    symmetrized sigma are set to zero; exact zeros stay zero (no jitter)."""
    vals, vecs = np.linalg.eigh((sigma + sigma.T) / 2.0)
    return vecs * np.sqrt(np.maximum(vals, 0.0) / n)


CV_FOLDS = 5  # folds of linear's lambda CVs and of pls's q CV


def _heldout_sse(design, target, coefs) -> np.ndarray:
    """Held-out squared error of target against design @ coefs, one entry per
    column of coefs: a CV fold scored at every grid point or q at once."""
    return np.sum((target[:, None] - design @ coefs) ** 2, axis=0)


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
