"""Deterministic exact linear algebra over the rationals.

Every rank, echelon form and kernel in the package is computed here, in
exact arithmetic.  The core, :func:`_echelon`, stays in integers: one-step
Bareiss forward elimination on denominator-cleared rows, then integer
back substitution to the reduced echelon form as primitive rows with
positive pivots, unique as positive multiples of the canonical rows.
:func:`integer_kernel` reads the kernel off them as primitive integer
normals.  Every canonical ``Fraction`` row (of :func:`rref`,
:func:`kernel_basis` and the geometry layer) is an integer row divided by
a positive divisor, in :func:`_fraction_rows`.  Pivots are chosen
deterministically: leftmost nonzero column, first nonzero row.

Every rank is decided in :func:`rank_rows`, by rational elimination
unless the caller, which expects full rank, passes ``modular=True``.
Then the rows are first reduced modulo ``MODULAR_PRIMES[0]``.  When that
rank equals min(rows, cols) it is reported: a full-size minor that is
nonzero mod p is nonzero over Q, and no rank exceeds min(rows, cols).
Every other case is decided by rational elimination, and a modular rank
that differs from it is counted and logged, so a reported rank never
depends on trusting a prime.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import getitem
from typing import Iterable, Sequence

try:
    from gmpy2 import mpz
except ImportError:  # gmpy2 is an optional extra; same values, slower
    mpz = int

_LOG = logging.getLogger("fatpoints.linalg")

#: Published 62-bit primes.  The rank filter uses only the first;
#: :func:`rank_mod_p` accepts any modulus.
MODULAR_PRIMES: tuple[int, ...] = (
    4611686018427387847,
    4611686018427387817,
    4611686018427387787,
    4611686018427387761,
    4611686018427387751,
)

Vector = tuple[Fraction, ...]

_ZERO = mpz(0)


# ---------------------------------------------------------------------------
# matrix type
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Matrix:
    """Dense row-major matrix of exact rationals."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[object]]) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        entries = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            entries.extend(Fraction(x) for x in r)
        return cls(nrows, ncols, tuple(entries))

    @classmethod
    def identity(cls, k: int) -> "Matrix":
        one, zero = Fraction(1), Fraction(0)
        return cls(k, k, tuple(one if i == j else zero for i in range(k) for j in range(k)))

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols,
            self.rows,
            tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)),
        )


@dataclass(frozen=True)
class RrefResult:
    """Reduced row echelon form together with rank and pivot columns."""

    rref: Matrix
    rank: int
    pivot_cols: tuple[int, ...]


# ---------------------------------------------------------------------------
# integer core
# ---------------------------------------------------------------------------

def primitive_row(xs: Sequence) -> list:
    """The primitive integer row proportional to xs, as a list of ``mpz``.

    Clears the denominators of the rational (or integer) entries with
    their lcm, then divides out the content.  Row scaling by nonzero
    rationals preserves the row space, hence rank, pivot columns and the
    reduced echelon form.  A zero row stays zero.
    """
    lcm = 1
    for x in xs:
        d = x.denominator
        if d != 1:
            lcm = lcm // gcd(lcm, d) * d
    if lcm == 1:  # integer rows, as rank_rows mostly gets, skip the rescale
        ints = [mpz(x.numerator) for x in xs]
    else:
        ints = [mpz(x.numerator * (lcm // x.denominator)) for x in xs]
    content = 0
    for v in ints:
        if v:
            content = gcd(content, v)
            if content == 1:
                break
    if content > 1:
        ints = [v // content for v in ints]
    return ints


def _bareiss_forward(m: list[list], ncols: int) -> list[int]:
    """Fraction-free forward elimination in place; returns pivot columns."""
    nrows = len(m)
    prev = mpz(1)
    piv = 0
    pivot_cols: list[int] = []
    for c in range(ncols):
        if piv >= nrows:
            break
        pr = next((r for r in range(piv, nrows) if m[r][c]), None)
        if pr is None:
            continue
        if pr != piv:
            m[piv], m[pr] = m[pr], m[piv]
        prow = m[piv]
        pv = prow[c]
        ptail = prow[c + 1 :]
        for r in range(piv + 1, nrows):
            row = m[r]
            t = row[c]
            if t:
                row[c + 1 :] = [(pv * x - t * y) // prev for x, y in zip(row[c + 1 :], ptail)]
                row[c] = _ZERO
            elif pv != prev:
                # rows must stay at the current minor level for the
                # one-step division to remain exact
                row[c + 1 :] = [(pv * x) // prev for x in row[c + 1 :]]
        prev = pv
        pivot_cols.append(c)
        piv += 1
    return pivot_cols


def _annihilator_step(rows: list[list[int]], prev: int, q: int) -> tuple[list[list[int]], int]:
    """One fraction-free step at column q of :func:`fatpoints.geometry.spanned_flats`.

    The pivot is the first row nonzero at q; every other row becomes
    (pv row - row[q] prow) / prev, and the pivot row is dropped.  Returns
    the new rows and the pivot value pv, the next step's prev.
    """
    prow = next(row for row in rows if row[q])
    pv = prow[q]
    return [
        [(pv * x - row[q] * y) // prev for x, y in zip(row, prow)]
        for row in rows
        if row is not prow
    ], pv


def _fraction_rows(rows: Iterable[Sequence], divisors: Iterable) -> list[Vector]:
    """Each integer row divided by its positive divisor, as ``Fraction``s, zeros ``Fraction(0)``."""
    zero = Fraction(0)
    return [
        tuple(Fraction(int(x), d) if x else zero for x in row)
        for row, d in zip(rows, map(int, divisors))
    ]


def _reduce(v: list, rows: Sequence[Sequence], pivots: Sequence[int]) -> list:
    """A positive multiple of v minus a combination of reduced echelon rows.

    It is zero in every pivot column, and all zero exactly when v lies in
    the span of the rows.
    """
    for row, pc in zip(rows, pivots):
        t = v[pc]
        if t:
            pv = row[pc]
            g = gcd(t, pv)
            a, b = pv // g, t // g
            v = [a * x - b * y for x, y in zip(v, row)]
    return v


def _echelon(m: list[list], ncols: int) -> tuple[list[list], list[int]]:
    """Reduced row echelon form of integer rows, in integers.

    Reduces each pivot row of the forward pass, from the bottom, by the
    finished rows below it.  Returns the rank many rows, each primitive
    with a positive pivot, and their pivot columns.  Row i divided by its
    pivot is row i of the canonical rref.
    """
    pivot_cols = _bareiss_forward(m, ncols)
    rank = len(pivot_cols)
    for i in reversed(range(rank)):
        row = primitive_row(_reduce(m[i], m[i + 1 : rank], pivot_cols[i + 1 :]))
        m[i] = row if row[pivot_cols[i]] > 0 else [-x for x in row]
    return m[:rank], pivot_cols


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def rref(m: Matrix) -> RrefResult:
    """Reduced row echelon form, exact and deterministic.

    The row space is preserved; each pivot is 1 and is the only nonzero
    entry of its column.  Zero rows sink to the bottom.
    """
    rows, pivot_cols = _echelon([primitive_row(m.row(i)) for i in range(m.rows)], m.cols)
    entries = [x for row in _fraction_rows(rows, map(getitem, rows, pivot_cols)) for x in row]
    entries.extend([Fraction(0)] * ((m.rows - len(rows)) * m.cols))
    return RrefResult(Matrix(m.rows, m.cols, tuple(entries)), len(rows), tuple(pivot_cols))


def _kernel_rows(rows: Sequence[Sequence], pivot_cols: Sequence[int], ncols: int):
    """Primitive kernel vectors of reduced echelon rows, in Python ints, one per free column.

    Each is positive at its free column f and zero at the other free
    columns: the canonical kernel vector of f times a positive integer.
    """
    pivot_set = set(pivot_cols)
    for f in range(ncols):
        if f in pivot_set:
            continue
        hits = [(int(row[f]), int(row[pc]), pc) for row, pc in zip(rows, pivot_cols) if row[f]]
        scale = 1  # the lcm of the pivots of the rows that column f enters
        for _, v, _ in hits:
            scale = scale // gcd(scale, v) * v
        w = [0] * ncols
        w[f] = content = scale
        for t, v, pc in hits:
            w[pc] = x = -t * (scale // v)
            content = gcd(content, x)
        if content > 1:
            w = [x // content for x in w]
        yield f, w


def kernel_basis(m: Matrix) -> list[Vector]:
    """Canonical basis of the right kernel.

    One vector per non-pivot column, in ascending column order, with the
    free variable set to 1.  The result has cols - rank(m) vectors.
    """
    rows, pivot_cols = _echelon([primitive_row(m.row(i)) for i in range(m.rows)], m.cols)
    kernel = list(_kernel_rows(rows, pivot_cols, m.cols))
    return _fraction_rows([w for _, w in kernel], [w[f] for f, w in kernel])


def integer_kernel(rows: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    """Primitive integer normals of the row space of integer rows.

    The right kernel as lists of Python ints, each a positive multiple of
    the matching :func:`kernel_basis` vector: a vector lies in the row
    space exactly when every normal dots it to 0.
    """
    if any(len(row) != ncols for row in rows):
        raise ValueError("dimension mismatch")
    echelon, pivot_cols = _echelon([list(row) for row in rows], ncols)
    return [w for _, w in _kernel_rows(echelon, pivot_cols, ncols)]


def in_span(v: Sequence[object], basis: Iterable[Sequence[object]]) -> bool:
    """Whether v lies in the rational span of the given vectors."""
    return SpanTester(list(basis), len(v)).contains(v)


class SpanTester:
    """Repeated membership tests of rational vectors against a fixed spanning set."""

    def __init__(self, basis: Sequence[Sequence], length: int):
        self.length = length
        if any(len(b) != length for b in basis):
            raise ValueError("dimension mismatch")
        self._rows, self._pivots = _echelon([primitive_row(b) for b in basis], length)

    def contains(self, v: Sequence) -> bool:
        if len(v) != self.length:
            raise ValueError("dimension mismatch")
        return not any(_reduce(primitive_row(v), self._rows, self._pivots))


def rank_mod_p(m: Matrix, p: int) -> int:
    """Rank of m reduced modulo the prime p.

    Raises ValueError if p divides the denominator of any entry.  The
    result never exceeds the rational rank.
    """
    if p < 2:
        raise ValueError("modulus must be a prime >= 2")
    rows = []
    for i in range(m.rows):
        row = []
        for x in m.row(i):
            if x.denominator % p == 0:
                raise ValueError(f"denominator of entry ({i}) divisible by {p}")
            row.append(x.numerator * pow(x.denominator, -1, p) % p)
        rows.append(row)
    return _rank_mod(rows, m.cols, p)


def _rank_mod(rows: Sequence[Sequence[int]], ncols: int, p: int) -> int:
    """Rank of integer rows modulo the prime p, by Gaussian elimination."""
    m = [[int(x) % p for x in row] for row in rows]
    piv = 0
    for c in range(ncols):
        if piv >= len(m):
            break
        pr = next((r for r in range(piv, len(m)) if m[r][c]), None)
        if pr is None:
            continue
        if pr != piv:
            m[piv], m[pr] = m[pr], m[piv]
        prow = m[piv]
        inv = pow(prow[c], -1, p)
        prow[c:] = [x * inv % p for x in prow[c:]]
        for r in range(piv + 1, len(m)):
            t = m[r][c]
            if t:
                row = m[r]
                row[c:] = [(x - t * y) % p for x, y in zip(row[c:], prow[c:])]
        piv += 1
    return piv


# ---------------------------------------------------------------------------
# rank decision
# ---------------------------------------------------------------------------

_MODULAR_FILTER = False

_stats_lock = threading.Lock()
_stats = {"short_circuits": 0, "certified": 0, "fallbacks": 0, "disagreements": 0}


def set_modular_filter(enabled: bool) -> None:
    """Set the flag of ``--modular``, kept for the benchmark worker; no rank reads it."""
    global _MODULAR_FILTER
    _MODULAR_FILTER = bool(enabled)


def modular_filter_enabled() -> bool:
    return _MODULAR_FILTER


def modular_stats() -> dict[str, int]:
    """Snapshot of filter activity counters (for diagnostics and tests).

    ``short_circuits`` counts filtered ranks settled by the full-rank
    rule, ``fallbacks`` those decided by rational elimination, and
    ``disagreements`` the fallbacks whose modular rank differed.
    ``certified`` is kept for readers of the snapshot and stays 0: no
    rank is accepted on a modular certificate.
    """
    with _stats_lock:
        return dict(_stats)


def reset_modular_stats() -> None:
    with _stats_lock:
        for k in _stats:
            _stats[k] = 0


def _bump(key: str) -> None:
    with _stats_lock:
        _stats[key] += 1


def rank(m: Matrix, *, modular: bool = False) -> int:
    """Exact rank of m; see :func:`rank_rows`."""
    return rank_rows([m.row(i) for i in range(m.rows)], m.cols, modular=modular)


def rank_rows(rows: Sequence[Sequence], ncols: int, *, modular: bool = False) -> int:
    """Exact rank of a list of integer (or rational) rows.

    By fraction-free elimination.  A caller that expects full rank passes
    ``modular=True``: then a rank mod ``MODULAR_PRIMES[0]`` equal to
    min(rows, cols) is returned as is, since it is a lower bound that
    meets the upper one.  Otherwise elimination decides, and a differing
    modular rank is counted and logged.
    """
    irows = [primitive_row(row) for row in rows]
    rp = None
    if modular:
        rp = _rank_mod(irows, ncols, MODULAR_PRIMES[0])
        if rp == min(len(irows), ncols):
            _bump("short_circuits")
            return rp
        _bump("fallbacks")
    true_rank = len(_bareiss_forward(irows, ncols))
    if rp is not None and rp != true_rank:
        _bump("disagreements")
        _LOG.warning(
            "modular rank %d (mod %d) disagreed with rational rank %d on a %d x %d matrix; "
            "rational result reported",
            rp,
            MODULAR_PRIMES[0],
            true_rank,
            len(irows),
            ncols,
        )
    return true_rank


# ---------------------------------------------------------------------------
# small utilities shared by the geometry layer
# ---------------------------------------------------------------------------

def mat_vec(m: Matrix, v: Sequence[Fraction]) -> Vector:
    if len(v) != m.cols:
        raise ValueError("dimension mismatch")
    return tuple(sum((m.at(i, j) * v[j] for j in range(m.cols)), Fraction(0)) for i in range(m.rows))
