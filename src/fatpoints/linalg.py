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

The exact rank of a caller's rows is read off one fraction-free
forward pass over the rows made primitive, in :func:`_pivot_columns`:
the pivot count is the rank, and the pivots among the first h columns
are the rank of those columns.  Ranks are asked of :func:`rank_rows`,
which applies one rule to every caller: the rows are first read modulo
``MODULAR_PRIME``, an integer x as x mod p and a rational a/b as
a b^-1 mod p, the ring map from the rationals with denominator prime to
p onto F_p, which can only lower a rank.  When that rank equals
min(rows, cols) it is reported: a full-size minor that is nonzero mod p
is nonzero over Q, and no rank exceeds min(rows, cols).  That pass,
:func:`_rank_mod`, delays its reductions: rows are updated with no
``% p`` and only the entries it reads are reduced.  Every other
case, a row with a denominator divisible by p among them, is decided by
the exact pass, and a modular rank that differs from it is counted and
logged, so a reported rank never depends on trusting a prime.  The
mod-p question alone is :func:`modular_rank`, a lower bound, for a
caller that settles its "no" by a proof of its own: the regularity scan
of :mod:`fatpoints.schemes` asks it at its first degree.  Only the
artinian reductions call the exact pass directly, to read off it
whether a degree vanishes: whether every pivot falls among the columns
they put first.
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

#: The published prime of the mod-p pass in :func:`rank_rows`: 2^30 - 35,
#: the largest prime below 2^30, so that every residue is one CPython digit,
#: a multiplier times a residue at most two, and every entry of the pass,
#: whose updates are reduced only where read, at most three (:func:`_rank_mod`).
#: Any prime is sound, since only a full modular rank is trusted;
#: ``pow(x, -1, p)`` needs p prime.
MODULAR_PRIME = 1073741789

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

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]


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


def _pivot_columns(rows: Sequence[Sequence], ncols: int) -> list[int]:
    """Pivot columns of the forward pass over the caller's rows made primitive.

    Each step of the pass is a row operation, which keeps the rank of the
    rows cut to their first h entries, and once the pass is past column
    h - 1 those cut rows are in echelon form, one nonzero row per pivot.
    So ``bisect_left(pivots, h)``, the pivots below h, is that rank, and
    ``len(pivots)`` the rank of the rows.
    """
    return _bareiss_forward([primitive_row(row) for row in rows], ncols)


def _annihilator_step(rows: list[list[int]], prev: int, q: int) -> tuple[list[list[int]], int]:
    """One fraction-free step of :func:`fatpoints.geometry.spanned_flats`' tree, at column q.

    The pivot is the first row nonzero at q; every other row becomes
    (pv row - row[q] prow) / prev on the columns after q only, and the
    pivot row is dropped.  Returns the new rows, whose column 0 is the old
    column q+1, and the pivot value pv, the next step's prev.  The tree
    takes it from prefixes of fewer than r-2 points only: its last level
    reads just which entries the step would make zero.
    """
    prow = next(row for row in rows if row[q])
    pv = prow[q]
    ptail = prow[q + 1 :]
    return [
        [(pv * x - row[q] * y) // prev for x, y in zip(row[q + 1 :], ptail)]
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


def _rank_mod(rows: Sequence[Sequence], ncols: int, p: int) -> int | None:
    """Rank modulo the prime p of integer or rational rows, by Gaussian elimination.

    An integer x is read as x mod p and a rational a/b as a b^-1 mod p.
    None when a denominator is divisible by p: that row has no image mod p.

    Reduction is delayed: the row update is x - t y with no ``% p``, and
    only the entries that are read are reduced, the pivot candidates,
    each row's multiplier t and the pivot row's tail.  Each row keeps only
    the columns after the current one, so no finished column is read.  A
    row takes at most one update per pivot, with 0 <= t, y < p, so every
    entry stays below p + rank p^2 in absolute value: at most three
    CPython digits at ``MODULAR_PRIME``.
    """
    try:
        m = [
            [x % p if type(x) is int else int(x.numerator) * pow(int(x.denominator), -1, p) % p for x in row]
            for row in rows
        ]
    except ValueError:  # pow: a denominator divisible by p
        return None
    rank = 0
    for _ in range(ncols):
        if not m:
            break
        for pr, row in enumerate(m):
            if row[0] % p:
                break
        else:  # no pivot in this column
            m = [row[1:] for row in m]
            continue
        prow = m.pop(pr)
        inv = pow(prow[0], -1, p)
        ptail = [x * inv % p for x in prow[1:]]
        m = [[x - t * y for x, y in zip(row[1:], ptail)] if (t := row[0] % p) else row[1:] for row in m]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# rank decision
# ---------------------------------------------------------------------------

_stats_lock = threading.Lock()
_stats = {"short_circuits": 0, "certified": 0, "fallbacks": 0, "disagreements": 0}


def set_modular_filter(enabled: bool) -> None:
    """Does nothing: every rank takes the one rule of :func:`rank_rows`.

    Kept only because the benchmark worker, ``perfbench/worker.py``, still
    calls it; it goes when the benchmark stops calling it (ROADMAP item 4).
    """


def modular_stats() -> dict[str, int]:
    """Snapshot of the rank path counters (for diagnostics and tests).

    ``short_circuits`` counts mod-p ranks settled by the full-rank rule,
    ``fallbacks`` the ranks of :func:`rank_rows` decided by the exact
    pass, and ``disagreements`` the fallbacks whose modular rank differed.
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


def modular_rank(rows: Sequence[Sequence], ncols: int) -> int | None:
    """The rank of the rows' residues modulo ``MODULAR_PRIME``: a lower bound of the rank.

    It is the rank when it equals min(rows, cols); that case is counted
    in ``short_circuits``.  None when a denominator is divisible by p.
    Any other answer proves nothing on its own: :func:`rank_rows`
    finishes it exactly.  The regularity scan asks it alone at its first
    degree, where a "no" is settled by a proven bound of the scan's or
    asked again of :func:`rank_rows` (see
    :func:`fatpoints.schemes.regularity_index`).  A row of another length
    than ncols raises ``ValueError``.
    """
    if any(len(row) != ncols for row in rows):
        raise ValueError("dimension mismatch")
    rp = _rank_mod(rows, ncols, MODULAR_PRIME)
    if rp == min(len(rows), ncols):
        _bump("short_circuits")
    return rp


def rank_rows(rows: Sequence[Sequence], ncols: int) -> int:
    """Exact rank of a list of integer (or rational) rows of ncols entries each.

    The mod-p question (:func:`modular_rank`) is asked first, and its
    rank, if it equals min(rows, cols), is returned as is, since it is a
    lower bound that meets the upper one, and no primitive row is made.
    Otherwise one fraction-free pass over the rows made primitive
    decides, counted in ``fallbacks``; a modular rank that differs from
    its answer is counted in ``disagreements`` and logged.  A row of
    another length raises ``ValueError``, in :func:`modular_rank`.
    """
    rp = modular_rank(rows, ncols)
    if rp == min(len(rows), ncols):
        return rp
    _bump("fallbacks")
    true_rank = len(_pivot_columns(rows, ncols))
    if rp is not None and rp != true_rank:
        _bump("disagreements")
        _LOG.warning(
            "modular rank %d (mod %d) disagreed with rational rank %d on a %d x %d matrix; "
            "rational result reported",
            rp,
            MODULAR_PRIME,
            true_rank,
            len(rows),
            ncols,
        )
    return true_rank
