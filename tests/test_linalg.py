import itertools
import logging
import random
from bisect import bisect_left
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fatpoints.linalg import (
    MODULAR_PRIME,
    Matrix,
    _echelon,
    _pivot_columns,
    _rank_mod,
    kernel_basis,
    modular_rank,
    modular_stats,
    mpz,
    primitive_row,
    rank_rows,
    reset_modular_stats,
    rref,
)
from oracles import PRIME_62, identity, in_span, mat_vec, plain_rank, plain_rank_mod


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def laplace_det(rows):
    """Determinant by cofactor expansion; independent of the elimination code."""
    k = len(rows)
    if k == 1:
        return rows[0][0]
    total = Fraction(0)
    sign = 1
    for j in range(k):
        if rows[0][j]:
            minor = [[r[c] for c in range(k) if c != j] for r in rows[1:]]
            total += sign * rows[0][j] * laplace_det(minor)
        sign = -sign
    return total


def minor_rank_oracle(m: Matrix) -> int:
    """Largest k admitting a nonvanishing k x k minor, by brute force."""
    rows = m.to_rows()
    best = 0
    for k in range(1, min(m.rows, m.cols) + 1):
        found = False
        for rsub in itertools.combinations(range(m.rows), k):
            for csub in itertools.combinations(range(m.cols), k):
                sub = [[rows[i][j] for j in csub] for i in rsub]
                if laplace_det(sub) != 0:
                    found = True
                    break
            if found:
                break
        if not found:
            break
        best = k
    return best


def random_matrix(rng, nrows, ncols, planted_rank=None, height=9):
    if planted_rank is None:
        rows = [[Fraction(rng.randint(-height, height), rng.randint(1, 4)) for _ in range(ncols)] for _ in range(nrows)]
        return Matrix.from_rows(rows)
    a = [[Fraction(rng.randint(-height, height)) for _ in range(planted_rank)] for _ in range(nrows)]
    b = [[Fraction(rng.randint(-height, height)) for _ in range(ncols)] for _ in range(planted_rank)]
    rows = [
        [sum((a[i][k] * b[k][j] for k in range(planted_rank)), Fraction(0)) for j in range(ncols)]
        for i in range(nrows)
    ]
    return Matrix.from_rows(rows)


fractions_st = st.fractions(
    min_value=-6, max_value=6, max_denominator=4
)

small_matrix_st = st.integers(min_value=1, max_value=4).flatmap(
    lambda r: st.integers(min_value=1, max_value=5).flatmap(
        lambda c: st.lists(
            st.lists(fractions_st, min_size=c, max_size=c), min_size=r, max_size=r
        ).map(Matrix.from_rows)
    )
)


# ---------------------------------------------------------------------------
# rref
# ---------------------------------------------------------------------------

def test_rref_identity():
    res = rref(identity(2))
    assert res.rank == 2
    assert res.pivot_cols == (0, 1)
    assert res.rref == identity(2)


def test_rref_proportional_rows():
    res = rref(Matrix.from_rows([[1, 2], [2, 4]]))
    assert res.rank == 1
    assert res.rref.row(0) == (Fraction(1), Fraction(2))


def test_rref_rank_matches_minor_oracle():
    rng = random.Random(20240)
    for planted in [None, 2, 3, 4, 5]:
        m = random_matrix(rng, 6, 9, planted_rank=planted)
        assert rref(m).rank == minor_rank_oracle(m)


def test_rref_is_reduced():
    rng = random.Random(7)
    for _ in range(20):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        res = rref(m)
        for i, pc in enumerate(res.pivot_cols):
            assert res.rref.at(i, pc) == 1
            for i2 in range(res.rref.rows):
                if i2 != i:
                    assert res.rref.at(i2, pc) == 0
            # echelon: nothing to the left of the pivot
            for j in range(pc):
                assert res.rref.at(i, j) == 0


@settings(max_examples=60, deadline=None)
@given(small_matrix_st)
def test_rref_idempotent(m):
    once = rref(m).rref
    assert rref(once).rref == once


@settings(max_examples=60, deadline=None)
@given(small_matrix_st)
def test_rank_equals_transpose_rank(m):
    assert rref(m).rank == rref(Matrix.from_rows(list(zip(*m.to_rows())))).rank


def test_rref_preserves_row_space():
    rng = random.Random(11)
    for _ in range(10):
        m = random_matrix(rng, 4, 5)
        res = rref(m)
        original = [list(m.row(i)) for i in range(m.rows)]
        reduced = [list(res.rref.row(i)) for i in range(res.rank)]
        for r in original:
            assert in_span(r, reduced)
        for r in reduced:
            assert in_span(r, original)


# ---------------------------------------------------------------------------
# kernel_basis
# ---------------------------------------------------------------------------

def test_kernel_of_zero_matrix():
    m = Matrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    basis = kernel_basis(m)
    assert basis == [
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    ]


def test_kernel_of_identity_is_empty():
    assert kernel_basis(identity(3)) == []


def test_kernel_single_row():
    basis = kernel_basis(Matrix.from_rows([[1, 1, 0]]))
    assert len(basis) == 2
    for v in basis:
        assert v[0] + v[1] == 0


@settings(max_examples=60, deadline=None)
@given(small_matrix_st)
def test_kernel_dimension_and_annihilation(m):
    basis = kernel_basis(m)
    assert len(basis) == m.cols - rref(m).rank
    for v in basis:
        for i in range(m.rows):
            assert sum((m.at(i, j) * v[j] for j in range(m.cols)), Fraction(0)) == 0
    if basis:
        assert rref(Matrix.from_rows([list(v) for v in basis])).rank == len(basis)


# ---------------------------------------------------------------------------
# in_span
# ---------------------------------------------------------------------------

def test_in_span_zero_vector():
    assert in_span([0, 0], [[1, 2]])
    assert in_span([0, 0, 0], [])


def test_in_span_sum_of_basis():
    b1, b2 = [1, 0, 2], [0, 1, 3]
    assert in_span([1, 1, 5], [b1, b2])


def test_in_span_mismatch():
    with pytest.raises(ValueError):
        in_span([1, 2], [[1, 2, 3]])


def test_in_span_matches_rank_oracle():
    rng = random.Random(99)
    for _ in range(40):
        ncols = rng.randint(2, 6)
        basis = [
            [Fraction(rng.randint(-5, 5)) for _ in range(ncols)]
            for _ in range(rng.randint(1, 4))
        ]
        v = [Fraction(rng.randint(-5, 5)) for _ in range(ncols)]
        r_basis = rref(Matrix.from_rows(basis)).rank
        r_aug = rref(Matrix.from_rows(basis + [v])).rank
        assert in_span(v, basis) == (r_aug == r_basis)


# ---------------------------------------------------------------------------
# rank modulo a prime
# ---------------------------------------------------------------------------

def rank_mod(m: Matrix, p: int) -> int:
    """The rank mod p of m's rows made primitive, as the exact path of rank_rows makes them."""
    return _rank_mod([primitive_row(row) for row in m.to_rows()], m.cols, p)


def test_rank_mod_p_identity():
    assert rank_mod(identity(3), MODULAR_PRIME) == 3


def test_rank_mod_p_constructed_degeneration():
    # the first row's residues are zero; only the exact path divides its content p out
    p = MODULAR_PRIME
    m = Matrix.from_rows([[p, 0], [0, 1]])
    assert _rank_mod(m.to_rows(), 2, p) == 1
    assert rref(m).rank == 2


def test_modular_prime_is_a_prime_below_2_to_the_30():
    # below 2^30 every residue is one CPython digit, so a product fits in two
    # and % p divides by one digit; pow(x, -1, p) needs p prime.  Trial
    # division up to 32768 = sqrt(2^30) proves it.
    p = MODULAR_PRIME
    assert 32768 < p < 2**30
    assert all(p % q for q in range(2, 32769))


@pytest.mark.parametrize("rows", [[[1], [0, 1]], [[0], [1]], [[1, 2, 3], [0, 1]]])
def test_rank_rows_rejects_ragged_rows(rows):
    with pytest.raises(ValueError, match="dimension mismatch"):
        rank_rows(rows, 2)


MOD_PRIMES = (2, 3, 65537, MODULAR_PRIME, PRIME_62)

small_int_st = st.integers(min_value=-9, max_value=9)
mixed_entry_st = st.one_of(
    small_int_st,
    st.integers(min_value=-(2**64), max_value=2**64),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    small_int_st.map(mpz),
)


def as_fraction(x):
    """An int, ``Fraction`` or mpz entry as a ``Fraction``."""
    return Fraction(int(x.numerator), int(x.denominator))


@st.composite
def mod_p_cases(draw):
    """Rows of int, Fraction and mpz entries, a prime, and planted trouble at it:
    a row congruent to another mod p, a row of content p, a denominator p."""
    p = draw(st.sampled_from(MOD_PRIMES))
    ncols = draw(st.integers(min_value=0, max_value=10))
    nrows = draw(st.integers(min_value=0, max_value=10))
    rows = draw(st.lists(st.lists(mixed_entry_st, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    if rows and ncols:
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, ncols - 1))
        plant = draw(st.sampled_from(("none", "collision", "content", "denominator")))
        if plant == "collision":
            rows.append([x + p if k == j else x for k, x in enumerate(rows[i])])
        elif plant == "content":
            rows[i] = [p * x for x in rows[i]]
        elif plant == "denominator":
            rows[i][j] = as_fraction(rows[i][j] or 1) / p
    return rows, ncols, p


def divides_content_or_denominator(p, row):
    """Whether p divides the numerator or denominator of the row's content,
    the rational c with row = c * primitive_row(row) (1 for a zero row); a
    denominator of the row divisible by p always puts p in c's denominator."""
    content = next((as_fraction(x) / int(y) for x, y in zip(row, primitive_row(row)) if x), Fraction(1))
    return content.numerator % p == 0 or content.denominator % p == 0


@settings(max_examples=300, deadline=None)
@given(mod_p_cases())
@example(([[1, 2], [3, 4], [5, 6]], 2, MODULAR_PRIME))  # more rows than columns
@example(([[MODULAR_PRIME, 2 * MODULAR_PRIME], [1, 1]], 2, MODULAR_PRIME))
@example(([[1, 1], [1, 1 + MODULAR_PRIME]], 2, MODULAR_PRIME))
@example(([[Fraction(1, MODULAR_PRIME), 0], [0, 1]], 2, MODULAR_PRIME))
@example(([[Fraction(3, 2), mpz(4)], [Fraction(6), 8]], 2, 3))
def test_rank_mod_matches_plain_kernel_on_primitive_rows(case):
    rows, ncols, p = case
    exact = plain_rank(rows, ncols)
    rp = _rank_mod(rows, ncols, p)
    if rp is None:
        assert any(x.denominator % p == 0 for row in rows for x in row)
    else:
        assert rp <= exact
    if not any(divides_content_or_denominator(p, row) for row in rows):
        assert rp == plain_rank_mod(rows, ncols, p)
    assert rank_rows(rows, ncols) == exact


def test_a_row_of_content_p_or_a_denominator_p_falls_back_to_the_right_rank(caplog):
    p = MODULAR_PRIME
    reset_modular_stats()
    with caplog.at_level(logging.WARNING, logger="fatpoints.linalg"):
        # content p: the residue row is zero, the primitive row is (1, 2)
        assert rank_rows([[p, 2 * p], [1, 1]], 2) == 2
        assert modular_stats()["disagreements"] == 1
        # a denominator p: the row has no image mod p, so nothing to disagree with
        assert _rank_mod([[Fraction(1, p), 0], [0, 1]], 2, p) is None
        assert rank_rows([[Fraction(1, p), 0], [0, 1]], 2) == 2
    assert modular_stats() == {"short_circuits": 0, "certified": 0, "fallbacks": 2, "disagreements": 1}
    assert sum("disagreed" in rec.message for rec in caplog.records) == 1


def random_62bit_primes(seed, count):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)
    primes = []
    while len(primes) < count:
        candidate = sympy.nextprime(rng.getrandbits(62) | (1 << 61))
        if candidate.bit_length() == 62:
            primes.append(int(candidate))
    return primes


def test_rank_mod_p_agrees_with_rational_rank_on_random_corpus():
    rng = random.Random(4242)
    primes = random_62bit_primes(4242, 6)
    for trial in range(50):
        m = random_matrix(
            rng,
            rng.randint(1, 5),
            rng.randint(1, 6),
            planted_rank=rng.choice([None, 1, 2, 3]),
        )
        expected = rref(m).rank
        for p in rng.sample(primes, 3):
            assert rank_mod(m, p) == expected


@settings(max_examples=40, deadline=None)
@given(small_matrix_st)
def test_rank_mod_p_never_exceeds_rational_rank(m):
    assert rank_mod(m, MODULAR_PRIME) <= rref(m).rank


# ---------------------------------------------------------------------------
# certified rank engine
# ---------------------------------------------------------------------------

def test_rank_modular_filter_matches_pure_rank():
    rng = random.Random(31337)
    for _ in range(40):
        m = random_matrix(
            rng,
            rng.randint(1, 6),
            rng.randint(1, 6),
            planted_rank=rng.choice([None, 1, 2, 3]),
        )
        assert rank_rows(m.to_rows(), m.cols) == plain_rank(m.to_rows(), m.cols)


def test_rank_filter_falls_back_on_bad_prime(caplog):
    # rank drops mod the first published prime, and row scaling cannot hide it
    p = MODULAR_PRIME
    rows = [[1, 1], [1, 1 + p]]
    reset_modular_stats()
    with caplog.at_level(logging.WARNING, logger="fatpoints.linalg"):
        assert rank_rows(rows, 2) == 2
    stats = modular_stats()
    assert stats["fallbacks"] >= 1
    assert stats["disagreements"] >= 1
    assert any("disagreed" in rec.message for rec in caplog.records)


def test_rank_filter_certifies_rank_deficient_matrices():
    rng = random.Random(5)
    reset_modular_stats()
    for _ in range(10):
        m = random_matrix(rng, 5, 7, planted_rank=3)
        assert rank_rows(m.to_rows(), m.cols) == 3
    assert modular_stats()["disagreements"] == 0


P0 = MODULAR_PRIME

# small entries, plus entries of at least 62 bits that wrap modulo P0
entry_st = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=2**62, max_value=2**64),
    st.integers(min_value=-(2**64), max_value=-(2**62)),
)


@st.composite
def int_rows_st(draw):
    ncols = draw(st.integers(min_value=0, max_value=8))
    nrows = draw(st.integers(min_value=0, max_value=8))
    rows = draw(st.lists(st.lists(entry_st, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    if ncols >= 2 and draw(st.booleans()):
        # these two rows are dependent mod P0 but not over Q
        rows = rows[:6] + [[1] * ncols, [1 + P0] + [1] * (ncols - 1)]
    return rows, ncols


def test_rank_rows_filter_matches_plain_elimination():
    reset_modular_stats()

    @settings(max_examples=150, deadline=None)
    @given(int_rows_st())
    @example(([[1, 1], [1 + P0, 1]], 2))
    @example(([[2**62, 1], [0, 3]], 2))
    def check(case):
        rows, ncols = case
        assert (
            rank_rows(rows, ncols)
            == plain_rank(rows, ncols)
            == rref(Matrix.from_rows(rows)).rank
        )

    check()
    stats = modular_stats()
    assert stats["short_circuits"] > 0
    assert stats["fallbacks"] > 0


@settings(max_examples=150, deadline=None)
@given(int_rows_st())
@example(([[1, 1], [1 + P0, 1]], 2))
def test_modular_rank_is_a_lower_bound_counted_only_when_full(case):
    rows, ncols = case
    reset_modular_stats()
    rp = modular_rank(rows, ncols)
    assert rp <= plain_rank(rows, ncols)
    assert modular_stats()["short_circuits"] == (rp == min(len(rows), ncols))
    assert modular_stats()["fallbacks"] == 0


#: mostly 0, else an integer or a Fraction in -3..3
sparse_entry_st = st.one_of(
    st.just(0),
    st.just(0),
    st.just(0),
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
)


@st.composite
def pivot_cases(draw):
    """0..8 rows of 0..10 sparse entries, some of them repeated rows or zero rows."""
    ncols = draw(st.integers(min_value=0, max_value=10))
    rows = draw(st.lists(st.lists(sparse_entry_st, min_size=ncols, max_size=ncols), max_size=8))
    for k in draw(st.lists(st.one_of(st.none(), st.integers(0, 7)), max_size=8 - len(rows))):
        rows.append(list(rows[k % len(rows)]) if k is not None and rows else [0] * ncols)
    return draw(st.permutations(rows)), ncols


@settings(max_examples=300, deadline=None)
@given(pivot_cases())
@example(([[0, 1], [0, 2], [1, 0]], 2))  # the first column's pivot is the last row
@example(([[], []], 0))
def test_pivots_among_the_leading_columns_count_their_rank(case):
    # the identity that lets one forward pass give both artinian ranks
    rows, ncols = case
    pivots = _pivot_columns(rows, ncols)
    assert len(pivots) == rank_rows(rows, ncols)
    for h in range(ncols + 1):
        assert bisect_left(pivots, h) == rank_rows([row[:h] for row in rows], h)


# ---------------------------------------------------------------------------
# utilities
# ---------------------------------------------------------------------------

def gauss_jordan_oracle(m: Matrix):
    """Plain Fraction elimination, no fraction-free tricks or row scaling."""
    rows = m.to_rows()
    piv = 0
    pivot_cols = []
    for c in range(m.cols):
        pr = next((r for r in range(piv, m.rows) if rows[r][c] != 0), None)
        if pr is None:
            continue
        rows[piv], rows[pr] = rows[pr], rows[piv]
        pv = rows[piv][c]
        rows[piv] = [x / pv for x in rows[piv]]
        for r in range(m.rows):
            if r != piv and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[piv])]
        pivot_cols.append(c)
        piv += 1
    return rows, piv, tuple(pivot_cols)


def test_rref_matches_plain_gauss_jordan_oracle():
    rng = random.Random(606)
    for trial in range(30):
        nr = rng.randint(1, 10)
        nc = rng.randint(1, 14)
        m = random_matrix(rng, nr, nc, planted_rank=rng.choice([None, 1, 2, 3, 5]))
        oracle_rows, oracle_rank, oracle_pivots = gauss_jordan_oracle(m)
        res = rref(m)
        assert res.rank == oracle_rank
        assert res.pivot_cols == oracle_pivots
        assert res.rref.to_rows() == oracle_rows


@st.composite
def echelon_cases(draw):
    """Integer rows with planted dependent rows, zero rows and zero columns."""
    ncols = draw(st.integers(min_value=0, max_value=7))
    nrows = draw(st.integers(min_value=0, max_value=6))
    rows = draw(st.lists(st.lists(entry_st, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    if rows:
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
            dependent = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)]
            rows.insert(draw(st.integers(0, len(rows))), dependent)
        if draw(st.booleans()):
            rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
        if draw(st.booleans()):
            j = draw(st.integers(0, ncols))
            rows = [r[:j] + [0] + r[j:] for r in rows]
            ncols += 1
    return rows, ncols


@settings(max_examples=250, deadline=None)
@given(echelon_cases())
@example(([], 0))
@example(([], 3))
@example(([[], []], 0))
@example(([[0, 0, 0], [0, 0, 0]], 3))
@example(([[2**62, 3 * 2**62 + 1, 0], [-(2**63), 5, 2**64], [2**62, 3 * 2**62 + 1, 0]], 3))
def test_echelon_rows_are_primitive_multiples_of_plain_gauss_jordan(case):
    rows, ncols = case
    m = Matrix(len(rows), ncols, tuple(Fraction(x) for r in rows for x in r))
    oracle_rows, oracle_rank, oracle_pivots = gauss_jordan_oracle(m)
    got, pivots = _echelon([list(r) for r in rows], ncols)
    assert tuple(pivots) == oracle_pivots
    assert [[Fraction(int(x), int(row[c])) for x in row] for row, c in zip(got, pivots)] == oracle_rows[:oracle_rank]
    for row, c in zip(got, pivots):
        assert row[c] > 0
        assert reduce(gcd, map(int, row)) == 1
    # the public views: rref's rows and one kernel vector per free column
    assert rref(m).rref.to_rows() == oracle_rows
    free = [f for f in range(ncols) if f not in oracle_pivots]
    expected = []
    for f in free:
        v = [Fraction(int(c == f)) for c in range(ncols)]
        for i, pc in enumerate(oracle_pivots):
            v[pc] = -oracle_rows[i][f]
        expected.append(tuple(v))
    assert kernel_basis(m) == expected


def test_degenerate_shapes():
    empty = Matrix.from_rows([])
    assert rref(empty).rank == 0
    one = Matrix.from_rows([[Fraction(5, 3)]])
    assert rref(one).rank == 1
    assert rref(one).rref.at(0, 0) == 1
    zero_row = Matrix.from_rows([[0, 0, 0]])
    assert rref(zero_row).rank == 0
    assert len(kernel_basis(zero_row)) == 3
    assert rank_rows(zero_row.to_rows(), 3) == 0


def test_mat_vec():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    assert mat_vec(a, (Fraction(1), Fraction(1))) == (3, 7)
