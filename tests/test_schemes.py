import hashlib
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fatpoints.geometry import ProjPoint, span
from fatpoints.linalg import MODULAR_PRIME, Matrix, kernel_basis, rank_rows
from fatpoints.schemes import (
    FatPointScheme,
    Form,
    artinian_quotient_regularity,
    condition_rows,
    curve_lower_bound,
    hilbert_function,
    in_fat_ideal,
    monomial_basis,
    monomial_bound_check,
    multiplicity,
    regularity_index,
    simplex_frame,
)
from fatpoints.schemes import _artinian_ranks, _ideal_piece, _origin_frame
from oracles import (
    condition_matrix,
    coordinate_change_to_origin,
    evaluate_form,
    form_from_terms,
    form_mul,
    form_terms,
    ideal_basis,
    in_span,
    linear_form_to_form,
    monomial_form,
    plain_condition_rows,
    plain_regularity_index,
    random_invertible_change,
)


def unit(n, i):
    return ProjPoint.unit(n, i)


def random_points(rng, n, count, height=9):
    pts = []
    while len(pts) < count:
        coords = [rng.randint(-height, height) for _ in range(n + 1)]
        if not any(coords):
            continue
        p = ProjPoint(tuple(Fraction(c) for c in coords))
        if p not in pts:
            pts.append(p)
    return pts


def simple_scheme(points):
    n = points[0].ambient_n
    return FatPointScheme(n, tuple(points), tuple([1] * len(points)))


# ---------------------------------------------------------------------------
# monomial order
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_a_float_degree_raises_whatever_the_cache_holds(warm):
    """``monomial_basis`` caches by type: 3.0 never hits the entry of 3.
    ``hilbert_function`` rejects a float degree before any cache, naming it."""
    j = FatPointScheme(2, (unit(2, 1), unit(2, 2)), (2, 2))
    monomial_basis.cache_clear()
    if warm:
        monomial_basis(3, 3), monomial_basis(2, 3)
    with pytest.raises(TypeError):
        monomial_bound_check(j, unit(2, 0), 2, 3.0)
    with pytest.raises(ValueError, match=r"degree must be an integer, got 2\.0"):
        hilbert_function(j, 2.0)
    assert monomial_bound_check(j, unit(2, 0), 2, 3)


def test_monomial_basis_size_and_order():
    basis = monomial_basis(2, 3)
    assert len(basis) == comb(2 + 2, 2)
    assert basis[0] == (2, 0, 0)
    assert basis[-1] == (0, 0, 2)
    # degree-lexicographic with the first variable greatest
    assert list(basis) == sorted(basis, reverse=True)


def test_monomial_index_round_trip():
    basis = monomial_basis(3, 4)
    for i, e in enumerate(basis):
        assert basis.index(e) == i


def test_order_at_first_vertex_is_a_basis_prefix():
    # the order of X^b at (1, 0, ..., 0) is t - b_0; the artinian code cuts
    # the basis at comb(i + nvars - 1, nvars - 1), the count of order <= i
    for nvars in range(1, 6):
        for t in range(7):
            orders = [t - e[0] for e in monomial_basis(t, nvars)]
            assert orders == sorted(orders)
            for i in range(t + 1):
                assert sum(o <= i for o in orders) == comb(i + nvars - 1, nvars - 1)


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------

def test_form_multiplication_matches_hand_product():
    # (x0 + x1) * (x0 - x1) = x0^2 - x1^2
    a = form_from_terms(1, 2, {(1, 0): Fraction(1), (0, 1): Fraction(1)})
    b = form_from_terms(1, 2, {(1, 0): Fraction(1), (0, 1): Fraction(-1)})
    prod = form_mul(a, b)
    assert form_terms(prod) == {(2, 0): Fraction(1), (0, 2): Fraction(-1)}


def test_form_evaluation():
    f = monomial_form(3, (1, 1, 0))
    assert evaluate_form(f, ProjPoint((2, 3, 5))) == Fraction(3, 2)  # normalized (1, 3/2, 5/2)


# ---------------------------------------------------------------------------
# scheme validation
# ---------------------------------------------------------------------------

def test_scheme_rejects_duplicates():
    with pytest.raises(ValueError):
        FatPointScheme(2, (unit(2, 0), unit(2, 0)), (1, 1))


def test_without_point_rejects_out_of_range_indices():
    z = FatPointScheme(2, (unit(2, 0), unit(2, 1), unit(2, 2)), (1, 2, 1))
    assert z.without_point(0).points == (unit(2, 1), unit(2, 2))
    assert z.without_point(2).points == (unit(2, 0), unit(2, 1))
    for i in (-1, z.size):
        with pytest.raises(ValueError, match=rf"point index {i} is out of range 0\.\.2"):
            z.without_point(i)


def test_scheme_rejects_bad_multiplicity():
    with pytest.raises(ValueError):
        FatPointScheme(2, (unit(2, 0),), (0,))


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_a_float_ambient_dimension_raises_whatever_the_cache_holds(warm):
    """A scheme with n = 2.0 would be equal to, and hash like, its n = 2 twin."""
    pts, mults = (unit(2, 0), unit(2, 1)), (2, 2)
    regularity_index.cache_clear()
    if warm:
        assert regularity_index(FatPointScheme(2, pts, mults)) == 3
    with pytest.raises(ValueError, match=r"ambient dimension must be an integer, got 2\.0"):
        regularity_index(FatPointScheme(2.0, pts, mults))


# ---------------------------------------------------------------------------
# multiplicity
# ---------------------------------------------------------------------------

def test_multiplicity_double_point_in_plane():
    z = FatPointScheme(2, (unit(2, 0),), (2,))
    assert multiplicity(z) == 3


def test_multiplicity_simple_points():
    rng = random.Random(0)
    pts = random_points(rng, 3, 5)
    assert multiplicity(simple_scheme(pts)) == 5


def test_multiplicity_triple_point_in_space():
    z = FatPointScheme(3, (unit(3, 1),), (3,))
    assert multiplicity(z) == 10


# ---------------------------------------------------------------------------
# hilbert function
# ---------------------------------------------------------------------------

def test_hilbert_single_simple_point():
    z = simple_scheme([ProjPoint((1, 2, 3))])
    for t in range(5):
        assert hilbert_function(z, t) == 1


def test_hilbert_double_point_degree_one():
    z = FatPointScheme(2, (ProjPoint((1, 1, 2)),), (2,))
    assert hilbert_function(z, 1) == 3


def evaluation_nullspace_oracle(points, t):
    """Independent count: C(t+n, n) minus the nullity of plain evaluations."""
    n = points[0].ambient_n
    basis = monomial_basis(t, n + 1)
    rows = []
    for p in points:
        coords = p.rep
        row = []
        for expo in basis:
            v = 1
            for c, e in zip(coords, expo):
                v *= c**e
            row.append(v)
        rows.append(row)
    m = Matrix.from_rows(rows)
    return comb(t + n, n) - len(kernel_basis(m))


def test_hilbert_general_simple_points_against_evaluation_oracle():
    rng = random.Random(12)
    for n, s in [(2, 4), (3, 6), (2, 6)]:
        pts = random_points(rng, n, s, height=30)
        z = simple_scheme(pts)
        for t in range(0, s + 1):
            expected = evaluation_nullspace_oracle(pts, t)
            assert hilbert_function(z, t) == expected
            assert expected == min(comb(t + n, n), s) or span(pts).dim < min(s - 1, n)


def test_hilbert_rejects_negative_degree():
    z = simple_scheme([unit(2, 0)])
    with pytest.raises(ValueError):
        hilbert_function(z, -1)


@st.composite
def fat_schemes(draw):
    """Random schemes: n 1..4, 1..7 distinct points, multiplicities 1..3.

    Coordinates are drawn from a small range so that zeros, repeated
    coordinates and points on proper flats are common.
    """
    n = draw(st.integers(1, 4))
    coords = st.tuples(*[st.integers(-2, 2)] * (n + 1)).filter(any)
    raw = draw(st.lists(coords, min_size=1, max_size=7))
    pts = list(dict.fromkeys(ProjPoint(tuple(Fraction(c) for c in v)) for v in raw))
    mults = draw(st.lists(st.integers(1, 3), min_size=len(pts), max_size=len(pts)))
    return FatPointScheme(n, tuple(pts), tuple(mults))


def _scheme(rows, mults):
    pts = tuple(ProjPoint(tuple(Fraction(c) for c in row)) for row in rows)
    return FatPointScheme(len(rows[0]) - 1, pts, tuple(mults))


@settings(max_examples=120, deadline=None)
@given(fat_schemes())
@example(_scheme([(1, 2, 3)], [3]))  # a single point, off the vertices
@example(_scheme([(1, 0, 0, 0), (1, 1, 0, 0), (1, 2, 0, 0)], [3, 2, 3]))  # a line in P^3
@example(_scheme([(1, 0), (0, 1), (1, 1), (1, 2), (1, -1)], [2, 3, 1, 3, 2]))  # s > n + 1
@example(_scheme([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], [3, 3, 3, 1]))  # overlapping blocks
def test_reduced_hilbert_matches_full_condition_matrix(z):
    """The simplex reduction equals the rank of the full condition matrix.

    Every degree from 0 to one past the regularity index is checked, so
    the degrees below max(m_i) - 1 (where the vertex blocks cover every
    monomial) and below m_i + m_j - 1 (where two blocks overlap) are
    included.
    """
    n, e = z.n, multiplicity(z)
    t, reg = 0, None
    while reg is None or t <= reg + 1:
        full = rank_rows(plain_condition_rows(z, t), comb(t + n, n))
        assert hilbert_function(z, t) == full
        if reg is None and full == e:
            reg = t
        t += 1
    assert regularity_index(z) == reg
    with pytest.raises(ValueError):
        hilbert_function(z, -1)


@settings(max_examples=80, deadline=None)
@given(fat_schemes(), st.integers(0, 7))
@example(_scheme([(1, 2, 3)], [3]), 0)  # order 0 below the multiplicity
@example(_scheme([(1, 0, -2), (0, 1, 1)], [3, 1]), 1)  # order capped at t
def test_condition_rows_match_plain_rows(z, t):
    """``condition_rows`` reads cached stencils; the oracle builds every entry
    as a product over the variables.  Both give the same Python ints."""
    rows = condition_rows(z, t)
    assert rows == plain_condition_rows(z, t)
    assert all(type(x) is int for row in rows for x in row)


@settings(max_examples=120, deadline=None)
@given(fat_schemes())
@example(_scheme([(1, 2, 3)], [3]))  # s = 1
@example(_scheme([(1, 0)], [1]))  # s = 1, reg 0
@example(_scheme([(1, 0, 0), (0, 1, 0)], [3, 1]))  # two points: reg m_1 + m_2 - 1
@example(_scheme([(1, 0), (0, 1), (1, 1), (1, 2)], [1, 1, 1, 1]))  # C(t+n, n) >= e decides
@example(_scheme([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3)], [2, 2, 2, 2, 2]))
# five points on a line and one off it: the line term 9 - 1 = 8 is above t0 = 4
@example(_scheme([(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0), (1, -1, 0), (0, 0, 1)], [3, 1, 2, 1, 2, 1]))
# d+3 general points: the span term ceil(19/2) = 10 in P^2, ceil(23/3) = 8 in P^3, one above t0
@example(_scheme([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3)], [4] * 5))
@example(_scheme([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1), (1, 2, 3, 4)], [4] * 6))
# d+4 general points lie on no conic, so the span term ceil(5/2) = 3 must not apply: reg 2
@example(_scheme([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, -1), (1, -1, 2)], [1] * 6))
# prop43-type: three of six points on a line, so the span term does not apply; the line's 8 does
@example(_scheme([(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 2, 3, 4)], [3] * 6))
# (P0 : 1 : 1) is (0 : 1 : 1) mod P0: its "no" at t0 = L = 4 goes to rank_rows' exact pass
@example(_scheme([(1, 0, 0), (0, 1, 0), (0, 0, 1), (MODULAR_PRIME, 1, 1)], [2] * 4))
def test_regularity_scan_start_is_a_lower_bound(z):
    """The scan from max(m_1 + m_2 - 1, least t with C(t+n, n) >= e), with its
    jump to the curve bound L, finds what the plain scan from max(m_i) - 1
    finds, and L never exceeds it."""
    reg = plain_regularity_index(z)
    assert curve_lower_bound(z) <= reg
    assert regularity_index(z) == reg


def test_simplex_frame_puts_heaviest_independent_points_on_vertices():
    pts = [ProjPoint((Fraction(1), Fraction(1), Fraction(0))), unit(2, 0), unit(2, 1), unit(2, 2)]
    z = FatPointScheme(2, tuple(pts), (1, 3, 3, 2))
    frame = simplex_frame(z)
    # points 1 and 2 (multiplicity 3) come first; point 0 lies on their line
    assert frame.vertices == ((0, 3), (1, 3), (2, 2))
    assert [m for _, m in frame.others] == [1]


def test_hilbert_monotone_until_stabilization():
    rng = random.Random(23)
    for _ in range(5):
        n = rng.randint(1, 3)
        pts = random_points(rng, n, rng.randint(1, 3))
        mults = tuple(rng.randint(1, 3) for _ in pts)
        z = FatPointScheme(n, tuple(pts), mults)
        e = multiplicity(z)
        values = [hilbert_function(z, t) for t in range(sum(mults) + 1)]
        for a, b in zip(values, values[1:]):
            assert a <= b <= e
            if a < e:
                assert a < b
        assert values[-1] == e


def test_hilbert_full_below_smallest_multiplicity():
    z = FatPointScheme(2, (unit(2, 0), ProjPoint((1, 1, 1))), (3, 2))
    for t in range(2):
        assert hilbert_function(z, t) == comb(t + 2, 2)


# ---------------------------------------------------------------------------
# regularity index
# ---------------------------------------------------------------------------

def test_regularity_single_fat_point():
    for n, m in [(1, 3), (2, 2), (2, 4), (3, 3)]:
        z = FatPointScheme(n, (ProjPoint(tuple(Fraction(1) for _ in range(n + 1))),), (m,))
        assert regularity_index(z) == m - 1


def test_regularity_two_simple_points():
    z = simple_scheme([unit(2, 0), unit(2, 1)])
    assert regularity_index(z) == 1


def test_regularity_three_collinear_points():
    pts = [unit(2, 0), unit(2, 1), ProjPoint((1, 1, 0))]
    assert regularity_index(simple_scheme(pts)) == 2


def test_regularity_two_fat_points_classical_value():
    rng = random.Random(1)
    for _ in range(8):
        n = rng.randint(1, 3)
        m1, m2 = rng.randint(1, 4), rng.randint(1, 4)
        pts = random_points(rng, n, 2)
        z = FatPointScheme(n, tuple(pts), (m1, m2))
        assert regularity_index(z) == m1 + m2 - 1


def test_regularity_collinear_fat_points_classical_value():
    rng = random.Random(2)
    for _ in range(6):
        n = rng.randint(2, 3)
        s = rng.randint(2, 4)
        mults = tuple(rng.randint(1, 3) for _ in range(s))
        pts = []
        while len(pts) < s:
            a, b = rng.randint(-9, 9), rng.randint(-9, 9)
            if a == 0 and b == 0:
                continue
            p = ProjPoint(tuple(Fraction(c) for c in [a, b] + [0] * (n - 1)))
            if p not in pts:
                pts.append(p)
        z = FatPointScheme(n, tuple(pts), mults)
        assert regularity_index(z) == sum(mults) - 1


def test_condition_matrix_row_count():
    rng = random.Random(3)
    for _ in range(6):
        n = rng.randint(1, 3)
        s = rng.randint(1, 3)
        pts = random_points(rng, n, s)
        mults = tuple(rng.randint(1, 4) for _ in range(s))
        z = FatPointScheme(n, tuple(pts), mults)
        for t in range(4):
            m = condition_matrix(z, t)
            expected = sum(comb(min(mi - 1, t) + n, n) for mi in mults)
            assert m.rows == expected
            assert m.cols == comb(t + n, n)


def test_regularity_invariance_under_projectivities_and_permutations():
    rng = random.Random(31)
    pts = random_points(rng, 2, 4)
    z = FatPointScheme(2, tuple(pts), (2, 1, 1, 2))
    base = regularity_index(z)
    table = [hilbert_function(z, t) for t in range(base + 1)]
    for _ in range(5):
        change = random_invertible_change(2, rng)
        moved = z.transform(change)
        assert regularity_index(moved) == base
        assert [hilbert_function(moved, t) for t in range(base + 1)] == table
        order = list(range(4))
        rng.shuffle(order)
        shuffled = z.permuted(order)
        assert regularity_index(shuffled) == base


@pytest.mark.parametrize("order", [[0], [2, 1, 7], [-1, 0, 1], [0, 0, 1], [0, 1, 2, 0], []])
def test_permuted_rejects_orders_that_are_not_permutations(order):
    z = FatPointScheme(2, (unit(2, 0), unit(2, 1), unit(2, 2)), (1, 2, 3))
    with pytest.raises(ValueError, match="not a permutation"):
        z.permuted(order)


def test_permuted_reorders_points_with_their_multiplicities():
    z = FatPointScheme(2, (unit(2, 0), unit(2, 1), unit(2, 2)), (1, 2, 3))
    moved = z.permuted([2, 0, 1])
    assert moved.points == (unit(2, 2), unit(2, 0), unit(2, 1))
    assert moved.mults == (3, 1, 2)


# ---------------------------------------------------------------------------
# ideal basis and membership
# ---------------------------------------------------------------------------

def test_ideal_empty_for_double_point_degree_one():
    z = FatPointScheme(2, (ProjPoint((1, 2, 1)),), (2,))
    assert ideal_basis(z, 1) == []


def test_ideal_empty_two_coordinate_points_line():
    z = simple_scheme([unit(1, 0), unit(1, 1)])
    assert ideal_basis(z, 1) == []


def five_general_double_points(seed=7):
    rng = random.Random(seed)
    while True:
        pts = random_points(rng, 2, 5, height=9)
        ok = span(pts).dim == 2
        from itertools import combinations

        for sub in combinations(pts, 3):
            if span(sub).dim <= 1:
                ok = False
        if ok:
            return FatPointScheme(2, tuple(pts), (2,) * 5)


def test_ideal_of_five_double_points_is_square_of_conic():
    z = five_general_double_points()
    forms = ideal_basis(z, 4)
    assert len(forms) == 1
    # the conic through the five points, from plain evaluations
    basis2 = monomial_basis(2, 3)
    rows = []
    for p in z.points:
        coords = p.rep
        rows.append([
            coords[0] ** e[0] * coords[1] ** e[1] * coords[2] ** e[2]
            for e in basis2
        ])
    conic_vecs = kernel_basis(Matrix.from_rows(rows))
    assert len(conic_vecs) == 1
    conic = Form(2, 3, conic_vecs[0])
    square = form_mul(conic, conic)
    quartic = forms[0]
    ratio = None
    for a, b in zip(square.coeffs, quartic.coeffs):
        if (a == 0) != (b == 0):
            pytest.fail("supports differ")
        if a:
            if ratio is None:
                ratio = b / a
            else:
                assert b / a == ratio
    assert ratio is not None


def test_ideal_dimension_complements_hilbert():
    rng = random.Random(40)
    for _ in range(5):
        n = rng.randint(1, 3)
        pts = random_points(rng, n, rng.randint(1, 3))
        z = FatPointScheme(n, tuple(pts), tuple(rng.randint(1, 2) for _ in pts))
        for t in range(4):
            assert len(ideal_basis(z, t)) + hilbert_function(z, t) == comb(t + n, n)


def test_membership_zero_form():
    z = simple_scheme([unit(2, 0)])
    zero = Form(2, 3, tuple(Fraction(0) for _ in range(6)))
    assert in_fat_ideal(zero, z)


def test_membership_power_of_common_hyperplane():
    # all points on the line x2 = 0, doubled
    pts = [unit(2, 0), unit(2, 1), ProjPoint((1, 1, 0))]
    z = FatPointScheme(2, tuple(pts), (2, 2, 2))
    h = linear_form_to_form((Fraction(0), Fraction(0), Fraction(1)))
    assert in_fat_ideal(form_mul(h, h), z)
    assert not in_fat_ideal(h, z)


def test_membership_of_combinations_and_non_members():
    rng = random.Random(9)
    z = five_general_double_points(9)
    forms = ideal_basis(z, 5)
    assert forms
    combo_terms = {}
    acc = None
    for f in forms:
        c = Fraction(rng.randint(1, 5))
        scaled = Form(f.degree, f.nvars, tuple(c * x for x in f.coeffs))
        acc = scaled if acc is None else Form(
            f.degree, f.nvars, tuple(a + b for a, b in zip(acc.coeffs, scaled.coeffs))
        )
    assert in_fat_ideal(acc, z)
    # a monomial outside the ideal: degree-5 monomial supported away from the kernel
    probe = monomial_form(3, (5, 0, 0))
    assert not in_fat_ideal(probe, z)


# ---------------------------------------------------------------------------
# artinian reductions
# ---------------------------------------------------------------------------

def test_artinian_regularity_single_point_order_one():
    # the quotient is K, living in degree 0 only; its Hilbert function
    # first vanishes at degree 1
    j = simple_scheme([unit(2, 1)])
    assert artinian_quotient_regularity(j, unit(2, 0), 1) == 1


def test_artinian_regularity_matches_monomial_criterion_on_line():
    j = simple_scheme([unit(1, 1)])
    p = unit(1, 0)
    b = artinian_quotient_regularity(j, p, 2)
    assert monomial_bound_check(j, p, 2, b)
    if b - 1 >= 1:
        assert not monomial_bound_check(j, p, 2, b - 1)


def test_artinian_regularity_rejects_coincident_point():
    j = simple_scheme([unit(2, 0)])
    with pytest.raises(ValueError):
        artinian_quotient_regularity(j, unit(2, 0), 1)


def test_monomial_criterion_iff_on_seeded_instances():
    rng = random.Random(77)
    done = 0
    while done < 8:
        n = rng.randint(1, 3)
        pts = random_points(rng, n, rng.randint(1, 3))
        p = None
        while p is None or p in pts:
            p = random_points(rng, n, 1)[0]
        mults = tuple(rng.randint(1, 3) for _ in pts)
        j = FatPointScheme(n, tuple(pts), mults)
        a = rng.randint(1, 3)
        b = artinian_quotient_regularity(j, p, a)
        assert monomial_bound_check(j, p, a, b)
        assert monomial_bound_check(j, p, a, sum(mults) + a)
        if b - 1 >= a - 1:
            assert not monomial_bound_check(j, p, a, b - 1)
        done += 1


def test_monomial_criterion_high_degree_saturation():
    j = FatPointScheme(2, (unit(2, 1), unit(2, 2)), (2, 1))
    p = ProjPoint((1, 1, 1))
    assert monomial_bound_check(j, p, 2, sum(j.mults))


def _reference_artinian_regularity(j, p, a):
    """Scan from degree 0 with the high columns listed by exponent."""
    moved = j.transform(coordinate_change_to_origin(p))
    for t in range(sum(j.mults) + a + 1):
        rows = plain_condition_rows(moved, t)
        basis = monomial_basis(t, j.n + 1)
        high = [k for k, e in enumerate(basis) if t - e[0] >= a]
        sub = rank_rows([[row[k] for k in high] for row in rows], len(high)) if high else 0
        if rank_rows(rows, len(basis)) == sub:
            return t
    raise AssertionError("reference scan passed its cap")


def _reference_monomial_bound(j, p, a, b):
    """Stack a unit vector per monomial of order > i onto the ideal piece."""
    moved = j.transform(coordinate_change_to_origin(p))
    basis = monomial_basis(b, j.n + 1)
    ideal = kernel_basis(condition_matrix(moved, b))

    def unit_vector(k):
        return [int(c == k) for c in range(len(basis))]

    for i in range(a):
        orders = [b - e[0] for e in basis]
        stacked = ideal + [unit_vector(k) for k, o in enumerate(orders) if o >= i + 1]
        for k, o in enumerate(orders):
            if o == i and not in_span(unit_vector(k), stacked):
                return False
    return True


@st.composite
def artinian_instances(draw):
    """A scheme J (n 1..3, 1..4 points), a point p off J and an order a.

    Coordinates lie in -2..2, so p and the points of J often share a
    coordinate flat, and J often lies on one.
    """
    n = draw(st.integers(1, 3))
    coords = st.tuples(*[st.integers(-2, 2)] * (n + 1)).filter(any)
    raw = draw(st.lists(coords, min_size=2, max_size=5))
    pts = list(dict.fromkeys(ProjPoint(tuple(Fraction(c) for c in v)) for v in raw))
    assume(len(pts) >= 2)
    p, pts = pts[0], pts[1:]
    mults = draw(st.lists(st.integers(1, 3), min_size=len(pts), max_size=len(pts)))
    return FatPointScheme(n, tuple(pts), tuple(mults)), p, draw(st.integers(1, 3))


@settings(max_examples=30, deadline=None)
@given(artinian_instances())
@example((_scheme([(0, 1, 0)], [1]), ProjPoint((1, 0, 0)), 1))  # a point already at the origin
@example((_scheme([(1, 1), (1, -1)], [3, 2]), ProjPoint((1, 0)), 3))  # P^1, a = max order
def test_artinian_layer_matches_stacked_references(instance):
    """Both artinian functions against the unit-vector constructions.

    The monomial criterion is compared at every degree from a - 1 to one
    past the artinian regularity, so it is seen both false and true.
    """
    j, p, a = instance
    areg = _reference_artinian_regularity(j, p, a)
    assert artinian_quotient_regularity(j, p, a) == areg
    for b in range(a - 1, areg + 2):
        expected = _reference_monomial_bound(j, p, a, b)
        assert expected == (b >= areg)
        assert monomial_bound_check(j, p, a, b) == expected


def _plain_artinian_ranks(moved, a, t):
    """Ranks of the plain degree-t condition matrix of a scheme moved so that p is the origin.

    On all columns, and on the columns of order >= a at p.
    """
    mat = condition_matrix(moved, t)
    low = comb(a - 1 + moved.n, moved.n)
    rows = mat.to_rows()
    return rank_rows(rows, mat.cols), rank_rows([row[low:] for row in rows], mat.cols - low)


def _prefix_monomial_bound(ideal, n, a):
    """The monomial criterion on a whole ideal piece, cut to basis prefixes."""
    for i in range(a):
        width = comb(i + n, n)
        prefix = [vec[:width] for vec in ideal]
        for k in range(comb(i - 1 + n, n), width):
            if not in_span([int(c == k) for c in range(width)], prefix):
                return False
    return True


@st.composite
def frame_instances(draw):
    """A scheme J (n 1..3, 1..6 points), a point p off J and an order a.

    Up to six points, so J often has more points than its frame has
    vertices; small coordinates put points on coordinate flats.
    """
    n = draw(st.integers(1, 3))
    coords = st.tuples(*[st.integers(-2, 2)] * (n + 1)).filter(any)
    raw = draw(st.lists(coords, min_size=2, max_size=7))
    pts = list(dict.fromkeys(ProjPoint(tuple(Fraction(c) for c in v)) for v in raw))
    assume(len(pts) >= 2)
    p, pts = pts[0], pts[1:]
    mults = draw(st.lists(st.integers(1, 3), min_size=len(pts), max_size=len(pts)))
    return FatPointScheme(n, tuple(pts), tuple(mults)), p, draw(st.integers(1, 3))


@settings(max_examples=40, deadline=None)
@given(frame_instances())
# points on coordinate flats
@example((_scheme([(0, 1, 0, 0), (0, 0, 1, 1), (1, 0, 0, 1)], [2, 1, 3]), ProjPoint((1, 1, 0, 0)), 2))
# s > n + 1
@example((_scheme([(0, 1), (1, 1), (1, -1), (2, 1)], [3, 1, 2, 2]), ProjPoint((1, 0)), 2))
@example(
    (
        _scheme([(0, 1, 0), (0, 0, 1), (1, 1, 1), (1, -1, 2), (2, 1, -1)], [2, 2, 1, 3, 1]),
        ProjPoint((1, 2, 0)),
        3,
    )
)
# every point of J on a vertex: no non-vertex rows
@example((_scheme([(0, 1, 0), (1, 1, 1)], [3, 2]), ProjPoint((1, 0, 0)), 2))
@example((_scheme([(0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 1)], [1, 3, 2]), ProjPoint((1, 0, 0, 0)), 3))
# vertex blocks reaching the low-order columns up to degree a + m - 2
@example((_scheme([(1, 1, 0), (0, 1, 1), (1, 0, 2)], [3, 3, 1]), ProjPoint((1, 0, 1)), 3))
# a = 1
@example((_scheme([(1, 2), (2, -1), (0, 1)], [2, 3, 1]), ProjPoint((1, 1)), 1))
def test_artinian_frame_matches_plain_condition_matrices(instance):
    """The frame's ranks and ideal piece against the plain condition matrices.

    Both ranks are compared at every degree from a to one past the
    artinian regularity, so the vertex blocks meet the low-order columns
    at the first degrees.  The ideal piece is compared by the rank of
    its first C(a-1+n, n) columns, which does not depend on a frame
    fixing p, and the criterion at every degree from a - 1 to one past
    the artinian regularity.
    """
    j, p, a = instance
    frame = _origin_frame(j, p)
    moved = j.transform(coordinate_change_to_origin(p))
    low = comb(a - 1 + j.n, j.n)
    areg = artinian_quotient_regularity(j, p, a)
    for t in range(a, areg + 2):
        full, high = _plain_artinian_ranks(moved, a, t)
        assert _artinian_ranks(frame, t, low) == (full, high)
        assert (full == high) == (t >= areg)
    for b in range(a - 1, areg + 2):
        plain = kernel_basis(condition_matrix(moved, b))
        piece = _ideal_piece(frame, b, low)
        assert all(len(vec) == low for vec in piece)
        assert rank_rows(piece, low) == rank_rows([vec[:low] for vec in plain], low)
        expected = _prefix_monomial_bound(plain, j.n, a)
        assert expected == (b >= areg)
        assert monomial_bound_check(j, p, a, b) == expected


# sha256 of "trial i0 reg(Z) reg(Z - P) areg" lines over criterion 3's corpus,
# recorded with the artinian layer of the origin-only coordinate change
CRITERION_3_RECURSION_DIGEST = "f12918209de03aa9f8996340a9b2da9275569f4edf0761b0eb56981a60d655ec"


def test_removal_recursion_pinned_on_criterion_3_corpus():
    """reg(Z) = max(m - 1, reg(Z - P), areg) on every removal, with pinned values."""
    lines = []
    for trial in range(50):
        rng = random.Random(3000 + trial)
        n = rng.randint(1, 3)
        s = rng.randint(2, 5) if n > 1 else rng.randint(2, 4)
        pts = random_points(rng, n, s)
        mults = tuple(rng.randint(1, 3) for _ in range(s))
        z = FatPointScheme(n, tuple(pts), mults)
        for i0 in range(s):
            rest = z.without_point(i0)
            areg = artinian_quotient_regularity(rest, z.points[i0], mults[i0])
            reg, reg_rest = regularity_index(z), regularity_index(rest)
            assert reg == max(mults[i0] - 1, reg_rest, areg)
            lines.append(f"{trial} {i0} {reg} {reg_rest} {areg}")
    assert len(lines) == 187
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CRITERION_3_RECURSION_DIGEST
