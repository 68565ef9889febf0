import dataclasses
import pickle
import random
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fatpoints.geometry import (
    Flat,
    LinearForm,
    ProjPoint,
    degeneracy_index,
    extend_flat_avoiding,
    flat_contains,
    frame_change,
    general_position_on,
    incident,
    span,
    spanned_flats,
    transform_point,
    transform_points,
)
from fatpoints.linalg import Matrix, integer_kernel, rank_rows, rref
from fatpoints.schemes import FatPointScheme
from oracles import (
    coordinate_change_to_origin,
    evaluate_linear,
    hyperplane_containing_avoiding,
    in_span,
    integer_change,
    mat_vec,
    random_invertible_change,
    span_dim,
)


def unit(n, i):
    return ProjPoint.unit(n, i)


def random_point(rng, n, height=9):
    while True:
        coords = [rng.randint(-height, height) for _ in range(n + 1)]
        if any(coords):
            return ProjPoint(tuple(Fraction(c) for c in coords))


def random_points(rng, n, count, height=9):
    pts = []
    while len(pts) < count:
        p = random_point(rng, n, height)
        if p not in pts:
            pts.append(p)
    return pts


# ---------------------------------------------------------------------------
# canonical representations
# ---------------------------------------------------------------------------

def test_point_normalization():
    p = ProjPoint((Fraction(0), Fraction(3), Fraction(6)))
    assert p.coords == (0, 1, 2)
    assert p == ProjPoint((Fraction(0), Fraction(1), Fraction(2)))
    assert p.rep == (0, 1, 2)


def test_zero_point_rejected():
    with pytest.raises(ValueError):
        ProjPoint((Fraction(0), Fraction(0)))


def test_linear_form_normalization_and_evaluation():
    form = LinearForm((Fraction(0), Fraction(2), Fraction(4)))
    assert form.coeffs == (0, 1, 2)
    assert evaluate_linear(form, ProjPoint((1, 2, -1))) == 0
    assert form.vanishes_at(unit(2, 0))


def test_flat_canonicalizes_a_scaled_basis():
    f = Flat(2, ((Fraction(2), Fraction(0), Fraction(0)),))
    assert f == span([unit(2, 0)])
    assert f.integer_rows == ((1, 0, 0),)
    assert f.cone_basis == ((1, 0, 0),)


@pytest.mark.parametrize(
    "basis",
    [
        ((0, 1, 0), (1, 0, 0)),  # pivots out of order
        ((1, 1, 0), (0, 1, 0)),  # not reduced above a pivot
        ((1, 0), (0, 1)),  # rows of P^1 given for P^2
        (),
    ],
)
def test_flat_given_from_outside_is_still_checked(basis):
    """A hand-built flat is brought to its canonical rows; empty or wrong-width input raises."""
    rows = tuple(tuple(Fraction(x) for x in row) for row in basis)
    if rows and all(len(row) == 3 for row in rows):
        assert Flat(2, rows) == span([unit(2, 0), unit(2, 1)])
        assert Flat(2, rows).integer_rows == ((1, 0, 0), (0, 1, 0))
    else:
        with pytest.raises(ValueError):
            Flat(2, rows)


# ---------------------------------------------------------------------------
# span
# ---------------------------------------------------------------------------

def test_span_single_point():
    assert span([unit(3, 0)]).dim == 0


def test_span_with_dependent_point():
    e0, e1 = unit(3, 0), unit(3, 1)
    mix = ProjPoint((1, 1, 0, 0))
    assert span([e0, e1, mix]).dim == 1


def test_span_of_points_on_a_random_plane():
    rng = random.Random(3)
    for _ in range(10):
        base = random_points(rng, 3, 3)
        while span(base).dim != 2:
            base = random_points(rng, 3, 3)
        pts = list(base)
        while len(pts) < 7:
            coeffs = [rng.randint(-4, 4) for _ in range(3)]
            vec = [
                sum(c * b.rep[j] for c, b in zip(coeffs, base))
                for j in range(4)
            ]
            if any(vec):
                q = ProjPoint(tuple(Fraction(v) for v in vec))
                if q not in pts:
                    pts.append(q)
        assert span(pts).dim == 2


def test_span_empty_errors():
    with pytest.raises(ValueError):
        span([])


def test_span_is_order_insensitive():
    rng = random.Random(8)
    pts = random_points(rng, 3, 4)
    flats = {span(list(perm)) for perm in permutations(pts)}
    assert len(flats) == 1


# ---------------------------------------------------------------------------
# flat_contains
# ---------------------------------------------------------------------------

def test_contains_spanning_points():
    rng = random.Random(21)
    for _ in range(15):
        pts = random_points(rng, 3, rng.randint(1, 4))
        f = span(pts)
        for p in pts:
            assert flat_contains(f, p)


def test_not_contains_off_line_point():
    line = span([unit(2, 0), unit(2, 1)])
    assert not flat_contains(line, unit(2, 2))


def test_contains_agrees_with_in_span_oracle():
    rng = random.Random(77)
    for _ in range(40):
        f = span(random_points(rng, 3, rng.randint(1, 3)))
        p = random_point(rng, 3)
        oracle = in_span(p.coords, [list(r) for r in f.cone_basis])
        assert flat_contains(f, p) == oracle


# ---------------------------------------------------------------------------
# general position / degeneracy
# ---------------------------------------------------------------------------

def test_coordinate_points_in_general_position():
    for n in (2, 3):
        pts = [unit(n, i) for i in range(n + 1)]
        assert general_position_on(pts, n)


def test_collinear_triple_not_general_in_plane():
    pts = [unit(2, 0), unit(2, 1), ProjPoint((1, 1, 0))]
    assert not general_position_on(pts, 2)
    # but three distinct points on a line are general on that line
    assert general_position_on(pts, 1)


def test_random_six_points_in_p3_general():
    rng = random.Random(2024)
    pts = random_points(rng, 3, 6, height=30)
    expected = True
    for q in range(3, 5):
        for sub in combinations(pts, q):
            if span(sub).dim <= q - 2:
                expected = False
    assert general_position_on(pts, 3) == expected
    assert expected  # with height 30 degeneration is overwhelmingly unlikely


def test_degeneracy_of_planted_collinear_triple():
    pts = [unit(3, 0), unit(3, 1), ProjPoint((1, 1, 0, 0)), unit(3, 2), unit(3, 3)]
    assert degeneracy_index(pts) == 1


def test_degeneracy_of_simplex_is_none():
    assert degeneracy_index([unit(3, i) for i in range(4)]) is None


def test_degeneracy_planted_planar_quadruple():
    rng = random.Random(5)
    while True:
        base = random_points(rng, 3, 3, height=20)
        if span(base).dim == 2:
            break
    extra = ProjPoint(
        tuple(
            Fraction(sum(b.rep[j] for b in base)) for j in range(4)
        )
    )
    pts = base + [extra, unit(3, 3)]
    while span(pts).dim != 3 or len(set(pts)) != 5:
        pts[-1] = random_point(rng, 3, height=20)
    if degeneracy_index(pts[:4] + [pts[4]]) == 1:
        pytest.skip("accidental collinearity in sample")
    assert degeneracy_index(pts) == 2


def test_degeneracy_matches_general_position_link():
    rng = random.Random(13)
    for _ in range(25):
        pts = random_points(rng, 3, rng.randint(3, 6), height=4)
        d = span(pts).dim
        assert (degeneracy_index(pts) is None) == general_position_on(pts, d)


@st.composite
def distinct_points(draw):
    """Points of P^n, often confined to a coordinate flat so their span is proper."""
    n = draw(st.integers(1, 4))
    free = draw(st.integers(1, n + 1))
    coords = st.tuples(*[st.integers(-2, 2)] * free).filter(any)
    raw = draw(st.lists(coords, min_size=1, max_size=7))
    pad = (Fraction(0),) * (n + 1 - free)
    return n, list(dict.fromkeys(ProjPoint(tuple(Fraction(c) for c in v) + pad) for v in raw))


def _general_position_by_subsets(points, r):
    """On some r-flat, and no j+2 of the points on a j-flat for j < r."""

    def rank(sub):
        return rref(Matrix.from_rows([p.rep for p in sub])).rank

    if rank(points) > r + 1:
        return False
    return not any(
        rank(sub) <= j + 1 for j in range(r) for sub in combinations(points, j + 2)
    )


@settings(max_examples=150, deadline=None)
@given(distinct_points())
@example((2, [unit(2, 0), unit(2, 1), ProjPoint((1, 1, 0))]))  # three points on a line
@example((3, [unit(3, 0), unit(3, 1), unit(3, 2), ProjPoint((1, 1, 1, 0))]))  # four on a plane
def test_general_position_on_matches_subset_scan(case):
    n, pts = case
    for r in range(1, n + 1):
        assert general_position_on(pts, r) == _general_position_by_subsets(pts, r)
        with pytest.raises(ValueError, match="distinct"):
            general_position_on(pts + [pts[0]], r)


@settings(max_examples=100, deadline=None)
@given(distinct_points())
def test_span_dim_matches_span(case):
    n, pts = case
    for size in range(1, len(pts) + 1):
        for sub in combinations(pts, size):
            assert span(sub).dim == span_dim(sub)


# ---------------------------------------------------------------------------
# incidence and integer representatives against rank oracles
# ---------------------------------------------------------------------------

@st.composite
def flat_and_probe(draw):
    """Points spanning a flat, and a probe that is often a combination of them."""
    n, pts = draw(distinct_points())
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(-2, 2), min_size=len(pts), max_size=len(pts)))
        vec = [sum(w * p.rep[j] for w, p in zip(weights, pts)) for j in range(n + 1)]
    else:
        vec = draw(st.lists(st.integers(-2, 2), min_size=n + 1, max_size=n + 1))
    if not any(vec):
        vec = pts[0].rep
    return pts, ProjPoint(tuple(Fraction(c) for c in vec))


@settings(max_examples=200, deadline=None)
@given(flat_and_probe())
def test_flat_contains_matches_rank_oracle(case):
    pts, probe = case
    f = span(pts)
    rows = [p.rep for p in pts]
    on_flat = rank_rows(rows + [probe.rep], len(rows[0]), modular=False) == f.dim + 1
    assert flat_contains(f, probe) == on_flat


coordinate = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-7, max_value=7, max_denominator=12))


@settings(max_examples=200, deadline=None)
@given(st.lists(coordinate, min_size=1, max_size=6).filter(any))
def test_integer_rep_is_primitive_and_proportional(coords):
    rep = ProjPoint(tuple(coords)).rep
    assert len(rep) == len(coords)
    assert all(type(v) is int for v in rep)
    assert gcd(*rep) == 1
    lead = next(j for j, c in enumerate(coords) if c)
    assert all(v == 0 for v in rep[:lead]) and rep[lead] > 0
    assert all(v * coords[lead] == c * rep[lead] for v, c in zip(rep, coords))


# ---------------------------------------------------------------------------
# hyperplane_containing_avoiding
# ---------------------------------------------------------------------------

def test_hyperplane_for_coordinate_flat():
    n = 3
    f = span([unit(n, i) for i in range(1, n + 1)])
    form = hyperplane_containing_avoiding(f, unit(n, 0))
    assert form.coeffs == (1, 0, 0, 0)


def test_hyperplane_point_flat_in_plane():
    f = span([unit(2, 0)])
    form = hyperplane_containing_avoiding(f, unit(2, 1))
    assert form.vanishes_at(unit(2, 0))
    assert not form.vanishes_at(unit(2, 1))


def test_hyperplane_random_postconditions():
    rng = random.Random(41)
    produced = 0
    while produced < 30:
        pts = random_points(rng, 3, rng.randint(1, 3))
        f = span(pts)
        avoid = random_point(rng, 3)
        if f.dim > 2 or flat_contains(f, avoid):
            continue
        form = hyperplane_containing_avoiding(f, avoid)
        for p in pts:
            assert form.vanishes_at(p)
        assert not form.vanishes_at(avoid)
        produced += 1


def test_hyperplane_error_when_point_on_flat():
    f = span([unit(2, 0), unit(2, 1)])
    with pytest.raises(ValueError):
        hyperplane_containing_avoiding(f, ProjPoint((1, 2, 0)))


# ---------------------------------------------------------------------------
# extend_flat_avoiding
# ---------------------------------------------------------------------------

def test_extend_identity_case():
    f = span([unit(2, 0), unit(2, 1)])
    assert extend_flat_avoiding(f, 1, unit(2, 2), seed=5) == f


def test_extend_point_to_line():
    f = span([unit(2, 0)])
    line = extend_flat_avoiding(f, 1, unit(2, 2), seed=9)
    assert line.dim == 1
    assert flat_contains(line, unit(2, 0))
    assert not flat_contains(line, unit(2, 2))


def test_extend_many_seeded_instances():
    rng = random.Random(101)
    done = 0
    while done < 100:
        n = rng.randint(2, 4)
        pts = random_points(rng, n, rng.randint(1, n - 1))
        f = span(pts)
        avoid = random_point(rng, n)
        if f.dim > n - 1 or flat_contains(f, avoid):
            continue
        target = rng.randint(f.dim, n - 1)
        seed = rng.randint(0, 10**6)
        out = extend_flat_avoiding(f, target, avoid, seed)
        assert out.dim == target
        assert not flat_contains(out, avoid)
        for p in pts:
            assert flat_contains(out, p)
        assert out == extend_flat_avoiding(f, target, avoid, seed)
        done += 1


def test_extend_rejects_target_of_full_space():
    f = span([unit(2, 0)])
    with pytest.raises(ValueError):
        extend_flat_avoiding(f, 2, unit(2, 1), seed=0)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(0, 10**6), st.integers())
def test_extend_to_its_own_dimension_returns_the_flat_for_any_seed(n, draw, seed):
    rng = random.Random(draw)
    f = span(random_points(rng, n, rng.randint(1, n)))
    avoid = random_point(rng, n, height=3)
    if flat_contains(f, avoid):
        with pytest.raises(ValueError, match="cannot avoid a point already on the flat"):
            extend_flat_avoiding(f, f.dim, avoid, seed)
    else:
        assert extend_flat_avoiding(f, f.dim, avoid, seed) is f


def test_extend_to_its_own_dimension_still_rejects_a_point_on_the_flat():
    f = span([unit(3, 0), unit(3, 1)])
    with pytest.raises(ValueError, match="cannot avoid a point already on the flat"):
        extend_flat_avoiding(f, 1, ProjPoint((1, 1, 0, 0)), seed=3)


def test_extend_without_growth_makes_no_generator():
    f = span([unit(3, 0), unit(3, 1)])
    made = AssertionError("a generator was made")
    with mock.patch("fatpoints.geometry.random.Random", side_effect=made):
        assert extend_flat_avoiding(f, 1, unit(3, 2), seed=3) is f
        with pytest.raises(AssertionError, match="a generator was made"):
            extend_flat_avoiding(f, 2, unit(3, 3), seed=3)  # growing draws


# ---------------------------------------------------------------------------
# coordinate changes
# ---------------------------------------------------------------------------

def test_change_for_origin_is_identity():
    assert coordinate_change_to_origin(unit(2, 0)) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_change_for_unit_point_is_permutation():
    change = coordinate_change_to_origin(unit(2, 1))
    assert transform_point(change, unit(2, 1)) == unit(2, 0)
    entries = sorted(abs(x) for row in change for x in row)
    assert entries == [0, 0, 0, 0, 0, 0, 1, 1, 1]


def test_change_random_points():
    rng = random.Random(55)
    for _ in range(20):
        p = random_point(rng, 3)
        change = coordinate_change_to_origin(p)
        assert transform_point(change, p) == unit(3, 0)
        assert rank_rows(change, 4) == 4


def _probing_frame(n, leading, candidates):
    """Reference greedy basis: one fresh rref rank probe per candidate vector."""
    cols = [list(v) for v in leading]
    taken = []
    units = [[int(j == i) for j in range(n + 1)] for i in range(n + 1)]
    for idx, v in enumerate(list(candidates) + units):
        if len(cols) == n + 1:
            break
        if rref(Matrix.from_rows(cols + [list(v)])).rank == len(cols) + 1:
            cols.append(list(v))
            if idx < len(candidates):
                taken.append(idx)
    return cols, tuple(taken)


def _assert_frame_matches_probing_reference(n, leading, candidates):
    """The integer rows send the k-th probed basis vector to v_k * e_k, v_k > 0.

    The probed basis is invertible, so this pins the rows down to D times
    its inverse, D = diag(v_k): each row is a positive multiple of the
    canonical change's row.
    """
    rows, pivots, taken = frame_change(n, leading, candidates)
    basis, expected_taken = _probing_frame(n, leading, candidates)
    assert taken == expected_taken
    assert len(rows) == len(pivots) == n + 1
    assert all(v > 0 for v in pivots)
    assert all(x == int(x) for row in rows for x in row)
    for k, b in enumerate(basis):
        assert [sum(int(x) * y for x, y in zip(row, b)) for row in rows] == [
            pivots[i] if i == k else 0 for i in range(n + 1)
        ]
    return rows, pivots, taken


def test_frame_change_matches_probing_reference():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(1, 4)
        draws = ([rng.choice([0, 0, 1, -1, 2, 3]) for _ in range(n + 1)] for _ in range(rng.randint(0, 7)))
        candidates = [c for c in draws if any(c)]
        leading = [random_point(rng, n).rep] if rng.random() < 0.5 else []
        rows, pivots, taken = _assert_frame_matches_probing_reference(n, leading, candidates)
        for axis, idx in enumerate(taken, start=len(leading)):
            assert transform_point(rows, ProjPoint(tuple(map(Fraction, candidates[idx])))) == unit(n, axis)


@st.composite
def frame_cases(draw):
    """Leading vectors (possibly dependent) and candidates with zeros and repeats."""
    n = draw(st.integers(1, 4))
    vec = st.one_of(
        st.just([0] * (n + 1)),
        st.lists(st.sampled_from([0, 0, 1, -1, 2, 3]), min_size=n + 1, max_size=n + 1),
    )
    leading = draw(st.lists(vec, max_size=2))
    fresh = draw(st.lists(vec, max_size=n + 3))
    repeats = draw(st.lists(st.sampled_from(fresh), max_size=3)) if fresh else []
    candidates = draw(st.permutations(fresh + repeats))
    return n, leading, candidates


@settings(max_examples=300, deadline=None)
@given(frame_cases())
@example((2, [[1, 2, 0], [2, 4, 0]], []))  # dependent leading vectors
@example((1, [], [[0, 0], [1, 1], [1, 1], [2, 2], [0, 1], [1, 0]]))  # more candidates than n+1
def test_frame_change_matches_probing_reference_with_edge_candidates(case):
    n, leading, candidates = case
    if leading and rref(Matrix.from_rows(leading)).rank < len(leading):
        with pytest.raises(ValueError, match="dependent"):
            frame_change(n, leading, candidates)
        return
    _assert_frame_matches_probing_reference(n, leading, candidates)


def test_frame_change_rejects_dependent_leading_vectors():
    with pytest.raises(ValueError):
        frame_change(2, [(1, 2, 0), (2, 4, 0)])


def test_frame_change_rejects_vectors_of_another_length():
    with pytest.raises(ValueError, match="ambient dimensions disagree"):
        frame_change(2, [(1, 2, 3, 4)])
    with pytest.raises(ValueError, match="ambient dimensions disagree"):
        frame_change(2, [], [(1, 0, 0), (1, 2)])


def test_incidence_invariance_under_change():
    rng = random.Random(66)
    for _ in range(10):
        pts = random_points(rng, 3, 5)
        change = random_invertible_change(3, rng)
        moved = [transform_point(change, p) for p in pts]
        assert span(moved).dim == span(pts).dim
        assert degeneracy_index(moved) == degeneracy_index(pts)
        f = span(pts[:2])
        probe = random_point(rng, 3)
        assert flat_contains(f, probe) == flat_contains(span(moved[:2]), transform_point(change, probe))


# ---------------------------------------------------------------------------
# integer incidence and integer moves against their plain references
# ---------------------------------------------------------------------------

def rational_points(n, min_size, max_size):
    """Points of P^n with rational coordinates, zero ones common."""
    coords = st.lists(coordinate, min_size=n + 1, max_size=n + 1).filter(any)
    return st.lists(coords.map(tuple).map(ProjPoint), min_size=min_size, max_size=max_size)


@st.composite
def rational_flat_and_probe(draw):
    """d+1 rational points, d in 0..n, and a probe that is often on their span."""
    n = draw(st.integers(1, 4))
    d = draw(st.integers(0, n))
    pts = draw(rational_points(n, d + 1, d + 1))
    kind = draw(st.sampled_from(["combination", "free", "unit"]))
    if kind == "combination":
        weights = draw(st.lists(coordinate, min_size=len(pts), max_size=len(pts)))
        vec = [sum(w * p.coords[j] for w, p in zip(weights, pts)) for j in range(n + 1)]
    elif kind == "unit":
        k = draw(st.integers(0, n))
        vec = [Fraction(int(j == k)) for j in range(n + 1)]
    else:
        vec = list(draw(rational_points(n, 1, 1))[0].coords)
    if not any(vec):
        vec = list(pts[0].coords)
    return pts, ProjPoint(tuple(vec))


@settings(max_examples=200, deadline=None)
@given(rational_flat_and_probe())
@example(([unit(3, 0)], unit(3, 0)))  # a 0-flat through its own point
@example(([unit(2, 0), unit(2, 1), unit(2, 2)], ProjPoint((Fraction(1, 3), 0, 5))))  # all of P^2
@example(([ProjPoint((0, Fraction(1, 2), 1, 0))], ProjPoint((0, 1, 2, 0))))
def test_annihilator_incidence_matches_rank_reference(case):
    pts, probe = case
    f = span(pts)
    rows = [p.rep for p in pts]
    width = len(rows[0])
    on_flat = rank_rows(rows + [probe.rep], width, modular=False) == f.dim + 1
    normals = f.normals
    assert len(normals) == f.ambient_n - f.dim
    for v in normals:
        assert all(type(x) is int for x in v) and gcd(*v) == 1
        assert all(sum(a * b for a, b in zip(v, row)) == 0 for row in rows)
    assert flat_contains(f, probe) == on_flat
    assert incident(integer_kernel(rows, width), probe) == on_flat


@st.composite
def form_and_point(draw):
    """A rational linear form and a point, often on its hyperplane."""
    n = draw(st.integers(1, 4))
    coeffs = draw(st.lists(coordinate, min_size=n + 1, max_size=n + 1).filter(any))
    vec = list(draw(rational_points(n, 1, 1))[0].coords)
    if draw(st.booleans()):
        k = next(j for j, c in enumerate(coeffs) if c)
        vec[k] = 0
        vec[k] = -sum(c * x for c, x in zip(coeffs, vec)) / coeffs[k]
    if not any(vec):
        vec[0] = Fraction(1)
    return LinearForm(tuple(coeffs)), ProjPoint(tuple(vec))


@settings(max_examples=150, deadline=None)
@given(form_and_point())
@example((LinearForm((0, 1, 0)), unit(2, 0)))
@example((LinearForm((Fraction(1, 2), Fraction(-1, 3))), ProjPoint((2, 3))))
def test_vanishes_at_matches_evaluate(case):
    form, p = case
    assert form.vanishes_at(p) == (evaluate_linear(form, p) == 0)
    with pytest.raises(ValueError, match="ambient"):
        form.vanishes_at(ProjPoint(p.coords + (Fraction(1),)))


@st.composite
def change_and_points(draw):
    """A rational change of coordinates, often singular, and distinct points."""
    n = draw(st.integers(1, 3))
    row = st.lists(coordinate, min_size=n + 1, max_size=n + 1)
    rows = draw(st.lists(row, min_size=n + 1, max_size=n + 1))
    if draw(st.booleans()):  # make the last row a combination of the others
        weights = draw(st.lists(coordinate, min_size=n, max_size=n))
        rows[-1] = [sum(w * row[j] for w, row in zip(weights, rows)) for j in range(n + 1)]
    pts = list(dict.fromkeys(draw(rational_points(n, 1, 4))))
    return Matrix.from_rows(rows), pts


def _outcome(fn):
    try:
        return fn()
    except ValueError as exc:
        return "ValueError", str(exc)


@settings(max_examples=120, deadline=None)
@given(change_and_points())
@example((Matrix.from_rows([[1, 0], [0, 0]]), [unit(1, 1)]))  # sent to zero
@example((Matrix.from_rows([[1, 1], [0, 0]]), [unit(1, 0), unit(1, 1)]))  # two points merged
@example((Matrix.from_rows([[Fraction(1, 2), 0], [0, Fraction(2, 3)]]), [ProjPoint((1, 1))]))
def test_integer_moves_match_mat_vec(case):
    # the rational matrix times the lcm of its denominators is the same change
    matrix, pts = case
    change = integer_change(matrix)
    for p in pts:
        want = _outcome(lambda: ProjPoint(mat_vec(matrix, p.coords)))
        assert _outcome(lambda: transform_point(change, p)) == want
    z = FatPointScheme(matrix.cols - 1, tuple(pts), (1,) * len(pts))
    want = _outcome(
        lambda: FatPointScheme(
            z.n, tuple(ProjPoint(mat_vec(matrix, q.coords)) for q in z.points), z.mults
        )
    )
    assert _outcome(lambda: z.transform(change)) == want
    assert _outcome(lambda: transform_point(change, ProjPoint((1,) * (z.n + 2)))) == (
        "ValueError",
        "dimension mismatch",
    )


def test_a_ragged_change_raises():
    p = ProjPoint((1, 2, 3))
    for ragged in [((1, 0, 0), (0, 1), (0, 0, 1)), ((1, 0, 0), (0, 1, 0, 0), (0, 0, 1))]:
        with pytest.raises(ValueError, match="dimension mismatch"):
            transform_points(ragged, [unit(2, 0), p])
        with pytest.raises(ValueError, match="dimension mismatch"):
            FatPointScheme(2, (p,), (1,)).transform(ragged)


def _identity(x):
    return repr(x), x, hash(x), dataclasses.asdict(x)


@settings(max_examples=60, deadline=None)
@given(rational_flat_and_probe())
def test_cached_values_leave_the_dataclasses_unchanged(case):
    pts, probe = case
    makers = [
        (lambda: ProjPoint(probe.coords), lambda x: x.coords),
        (lambda: LinearForm(probe.coords), lambda x: x.coeffs),
        (lambda: span(pts), lambda x: (x.normals, flat_contains(x, probe))),
    ]
    for make, use in makers:
        obj, fresh = make(), make()
        before = _identity(obj)
        first = use(obj)
        assert _identity(obj) == before == _identity(fresh)
        assert hash(obj) == hash(dataclasses.astuple(obj))  # the dataclass hash
        loaded = pickle.loads(pickle.dumps(obj))
        assert loaded == obj and _identity(loaded) == before
        assert use(loaded) == first == use(obj)


@settings(max_examples=60, deadline=None)
@given(rational_flat_and_probe())
def test_scheme_flats_leave_the_dataclass_unchanged(case):
    pts, probe = case
    pts = list(dict.fromkeys(pts + [probe]))

    def make():
        return FatPointScheme(probe.ambient_n, tuple(pts), tuple(range(1, len(pts) + 1)))

    z, fresh = make(), make()
    before = _identity(z)
    flats = z.flats
    assert flats == spanned_flats(pts) and z.flats is flats  # found once
    assert _identity(z) == before == _identity(fresh)
    assert hash(z) == hash(dataclasses.astuple(z))  # the dataclass hash
    loaded = pickle.loads(pickle.dumps(z))
    assert loaded == z and _identity(loaded) == before
    assert loaded.flats == flats == fresh.flats
