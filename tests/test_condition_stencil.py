"""The cached derivative stencils and free columns of ``schemes``.

``_point_condition_rows`` reads each entry's coefficient and monomial off
a stencil cached per (t, nvars, order, columns), and ``_free_columns`` is
cached per (t, nvars, vertices).  Both are checked against plain
enumerations on random input, with the caches warm or cold, and their
keys are shown to hold no coordinates: the schemes of one cell add no
entry after the first.  ``_free_rows``, the one builder that every degree
question reads, is checked against the same plain enumerations.
"""

from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fatpoints.generators import PatternSpec, generate
from fatpoints.geometry import ProjPoint
from fatpoints.schemes import (
    FatPointScheme,
    SimplexFrame,
    _free_columns,
    _free_rows,
    _point_condition_rows,
    _stencil,
    artinian_quotient_regularity,
    condition_rows,
    hilbert_function,
    monomial_basis,
    monomial_bound_check,
    regularity_index,
)
from oracles import plain_point_condition_rows

# the largest stencil drawn, in entries, so that the plain builder stays quick
MAX_ENTRIES = 40_000


def plain_free_columns(t, nvars, vertices):
    """Basis indices outside the union of the vertex blocks: vertex k with
    multiplicity m covers the monomials X^b with b_k >= t - m + 1."""
    basis = monomial_basis(t, nvars)
    covered = set()
    for k, m in vertices:
        covered.update(c for c, b in enumerate(basis) if b[k] >= t - m + 1)
    return [c for c in range(len(basis)) if c not in covered]


@st.composite
def vertex_sets(draw, nvars, t):
    """Distinct vertex indices with multiplicities 1..t+3, so that caps
    t - m reach below 0, where a vertex covers every monomial."""
    ks = draw(st.lists(st.integers(0, nvars - 1), unique=True, max_size=nvars))
    return tuple((k, draw(st.integers(1, t + 3))) for k in sorted(ks))


@st.composite
def row_requests(draw):
    """Coordinates with zeros and negative entries, a multiplicity (orders
    above t included), a degree and one kind of column set."""
    nvars = draw(st.integers(1, 6))
    t = draw(st.integers(0, 10))
    mult = draw(st.integers(1, 7))
    coords = tuple(draw(st.lists(st.integers(-4, 4), min_size=nvars, max_size=nvars)))
    ncols = comb(t + nvars - 1, nvars - 1)
    kind = draw(st.sampled_from(["empty", "full", "subset", "vertex caps"]))
    if kind == "empty":
        columns = []
    elif kind == "full":
        columns = list(range(ncols))
    elif kind == "subset":
        columns = draw(st.lists(st.integers(0, ncols - 1), unique=True, max_size=ncols))
    else:
        columns = _free_columns(t, nvars, draw(vertex_sets(nvars, t)))
    assume(comb(min(mult - 1, t) + nvars - 1, nvars - 1) * len(columns) <= MAX_ENTRIES)
    return coords, mult, t, columns


@settings(max_examples=300, deadline=None)
@given(row_requests(), st.booleans())
@example(((3,), 1, 0, (0,)), False)  # one variable, degree 0
@example(((0, 0, 5), 7, 2, tuple(range(6))), True)  # order above t: capped at t
@example(((-2, 0, 1, -1), 3, 4, []), False)  # no columns
@example(((1, -1), 4, 3, [3, 0, 2]), True)  # columns out of basis order
@example(((2, 1, -3), 2, 2, _free_columns(2, 3, ((0, 5), (2, 1)))), True)  # a cap below 0
@example(((0, 0, 0, 0, 0, 1), 2, 5, tuple(range(252))), False)  # six variables
def test_point_condition_rows_match_plain_builder(request, cold):
    coords, mult, t, columns = request
    if cold:
        _stencil.cache_clear()
    rows = _point_condition_rows(coords, mult, t, columns)
    assert rows == plain_point_condition_rows(coords, mult, t, columns)
    # rank_rows' mod-p pass reads an entry as x % p only when type(x) is int
    assert all(type(x) is int for row in rows for x in row)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_free_columns_match_plain_enumeration(data):
    nvars = data.draw(st.integers(1, 6))
    t = data.draw(st.integers(0, 8))
    vertices = data.draw(vertex_sets(nvars, t))
    free = _free_columns(t, nvars, vertices)
    assert isinstance(free, tuple)
    assert list(free) == plain_free_columns(t, nvars, vertices)
    assert _free_columns(t, nvars, vertices) is free


@st.composite
def frame_requests(draw):
    """A degree, vertices (none, or caps below 0 included) and 0-3 other
    points with zeros and negative entries, whose multiplicities reach
    above t + 1, so that some orders are capped at t."""
    nvars = draw(st.integers(1, 5))
    t = draw(st.integers(0, 8))
    vertices = draw(vertex_sets(nvars, t))
    others = draw(
        st.lists(
            st.tuples(
                st.tuples(*[st.integers(-4, 4)] * nvars),
                st.integers(1, t + 3),
            ),
            max_size=3,
        )
    )
    width = len(plain_free_columns(t, nvars, vertices))
    heights = [comb(min(m - 1, t) + nvars - 1, nvars - 1) for _, m in others]
    assume(sum(heights) * width <= MAX_ENTRIES)
    return nvars, t, vertices, tuple(others)


@settings(max_examples=200, deadline=None)
@given(frame_requests())
# no vertex: the frame of condition_rows, where every column is free
@example((3, 4, (), (((1, -2, 0), 3), ((0, 0, 1), 6))))
# no other point: free columns, no rows
@example((3, 4, ((0, 2), (2, 1)), ()))
# a cap below 0 covers every monomial: no free column, so no rows
@example((3, 2, ((1, 5),), (((2, -1, 3), 2),)))
def test_free_rows_match_plain_builders(request):
    nvars, t, vertices, others = request
    free, rows = _free_rows(SimplexFrame(vertices, others, nvars - 1), t)
    assert free == tuple(plain_free_columns(t, nvars, vertices))
    want = []
    if free:
        for coords, m in others:
            want.extend(plain_point_condition_rows(coords, m, t, free))
    assert rows == want


def _three_free_points():
    """Two points on e_1, e_2 and two more, so that the frame with e_0 at
    p has other points and the criterion reads stencils."""
    pts = (ProjPoint.unit(2, 1), ProjPoint.unit(2, 2), ProjPoint((1, 1, 1)), ProjPoint((1, 2, 3)))
    return FatPointScheme(2, pts, (2, 2, 1, 1)), ProjPoint.unit(2, 0)


def test_a_float_degree_raises_with_warm_stencils():
    """Both caches are typed: a float degree is its own miss, so it raises
    as it does cold, even when every entry of degree 3 is held."""
    j, p = _three_free_points()
    _stencil.cache_clear()
    _free_columns.cache_clear()
    answer = monomial_bound_check(j, p, 2, 3), hilbert_function(j, 3), condition_rows(j, 3)
    misses = _stencil.cache_info().misses, _free_columns.cache_info().misses
    assert all(misses)
    assert (monomial_bound_check(j, p, 2, 3), hilbert_function(j, 3), condition_rows(j, 3)) == answer
    assert (_stencil.cache_info().misses, _free_columns.cache_info().misses) == misses
    with pytest.raises(TypeError):
        monomial_bound_check(j, p, 2, 3.0)
    with pytest.raises(ValueError, match=r"degree must be an integer, got 3\.0"):
        hilbert_function(j, 3.0)
    # the rows themselves read the stencil of degree 3 without a frame
    with pytest.raises(TypeError):
        condition_rows(j, 3.0)
    assert (monomial_bound_check(j, p, 2, 3), hilbert_function(j, 3), condition_rows(j, 3)) == answer


def test_one_cell_adds_no_entries_after_its_first_scheme():
    """20 schemes of one cell: five points of P^2 in linear general position
    with multiplicities 3, 2, 2, 1, 1.  After the first scheme's scan,
    removals and criteria, the rest find every stencil and free column set
    held, so the keys hold no coordinates."""
    _stencil.cache_clear()
    _free_columns.cache_clear()
    sizes = []
    for seed in range(20):
        z = generate(PatternSpec("general", n=2, s=5, mults=(3, 2, 2, 1, 1), seed=seed, height=9))
        regularity_index(z)
        for i0 in range(z.size):
            j, p, a = z.without_point(i0), z.points[i0], z.mults[i0]
            b = artinian_quotient_regularity(j, p, a)
            assert monomial_bound_check(j, p, a, b)
        sizes.append((_stencil.cache_info().currsize, _free_columns.cache_info().currsize))
    assert sizes[0][0] > 0 and sizes[0][1] > 0
    assert sizes == [sizes[0]] * 20
    # below the bounds, so a full cache cannot explain the plateau
    assert sizes[0][0] < _stencil.cache_info().maxsize
    assert sizes[0][1] < _free_columns.cache_info().maxsize
