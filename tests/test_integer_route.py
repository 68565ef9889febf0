"""Points, forms and flats built from integer rows, against the plain ``Fraction`` route.

The references below are the ``Fraction`` constructions the integer route
replaced: coordinates divided by their lead in ``Fraction``, a flat's cone
basis as the nonzero rows of ``rref(Matrix.from_rows(...))``, its normals
by ``integer_kernel`` of the basis rows, and ``extend_flat_avoiding``
building a ``Flat`` for every direction it tries.  Each comparison covers
the errors too.
"""

import random
import types
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fatpoints import geometry
from fatpoints.geometry import Flat, LinearForm, ProjPoint, extend_flat_avoiding, span
from fatpoints.linalg import Matrix, integer_kernel, primitive_row, rref
from oracles import in_span

# ---------------------------------------------------------------------------
# the Fraction route, as references
# ---------------------------------------------------------------------------


def ref_normalize(coords, kind):
    vals = tuple(Fraction(c) for c in coords)
    lead = next((c for c in vals if c != 0), None)
    if lead is None:
        raise ValueError(f"{kind} must have a nonzero coordinate vector")
    if lead != 1:
        vals = tuple(c / lead for c in vals)
    return vals, tuple(map(int, primitive_row(vals)))


def ref_cone_basis(ambient_n, vectors):
    if any(len(v) != ambient_n + 1 for v in vectors):
        raise ValueError("cone vector length does not match ambient dimension")
    res = rref(Matrix.from_rows([list(v) for v in vectors]))
    if not res.rank:
        raise ValueError("a flat needs at least one cone vector")
    return tuple(res.rref.row(i) for i in range(res.rank))


def ref_from_vectors(ambient_n, vectors):
    return Flat(ambient_n, ref_cone_basis(ambient_n, vectors))


def ref_span(points):
    if not points:
        raise ValueError("span of an empty point set is undefined")
    n = points[0].ambient_n
    if any(p.ambient_n != n for p in points):
        raise ValueError("ambient dimensions disagree")
    return ref_from_vectors(n, [p.coords for p in points])


def ref_normals(f):
    return tuple(integer_kernel([primitive_row(r) for r in f.cone_basis], f.ambient_n + 1))


def ref_contains(f, p):
    if p.ambient_n != f.ambient_n:
        raise ValueError("ambient dimensions disagree")
    return in_span(p.coords, f.cone_basis)


def ref_extend(f, target_dim, avoid, seed, make_rng=random.Random):
    n = f.ambient_n
    if not f.dim <= target_dim <= n - 1:
        raise ValueError("target dimension out of range")
    if ref_contains(f, avoid):
        raise ValueError("cannot avoid a point already on the flat")
    rng = make_rng(seed)
    cur = f
    while cur.dim < target_dim:
        for _ in range(32):
            v = [Fraction(rng.randint(-9, 9)) for _ in range(n + 1)]
            if not any(v):
                continue
            cand = ref_from_vectors(n, [list(r) for r in cur.cone_basis] + [v])
            if cand.dim == cur.dim + 1 and not ref_contains(cand, avoid):
                cur = cand
                break
        else:
            raise RuntimeError("exhausted retries while extending a flat")
    return cur


def outcome(fn):
    try:
        value = fn()
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)
    return "ok", repr(value), value


def assert_rows_kept(f):
    """A flat's integer rows are primitive multiples of its canonical rows; normals read off them."""
    assert f.integer_rows == tuple(tuple(primitive_row(r)) for r in f.cone_basis)
    assert f.normals == ref_normals(f)
    assert all(type(x) is int for v in f.normals for x in v)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

coordinate = st.one_of(
    st.just(Fraction(0)),
    st.integers(-9, 9),
    st.fractions(min_value=-7, max_value=7, max_denominator=12),
)


@st.composite
def vector_lists(draw):
    """Cone vectors of P^n: rational, zero, duplicate, spanning, of the wrong width or ragged."""
    n = draw(st.integers(1, 4))
    width = n + 1 + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    row = st.lists(coordinate, min_size=width, max_size=width)
    rows = draw(st.lists(row, max_size=5))
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))  # a duplicate
    if draw(st.integers(0, 4)) == 0:  # the whole space, shuffled
        rows += draw(st.permutations([[int(i == j) for j in range(width)] for i in range(width)]))
    if rows and draw(st.integers(0, 9)) == 0:
        rows[-1] = rows[-1] + [1]  # ragged
    return n, rows


@st.composite
def point_lists(draw):
    n = draw(st.integers(1, 4))
    coords = st.lists(coordinate, min_size=n + 1, max_size=n + 1).filter(any)
    pts = [ProjPoint(tuple(c)) for c in draw(st.lists(coords, max_size=5))]
    if pts and draw(st.booleans()):
        pts.append(draw(st.sampled_from(pts)))
    if draw(st.integers(0, 9)) == 0:
        pts.append(ProjPoint((1,) * (n + 2)))  # another ambient space
    return pts


small = st.integers(-2, 2)


@st.composite
def extend_cases(draw):
    """A flat of P^n below a hyperplane, an avoided point often off it, and a target."""
    n = draw(st.integers(2, 4))
    d = draw(st.integers(0, n - 2))
    coords = st.lists(small, min_size=n + 1, max_size=n + 1).filter(any)
    f = span([ProjPoint(tuple(c)) for c in draw(st.lists(coords, min_size=d + 1, max_size=d + 1))])
    avoid = ProjPoint(tuple(draw(coords)))
    target = draw(st.integers(f.dim, n - 1 + draw(st.sampled_from([0, 0, 0, 1]))))
    return f, avoid, target


class ScriptedRandom:
    """Plays back given draws for ``randint(-9, 9)``, then zeros."""

    def __init__(self, values):
        self._values = iter(values)

    def randint(self, a, b):
        assert (a, b) == (-9, 9)
        return next(self._values, 0)


def scripted(values):
    return types.SimpleNamespace(Random=lambda seed: ScriptedRandom(values))


@st.composite
def scripts(draw, f, avoid):
    """Draws that often lie in the flat's cone or in its join with the avoided point."""
    n = f.ambient_n
    out = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["in_flat", "in_join", "free", "zero"]))
        gens = list(f.integer_rows) + ([avoid.rep] if kind == "in_join" else [])
        if kind in ("in_flat", "in_join"):
            weights = draw(st.lists(small, min_size=len(gens), max_size=len(gens)))
            v = [sum(w * g[j] for w, g in zip(weights, gens)) for j in range(n + 1)]
            if any(abs(x) > 9 for x in v):
                v = [0] * (n + 1)
        elif kind == "free":
            v = draw(st.lists(st.integers(-9, 9), min_size=n + 1, max_size=n + 1))
        else:
            v = [0] * (n + 1)
        out.extend(v)
    return out


# ---------------------------------------------------------------------------
# points and forms
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.lists(coordinate, min_size=0, max_size=6))
@example([0, 0, 0])
@example([])
@example([Fraction(-3, 4), 0, Fraction(1, 2)])
@example(["-1/2", 0.25, 3])  # anything Fraction() takes
@example([0, -6, 4, -2])
def test_points_and_forms_match_the_fraction_route(coords):
    for cls, kind, field in ((ProjPoint, "point", "coords"), (LinearForm, "linear form", "coeffs")):
        want = outcome(lambda: ref_normalize(coords, kind))
        got = outcome(lambda: cls(tuple(coords)))
        assert got[0] == want[0]
        if want[0] != "ok":
            assert got == want
            continue
        obj, (canonical, rep) = got[2], want[2]
        assert getattr(obj, field) == canonical
        assert all(type(x) is Fraction for x in getattr(obj, field))
        assert obj.rep == rep and all(type(x) is int for x in rep)
        assert repr(obj) == repr(cls(canonical))
        # a scaled copy is the same key: vanishing_orders' and the lifts' dicts rely on it
        keyed = {obj: kind}
        for scale in (-2, Fraction(-7, 3)):
            other = cls(tuple(scale * Fraction(x) for x in coords))
            assert other == obj and hash(other) == hash(obj) and keyed[other] == kind


# ---------------------------------------------------------------------------
# flats
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(vector_lists())
@example((2, []))
@example((2, [[0, 0, 0], [0, 0, 0]]))
@example((2, [[0, 0]]))  # wrong width, zero
@example((2, [[0, 1]]))  # wrong width
@example((2, [[1, 2, 3], [1, 2]]))  # ragged
@example((1, [[]]))
@example((2, [["1/3", 0.5, -2], [0, 0, 1]]))
@example((3, [[0, -2, 4, 0], [0, 1, -2, 0], [0, 0, 0, -5]]))  # negative leads, dependent
def test_flat_matches_rref(case):
    """Any spanning vectors give the flat whose cone basis is their reduced row echelon form."""
    n, vectors = case
    want = outcome(lambda: ref_cone_basis(n, vectors))
    got = outcome(lambda: Flat(n, vectors))
    assert got[0] == want[0]
    if got[0] != "ok":
        assert got == want
        return
    f = got[2]
    assert f.ambient_n == n and f.cone_basis == want[2]
    assert all(type(x) is Fraction for row in f.cone_basis for x in row)
    assert_rows_kept(f)


@settings(max_examples=200, deadline=None)
@given(point_lists())
@example([])
@example([ProjPoint((1, 2)), ProjPoint((1, 2, 3))])
@example([ProjPoint((0, -1, 2)), ProjPoint((0, 2, -4)), ProjPoint((3, 0, 0))])
def test_span_matches_rref(pts):
    want = outcome(lambda: ref_span(pts))
    got = outcome(lambda: span(pts))
    assert got[:2] == want[:2]
    if got[0] == "ok":
        assert_rows_kept(got[2])


@settings(max_examples=200, deadline=None)
@given(vector_lists())
@example((3, [[0, 0, 1, 5], [0, 1, 0, 0]]))
def test_normals_of_a_flat_given_from_outside(case):
    """A flat given its canonical ``Fraction`` basis keeps that basis, as integer rows."""
    n, vectors = case
    built = outcome(lambda: ref_cone_basis(n, vectors))
    if built[0] == "ok":
        f = Flat(n, built[2])
        assert f.cone_basis == built[2]
        assert_rows_kept(f)


@pytest.mark.parametrize("dependent", [31, 32])
def test_extend_counts_dependent_draws_as_tries(monkeypatch, dependent):
    """Draws inside the flat's cone use up a step's 32 tries, as in the Fraction route."""
    f, avoid = span([ProjPoint.unit(2, 0)]), ProjPoint.unit(2, 2)
    draws = [1, 0, 0] * dependent + [0, 1, 0]
    want = outcome(lambda: ref_extend(f, 1, avoid, 0, scripted(draws).Random))
    assert want[0] == ("ok" if dependent < 32 else "RuntimeError")
    monkeypatch.setattr(geometry, "random", scripted(draws))
    assert outcome(lambda: extend_flat_avoiding(f, 1, avoid, 0)) == want


@settings(max_examples=200, deadline=None)
@given(extend_cases(), st.integers(0, 10**6))
@example((span([ProjPoint.unit(2, 0)]), ProjPoint.unit(2, 2), 0), 7)  # no step: f itself
@example((span([ProjPoint.unit(2, 0)]), ProjPoint.unit(2, 0), 1), 7)  # avoid on the flat
@example((span([ProjPoint.unit(2, 0)]), ProjPoint.unit(3, 1), 1), 7)  # another ambient space
def test_extend_matches_the_fraction_route(case, seed):
    f, avoid, target = case
    want = outcome(lambda: ref_extend(f, target, avoid, seed))
    got = outcome(lambda: extend_flat_avoiding(f, target, avoid, seed))
    assert got[:2] == want[:2]
    if got[0] == "ok":
        assert got[2] == want[2]
        assert_rows_kept(got[2])
        if target == f.dim:
            assert got[2] is f


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_extend_matches_the_fraction_route_on_scripted_draws(data):
    """Draws chosen to fall in the flat's cone or its join with the avoided point."""
    f, avoid, target = data.draw(extend_cases())
    draws = data.draw(scripts(f, avoid))
    want = outcome(lambda: ref_extend(f, target, avoid, 0, scripted(draws).Random))
    real = geometry.random
    geometry.random = scripted(draws)
    try:
        got = outcome(lambda: extend_flat_avoiding(f, target, avoid, 0))
    finally:
        geometry.random = real
    assert got[:2] == want[:2]
    if got[0] == "ok":
        assert got[2] == want[2]
        assert_rows_kept(got[2])
