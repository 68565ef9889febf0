import random
from fractions import Fraction
from itertools import combinations
from math import comb
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fatpoints import geometry
from fatpoints.constructions import _normalizing_change, _split_groups, segre_verdict
from fatpoints.generators import GeneratorError, PatternSpec, _crowded_flat, generate
from fatpoints.geometry import (
    ProjPoint,
    _annihilator_step,
    degeneracy_index,
    degeneracy_of,
    flat_contains,
    span,
    spanned_flats,
)
from fatpoints.linalg import _bareiss_forward, rank_rows
from fatpoints.schemes import FatPointScheme
from fatpoints.segre import segre_bound
from oracles import prefix_state_flats, random_invertible_change, span_dim


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


def brute_force_q(z, j):
    """Max multiplicity on a j-flat over every subset, no span shortcuts."""
    best = 0
    for size in range(1, z.size + 1):
        for sub in combinations(range(z.size), size):
            if span([z.points[i] for i in sub]).dim <= j:
                best = max(best, sum(z.mults[i] for i in sub))
    return best


# ---------------------------------------------------------------------------
# q_j
# ---------------------------------------------------------------------------

def test_whole_space_carries_everything():
    rng = random.Random(14)
    pts = random_points(rng, 3, 5)
    z = FatPointScheme(3, tuple(pts), (1, 2, 3, 1, 2))
    e = segre_bound(z).entry(3)
    assert e.total_mult == 9
    assert e.witness_indices == tuple(range(5))


def test_two_double_points_on_their_line():
    z = FatPointScheme(3, (unit(3, 0), unit(3, 1)), (2, 2))
    e = segre_bound(z).entry(1)
    assert e.total_mult == 4
    assert span([z.points[i] for i in e.witness_indices]) == span([unit(3, 0), unit(3, 1)])
    assert e.witness_indices == (0, 1)


def test_planted_collinear_quadruple_among_seven():
    rng = random.Random(42)
    base = [unit(3, 0), unit(3, 1)]
    planted = base + [ProjPoint((1, 2, 0, 0)), ProjPoint((1, 5, 0, 0))]
    rest = []
    while len(rest) < 3:
        p = random_points(rng, 3, 1, height=7)[0]
        if p not in planted + rest and not (p.coords[2] == 0 and p.coords[3] == 0):
            rest.append(p)
    pts = planted + rest
    z = FatPointScheme(3, tuple(pts), tuple([1] * 7))
    e = segre_bound(z).entry(1)
    assert e.total_mult == brute_force_q(z, 1)
    assert e.total_mult >= 4
    if e.total_mult == 4:
        assert e.witness_indices == (0, 1, 2, 3)


def test_enumeration_matches_brute_force():
    rng = random.Random(1000)
    for _ in range(8):
        n = rng.randint(2, 3)
        s = rng.randint(2, 6)
        pts = random_points(rng, n, s, height=4)
        z = FatPointScheme(n, tuple(pts), tuple(rng.randint(1, 3) for _ in range(s)))
        for j in range(1, n + 1):
            assert segre_bound(z).entry(j).total_mult == brute_force_q(z, j)


def test_q_nondecreasing_and_caps_at_total():
    rng = random.Random(3)
    pts = random_points(rng, 3, 6)
    z = FatPointScheme(3, tuple(pts), (2, 1, 1, 3, 1, 2))
    qs = [e.total_mult for e in segre_bound(z).entries]
    assert qs == sorted(qs)
    assert qs[-1] == sum(z.mults)


# ---------------------------------------------------------------------------
# T_j and the bound
# ---------------------------------------------------------------------------

def test_pair_formula():
    z = FatPointScheme(2, (unit(2, 0), unit(2, 1)), (2, 2))
    assert segre_bound(z).entry(1).value == 3


def test_single_point_formula():
    for m in (1, 2, 5):
        z = FatPointScheme(3, (ProjPoint((1, 1, 1, 1)),), (m,))
        for j in range(1, 4):
            assert segre_bound(z).entry(j).value == (m + j - 2) // j


def test_five_general_double_points_bound():
    rng = random.Random(7)
    while True:
        pts = random_points(rng, 2, 5)
        if span(pts).dim == 2 and all(
            span(list(sub)).dim == 2 for sub in combinations(pts, 3)
        ):
            break
    z = FatPointScheme(2, tuple(pts), (2,) * 5)
    report = segre_bound(z)
    assert [e.value for e in report.entries] == [3, 5]
    assert report.bound == 5
    assert report.argmax_j == 2


def test_collinear_simple_points_bound():
    pts = [ProjPoint((1, k, 0)) for k in range(5)]
    z = FatPointScheme(2, tuple(pts), (1,) * 5)
    report = segre_bound(z)
    assert report.entry(1).value == 4  # s - 1
    assert report.bound == 4


def test_pair_lower_bound_invariant():
    rng = random.Random(90)
    for _ in range(10):
        n = rng.randint(2, 3)
        s = rng.randint(2, 5)
        pts = random_points(rng, n, s)
        mults = tuple(rng.randint(1, 3) for _ in range(s))
        z = FatPointScheme(n, tuple(pts), mults)
        best_pair = max(
            mults[i] + mults[k] - 1 for i in range(s) for k in range(i + 1, s)
        )
        assert segre_bound(z).entry(1).value >= best_pair


def test_bound_invariance_under_change_and_permutation():
    rng = random.Random(63)
    pts = random_points(rng, 3, 5)
    z = FatPointScheme(3, tuple(pts), (2, 1, 3, 1, 2))
    base = segre_bound(z)
    for _ in range(5):
        change = random_invertible_change(3, rng)
        moved = z.transform(change)
        order = list(range(5))
        rng.shuffle(order)
        shuffled = z.permuted(order)
        assert segre_bound(moved).bound == base.bound
        assert [e.value for e in segre_bound(moved).entries] == [
            e.value for e in base.entries
        ]
        assert segre_bound(shuffled).bound == base.bound


def test_out_of_range_j():
    z = FatPointScheme(2, (unit(2, 0),), (1,))
    report = segre_bound(z)
    with pytest.raises(ValueError):
        report.entry(0)
    with pytest.raises(ValueError):
        report.entry(3)


def test_report_entry_out_of_range_j():
    """``entry(0)`` is not the T_n entry, and ``entry(n+1)`` is no IndexError."""
    z = FatPointScheme(2, (unit(2, 0), unit(2, 1)), (2, 1))
    report = segre_bound(z)
    assert [report.entry(j).j for j in (1, 2)] == [1, 2]
    for j in (-1, 0, 3):
        with pytest.raises(ValueError, match="flat dimension out of range"):
            report.entry(j)


# ---------------------------------------------------------------------------
# the whole table against a brute-force flat lattice
# ---------------------------------------------------------------------------

@st.composite
def small_schemes(draw):
    """Distinct points of height 2, often confined to a coordinate flat so
    that collinear and coplanar subsets are common, with multiplicities 1..3."""
    n = draw(st.integers(1, 4))
    free = draw(st.integers(1, n + 1))
    coords = st.tuples(*[st.integers(-2, 2)] * free).filter(any)
    raw = draw(st.lists(coords, min_size=1, max_size=7))
    pad = (Fraction(0),) * (n + 1 - free)
    pts = list(dict.fromkeys(ProjPoint(tuple(Fraction(c) for c in v) + pad) for v in raw))
    mults = draw(st.lists(st.integers(1, 3), min_size=len(pts), max_size=len(pts)))
    return FatPointScheme(n, tuple(pts), tuple(mults))


def brute_force_table(z):
    """(T_j, total, witness indices, witness flat) for every j: every subset
    is spanned, each distinct flat keeps the points it contains, and per j
    the largest total wins, ties to the lexicographically smallest witness."""
    flats = {}
    for size in range(1, z.size + 1):
        for sub in combinations(range(z.size), size):
            f = span([z.points[i] for i in sub])
            flats[f] = tuple(i for i in range(z.size) if flat_contains(f, z.points[i]))
    table = []
    for j in range(1, z.n + 1):
        total, witness, f = min(
            (-sum(z.mults[i] for i in w), w, f) for f, w in flats.items() if f.dim <= j
        )
        table.append(((-total + j - 2) // j, -total, witness, f))
    return table


@settings(max_examples=150, deadline=None)
@given(small_schemes())
@example(FatPointScheme(2, tuple(ProjPoint((1, k, 0)) for k in range(4)), (1, 2, 3, 1)))
@example(  # four coplanar points and one off their plane in P^3
    FatPointScheme(
        3,
        (unit(3, 0), unit(3, 1), unit(3, 2), ProjPoint((1, 1, 1, 0)), unit(3, 3)),
        (2, 1, 1, 3, 2),
    )
)
@example(  # two lines through a common point in P^3
    FatPointScheme(
        3,
        (unit(3, 0), unit(3, 1), ProjPoint((1, 1, 0, 0)), unit(3, 2), ProjPoint((1, 0, 1, 0))),
        (1, 1, 1, 2, 2),
    )
)
def test_segre_table_matches_brute_force_lattice(z):
    report = segre_bound(z)
    got = [
        (e.value, e.total_mult, e.witness_indices, span([z.points[i] for i in e.witness_indices]))
        for e in report.entries
    ]
    assert got == brute_force_table(z)
    assert [e.j for e in report.entries] == list(range(1, z.n + 1))
    verdict = segre_verdict(z)
    assert verdict.degeneracy == degeneracy_index(list(z.points))
    assert verdict.general_position == (verdict.degeneracy is None)


# ---------------------------------------------------------------------------
# the integer-normal enumeration against the rank-based one it replaced
# ---------------------------------------------------------------------------

def rank_candidate_flats(z):
    """The flat enumeration with one ``rank_rows`` incidence test per point."""
    ints = [p.rep for p in z.points]
    width = z.n + 1
    found = []
    covered = []
    for size in range(1, min(z.size, width) + 1):
        for sub in combinations(range(z.size), size):
            if any(w.issuperset(sub) for w in covered):
                continue
            rows = [ints[i] for i in sub]
            witness = tuple(
                i
                for i in range(z.size)
                if i in sub or rank_rows(rows + [ints[i]], width) == size
            )
            found.append((size - 1, witness))
            covered.append(frozenset(witness))
    return tuple(found)


@st.composite
def planted_schemes(draw):
    """Rational points with collinear and coplanar groups planted: each
    planted point is a combination of two or three points drawn before it."""
    n = draw(st.integers(1, 4))
    coordinate = st.one_of(st.just(Fraction(0)), st.fractions(-3, 3, max_denominator=4))
    vec = st.lists(coordinate, min_size=n + 1, max_size=n + 1).filter(any)
    pts = [draw(vec)]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            base = draw(st.lists(st.sampled_from(pts), min_size=2, max_size=3))
            weights = draw(st.lists(coordinate, min_size=len(base), max_size=len(base)))
            v = [sum(w * b[j] for w, b in zip(weights, base)) for j in range(n + 1)]
            if any(v):
                pts.append(v)
        else:
            pts.append(draw(vec))
    pts = list(dict.fromkeys(ProjPoint(tuple(v)) for v in pts))
    mults = draw(st.lists(st.integers(1, 3), min_size=len(pts), max_size=len(pts)))
    return FatPointScheme(n, tuple(pts), tuple(mults))


@settings(max_examples=200, deadline=None)
@given(st.one_of(planted_schemes(), small_schemes()))
@example(FatPointScheme(2, tuple(ProjPoint((1, k, 0)) for k in range(4)), (1, 2, 3, 1)))
@example(FatPointScheme(1, (unit(1, 0),), (2,)))
@example(  # two coplanar pairs of lines in P^3, one of them through a point with zero coordinates
    FatPointScheme(
        3,
        (unit(3, 0), unit(3, 1), ProjPoint((1, 1, 0, 0)), unit(3, 2), ProjPoint((1, 0, 1, 0)),
         ProjPoint((0, 1, 1, 0)), unit(3, 3)),
        (1, 1, 1, 2, 2, 1, 3),
    )
)
def test_candidate_flats_match_rank_enumeration(z):
    assert spanned_flats(z.points) == rank_candidate_flats(z)


# ---------------------------------------------------------------------------
# the basis tree against the prefix-state scan it replaced
# ---------------------------------------------------------------------------

def _scheme(n, reps):
    return FatPointScheme(n, tuple(ProjPoint(rep) for rep in reps), (1,) * len(reps))


def _on_plane(t):
    """(1, t, t^2) in the frame u, v, w of a plane of P^4 that is no coordinate plane."""
    u, v, w = (1, 2, 0, -1, 3), (0, 1, 1, 2, -1), (2, 0, 1, 1, 1)
    return tuple(a + t * b + t * t * c for a, b, c in zip(u, v, w))


#: name -> (the branch of spanned_flats it takes, the scheme)
ENUMERATION_EXAMPLES = {
    "one point": ("uniform", _scheme(2, [(1, 2, 3)])),
    "two points": ("uniform", _scheme(3, [(1, 0, 2, 0), (0, 1, 1, 1)])),
    # seven points of the twisted cubic: every four independent
    "uniform, s > n+1": ("uniform", _scheme(3, [(1, t, t * t, t**3) for t in range(-3, 4)])),
    # six points of a conic on a plane of P^4: r = 3 < n + 1
    "points on a plane in P^4": ("uniform", _scheme(4, [_on_plane(t) for t in range(-2, 4)])),
    # r = 3 on coordinates 2, 3 and 4, with points 0, 1 and 2 on a line
    "zero leading coordinates": (
        "closure",
        _scheme(4, [(0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 1, 1, 0), (0, 0, 0, 0, 1), (0, 0, 1, 2, 3)]),
    ),
    "12 points in P^2, a planted line": (
        "closure",
        _scheme(2, [(1, t, 0) for t in range(4)] + [(1, t, t * t) for t in range(4, 12)]),
    ),
    "8 points in P^4, a planted plane": (
        "closure",
        _scheme(
            4,
            [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (1, 1, 1, 0, 0)]
            + [(1, t, t * t, t**3, t**4) for t in range(1, 5)],
        ),
    ),
}


@settings(max_examples=300, deadline=None)
@given(st.one_of(planted_schemes(), small_schemes()))
@example(ENUMERATION_EXAMPLES["one point"][1])
@example(ENUMERATION_EXAMPLES["two points"][1])
@example(ENUMERATION_EXAMPLES["uniform, s > n+1"][1])
@example(ENUMERATION_EXAMPLES["points on a plane in P^4"][1])
@example(ENUMERATION_EXAMPLES["zero leading coordinates"][1])
@example(ENUMERATION_EXAMPLES["12 points in P^2, a planted line"][1])
@example(ENUMERATION_EXAMPLES["8 points in P^4, a planted plane"][1])
def test_spanned_flats_match_prefix_state_scan(z):
    assert spanned_flats(z.points) == prefix_state_flats(z.points)


@pytest.mark.parametrize("name", sorted(ENUMERATION_EXAMPLES))
def test_enumeration_examples_take_their_branch(name):
    """A uniform configuration writes its list out with no closure table;
    every other one fills the table once.  The branch is also the
    configuration's: uniform exactly when every r-subset is a basis."""
    branch, z = ENUMERATION_EXAMPLES[name]
    with mock.patch.object(geometry, "_unions", wraps=geometry._unions) as unions:
        flats = spanned_flats(z.points)
    assert unions.call_count == (branch == "closure")
    r = span_dim(list(z.points)) + 1
    reps = [p.rep for p in z.points]
    bases = sum(rank_rows([reps[i] for i in sub], z.n + 1) == r for sub in combinations(range(z.size), r))
    assert (bases == comb(z.size, r)) == (branch == "uniform")
    assert flats[-1] == (r - 1, tuple(range(z.size)))


@settings(max_examples=200, deadline=None)
@given(st.one_of(planted_schemes(), small_schemes()))
@example(FatPointScheme(2, tuple(ProjPoint((1, k, 0)) for k in range(4)), (1, 2, 3, 1)))
@example(FatPointScheme(1, (unit(1, 0),), (2,)))
@example(  # a plane of four points and a line through two of them in P^3
    FatPointScheme(
        3,
        (unit(3, 0), unit(3, 1), unit(3, 2), ProjPoint((1, 1, 1, 0)), ProjPoint((1, 1, 0, 1)),
         ProjPoint((2, 2, 0, 1))),
        (1,) * 6,
    )
)
def test_spanned_flat_is_its_dimension_and_witnesses(z):
    """Each (dim, witness) pair is a flat: the witness points span a flat of
    that dimension, and the points on that flat are exactly the witnesses."""
    for dim, witness in spanned_flats(z.points):
        f = span([z.points[i] for i in witness])
        assert f.dim == dim
        assert tuple(i for i, p in enumerate(z.points) if flat_contains(f, p)) == witness


# ---------------------------------------------------------------------------
# the one enumeration and its readers, against the subset scans they replaced
# ---------------------------------------------------------------------------

def subset_scan_degeneracy_index(points):
    """The degeneracy index by spanning every (h+2)-subset, as it was computed
    before the enumeration served it."""
    if len(set(points)) != len(points):
        raise ValueError("points must be pairwise distinct")
    top = span_dim(points)
    for h in range(1, top):
        if len(points) < h + 2:
            break
        for sub in combinations(points, h + 2):
            if span_dim(sub) <= h:
                return h
    return None


def _outcome(fn):
    try:
        return fn()
    except ValueError as exc:
        return "ValueError", str(exc)


@settings(max_examples=200, deadline=None)
@given(st.one_of(planted_schemes(), small_schemes()))
@example(FatPointScheme(2, tuple(ProjPoint((1, k, 0)) for k in range(4)), (1, 1, 1, 1)))
@example(FatPointScheme(1, (unit(1, 0),), (1,)))
@example(  # two lines through e_0 and a point off their plane in P^3
    FatPointScheme(
        3,
        (unit(3, 0), unit(3, 1), ProjPoint((1, 1, 0, 0)), unit(3, 2), ProjPoint((1, 0, 1, 0)),
         unit(3, 3)),
        (1,) * 6,
    )
)
def test_flat_readers_match_subset_scans(z):
    """Degeneracy, span dimension, prop43's check and lem42's flat test read
    off the enumeration agree with the subset scans by ``span_dim``."""
    pts = list(z.points)
    flats = spanned_flats(pts)
    assert z.flats == flats
    assert flats[-1][0] == span_dim(pts)
    k = subset_scan_degeneracy_index(pts)
    assert degeneracy_of(flats) == degeneracy_index(pts) == k
    for s in range(1, 6):
        crowded = any(span_dim(sub) <= s - 1 for sub in combinations(pts, s + 2)) or any(
            span_dim(sub) <= s - 2 for sub in combinations(pts, s)
        )
        assert _crowded_flat(flats, s) == crowded


@pytest.mark.parametrize(
    "points",
    [
        [],
        [unit(2, 0), unit(3, 0)],
        [unit(2, 0), unit(2, 1), unit(2, 0)],
        [unit(2, 0), unit(3, 0), unit(2, 0)],
        [ProjPoint((1, 2)), ProjPoint((-2, -4))],
    ],
    ids=["empty", "mismatched", "repeated", "repeated-and-mismatched", "same-point"],
)
def test_enumeration_errors_match_subset_scan(points):
    want = _outcome(lambda: subset_scan_degeneracy_index(points))
    assert want[0] == "ValueError"
    assert _outcome(lambda: degeneracy_index(points)) == want
    assert _outcome(lambda: spanned_flats(points)) == want
    if len(set(points)) == len(points):  # the same messages as span
        assert _outcome(lambda: span(points)) == want


def _det(rows):
    """Determinant by Gaussian elimination in Fractions."""
    a = [list(map(Fraction, r)) for r in rows]
    det = Fraction(1)
    for c in range(len(a)):
        r = next((i for i in range(c, len(a)) if a[i][c]), None)
        if r is None:
            return 0
        if r != c:
            a[c], a[r] = a[r], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, len(a)):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


@settings(max_examples=100, deadline=None)
@given(planted_schemes(), st.randoms(use_true_random=False))
def test_annihilator_steps_are_bordered_minors(z, rnd):
    """The tree's tail steps, as ``spanned_flats`` takes them: from the rows
    of the points' spanning coordinates, at increasing columns q_1 < .. < q_k
    with pivot rows r_1..r_k, the entry of row i at column j > q_k is the
    minor of the starting matrix on rows r_1..r_k, i and columns
    q_1..q_k, j: every division was exact.  The points come in a random
    order, and some independent columns are passed over, as a branch of
    the tree passes them."""
    reps = [p.rep for p in z.points]
    rnd.shuffle(reps)
    coords = _bareiss_forward([list(rep) for rep in reps], z.n + 1)
    start = [[rep[c] for rep in reps] for c in coords]
    rows, prev, labels, pivots, cols, lo = start, 1, list(range(len(coords))), [], [], 0
    passed_over = False
    for q in range(z.size):
        if not any(row[q - lo] for row in rows):
            continue  # q is on the span of the columns taken so far
        if rnd.random() < 0.25:
            passed_over = True
            continue
        at = next(i for i, row in enumerate(rows) if row[q - lo])
        pivots.append(labels.pop(at))
        cols.append(q)
        rows, prev = _annihilator_step(rows, prev, q - lo)
        lo = q + 1
        assert prev == _det([[start[r][c] for c in cols] for r in pivots])
        for label, row in zip(labels, rows):
            assert len(row) == z.size - lo
            for j, x in enumerate(row, lo):
                want = _det([[start[r][c] for c in cols + [j]] for r in pivots + [label]])
                assert x == want
    assert len(coords) == span_dim(list(z.points)) + 1
    assert (not rows) == (len(cols) == len(coords))
    if not passed_over:
        assert len(cols) == len(coords)


def reference_split_groups(moved, origin):
    """The split groups with alpha found by spanning (k+2)-subsets in
    combinations order, as the split construction found it before reading
    the enumeration, and its test on the groups: a nonempty group a, and
    r_b = |group b| - 1 with r_b >= 1 and k + r_b <= n."""
    everyone = list(moved.points) + [origin]
    k = subset_scan_degeneracy_index(everyone)
    if k is None:
        return None
    for sub in combinations(everyone, k + 2):
        f = span(sub)
        if f.dim <= k and flat_contains(f, origin):
            group_a = [i for i in range(moved.size) if flat_contains(f, moved.points[i])]
            group_b = [i for i in range(moved.size) if i not in group_a]
            r_b = len(group_b) - 1
            if not group_a or r_b < 1 or k + r_b > moved.n:
                return None
            return [(group_a, k), (group_b, r_b)]
    return None


def split_groups(moved, origin):
    return _split_groups(spanned_flats([*moved.points, origin]), moved.n)


@st.composite
def points_around_the_origin(draw):
    """Points of P^n, n 2..4, with lines and planes through e_0 planted:
    each planted point combines e_0 with one or two points drawn before it."""
    n = draw(st.integers(2, 4))
    origin = unit(n, 0)
    coordinate = st.one_of(st.just(0), st.integers(-3, 3))
    vec = st.lists(coordinate, min_size=n + 1, max_size=n + 1).filter(any)
    vecs = [draw(vec)]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            base = [list(origin.rep)] + draw(
                st.lists(st.sampled_from(vecs), min_size=1, max_size=2)
            )
            weights = draw(st.lists(coordinate, min_size=len(base), max_size=len(base)))
            v = [sum(w * b[j] for w, b in zip(weights, base)) for j in range(n + 1)]
            if any(v):
                vecs.append(v)
        else:
            vecs.append(draw(vec))
    pts = [p for p in dict.fromkeys(ProjPoint(tuple(v)) for v in vecs) if p != origin]
    assume(pts)
    return FatPointScheme(n, tuple(pts), (1,) * len(pts)), origin


def _prop43_split_inputs():
    out = []
    for n, s, k in ((2, 2, 1), (3, 3, 1), (3, 3, 2), (4, 3, 2), (4, 4, 1), (4, 4, 3)):
        try:
            z = generate(PatternSpec("prop43", n=n, s=s, m=1, k=k, seed=n + s + k, height=5))
        except GeneratorError:
            continue
        j, p = z.without_point(0), z.points[0]
        change, _ = _normalizing_change(j, p)
        out.append((j.transform(change), unit(n, 0)))
    return out


@settings(max_examples=150, deadline=None)
@given(points_around_the_origin())
@example((FatPointScheme(2, (unit(2, 1), ProjPoint((1, 1, 0)), unit(2, 2)), (1, 1, 1)), unit(2, 0)))
@example(  # two lines through the origin, each with two points, in P^3
    (
        FatPointScheme(
            3,
            (ProjPoint((0, 1, 1, 0)), unit(3, 2), ProjPoint((1, 1, 1, 0)), ProjPoint((1, 0, 1, 0))),
            (1,) * 4,
        ),
        unit(3, 0),
    )
)
def test_split_groups_match_combinations_order_reference(case):
    moved, origin = case
    assert split_groups(moved, origin) == reference_split_groups(moved, origin)


def test_split_groups_match_reference_on_prop43_inputs():
    inputs = _prop43_split_inputs()
    assert len(inputs) >= 4
    for moved, origin in inputs:
        got = split_groups(moved, origin)
        assert got is not None and got == reference_split_groups(moved, origin)
