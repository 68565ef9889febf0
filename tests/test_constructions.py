import dataclasses
import hashlib
import logging
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fatpoints.generators import GeneratorError, PatternSpec, generate
from fatpoints import constructions
from fatpoints.geometry import (
    Flat,
    LinearForm,
    ProjPoint,
    _lead_one,
    extend_flat_avoiding,
    flat_contains,
    span,
    spanned_flats,
    transform_point,
)
from fatpoints.schemes import (
    FatPointScheme,
    artinian_quotient_regularity,
    in_fat_ideal,
    monomial_basis,
    regularity_index,
)
from fatpoints.constructions import (
    Certificate,
    CertificateEntry,
    ConstructionError,
    build_certificate,
    classify_scheme,
    cover_threshold,
    distribute_flats,
    removal_recursion_check,
    segre_verdict,
    vanishing_orders,
    verify_certificate,
)
from oracles import (
    form_mul,
    hyperplane_containing_avoiding,
    canonical_change,
    linear_form_to_form,
    monomial_form,
    single_group_dim_by_scan,
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


# ---------------------------------------------------------------------------
# cover_threshold
# ---------------------------------------------------------------------------

def test_threshold_examples():
    assert cover_threshold([1, 1, 1], 2) == 2
    assert cover_threshold([4], 3) == 4
    assert cover_threshold([2] * 6, 2) == 6


def test_threshold_against_independent_arithmetic():
    rng = random.Random(555)
    for _ in range(300):
        s = rng.randint(1, 8)
        mults = [rng.randint(1, 6) for _ in range(s)]
        r = rng.randint(1, 5)
        total = 0
        biggest = 0
        for m in mults:
            total += m
            if m > biggest:
                biggest = m
        floor_term = (total + r - 1) // r
        expected = biggest if biggest > floor_term else floor_term
        assert cover_threshold(mults, r) == expected


# ---------------------------------------------------------------------------
# distribute_flats
# ---------------------------------------------------------------------------

def test_distribute_two_points_one_line():
    pts = [unit(2, 0), unit(2, 1)]
    avoid = ProjPoint((1, 1, 1))
    d = distribute_flats(pts, avoid, [1, 1], 2, 1, seed=4)
    assert len(d.flats) == 1
    assert d.flats[0] == span(pts)
    assert d.coverage == ((0,), (0,))


def test_distribute_three_general_points_two_lines():
    rng = random.Random(8)
    while True:
        pts = random_points(rng, 2, 3)
        avoid = random_points(rng, 2, 4)[3]
        if span(pts).dim == 2 and not any(
            flat_contains(span([a, b]), avoid) for a in pts for b in pts if a != b
        ):
            break
    d = distribute_flats(pts, avoid, [1, 1, 1], 2, 2, seed=6)
    assert len(d.flats) == 2
    for cov in d.coverage:
        assert len(cov) >= 1
    for f in d.flats:
        assert f.dim == 1
        assert not flat_contains(f, avoid)


def test_distribute_equimultiple_in_space():
    rng = random.Random(77)
    while True:
        pts = random_points(rng, 3, 5)
        avoid = random_points(rng, 3, 6)[5]
        try:
            d = distribute_flats(pts, avoid, [2] * 5, 2, cover_threshold([2] * 5, 2), seed=11)
            break
        except ValueError:
            continue
    assert len(d.flats) == cover_threshold([2] * 5, 2) == 5
    for cov, m in zip(d.coverage, [2] * 5):
        assert len(cov) >= m
    for f in d.flats:
        assert f.dim == 1
        assert not flat_contains(f, avoid)


def test_distribute_seeded_postconditions():
    rng = random.Random(2048)
    done = 0
    while done < 40:
        n = rng.randint(2, 4)
        s = rng.randint(1, 5)
        r = rng.randint(1, n)
        pts = random_points(rng, n, s)
        avoid = random_points(rng, n, s + 1)[s]
        mults = [rng.randint(1, 3) for _ in range(s)]
        t = cover_threshold(mults, r) + rng.randint(0, 2)
        seed = rng.randint(0, 10**6)
        try:
            d = distribute_flats(pts, avoid, mults, r, t, seed)
        except ValueError:
            continue  # scan rejected the configuration; not a valid instance
        assert len(d.flats) == t
        for f in d.flats:
            assert f.dim == r - 1
            assert not flat_contains(f, avoid)
        for i, m in enumerate(mults):
            assert len(d.coverage[i]) >= m
        # determinism per seed
        again = distribute_flats(pts, avoid, mults, r, t, seed)
        assert again == d
        done += 1


def test_distribute_rejects_low_t():
    pts = [unit(2, 0), unit(2, 1)]
    with pytest.raises(ValueError):
        distribute_flats(pts, ProjPoint((1, 1, 1)), [2, 2], 2, 1, seed=0)


def test_distribute_reports_offending_subset():
    # avoided point on the line through the two points
    pts = [unit(2, 0), unit(2, 1)]
    avoid = ProjPoint((1, 1, 0))
    with pytest.raises(ValueError, match="span of points"):
        distribute_flats(pts, avoid, [1, 1], 2, 2, seed=0)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def case1_configuration(rng, n=3, count=4, m=2):
    """Points on a common hyperplane, distinguished point off it."""
    while True:
        pts = []
        while len(pts) < count:
            coords = [rng.randint(-5, 5) for _ in range(n)] + [0]
            if any(coords):
                p = ProjPoint(tuple(Fraction(c) for c in coords))
                if p not in pts:
                    pts.append(p)
        p_out = ProjPoint(tuple(Fraction(rng.randint(1, 5)) for _ in range(n + 1)))
        if p_out not in pts:
            return FatPointScheme(n, tuple(pts), (m,) * count), p_out


def test_case1_certificate_shape_and_delta():
    rng = random.Random(31)
    j, p = case1_configuration(rng, m=2)
    cert = build_certificate(j, p, 2, seed=5)
    assert cert.strategy == "covering_hyperplane"
    assert cert.delta == 2 * 2 - 1
    for entry in cert.entries:
        assert len(entry.hyperplanes) == 2
        assert len(set(entry.hyperplanes)) == 1
    ok, delta = verify_certificate(cert, j, p, 2)
    assert ok and delta == 3


def test_order_one_certificate_single_entry():
    rng = random.Random(32)
    j, p = case1_configuration(rng, m=1)
    cert = build_certificate(j, p, 1, seed=5)
    assert [e.monomial for e in cert.entries] == [(0, 0, 0)]
    ok, delta = verify_certificate(cert, j, p, 1)
    assert ok


def test_certificate_soundness_against_artinian_oracle():
    rng = random.Random(99)
    done = 0
    while done < 10:
        n = rng.randint(2, 3)
        s = rng.randint(2, 4)
        pts = random_points(rng, n, s + 1)
        j = FatPointScheme(n, tuple(pts[:s]), tuple(rng.randint(1, 2) for _ in range(s)))
        p = pts[s]
        a = rng.randint(1, 2)
        try:
            cert = build_certificate(j, p, a, seed=rng.randint(0, 9999))
        except ConstructionError:
            continue
        ok, delta = verify_certificate(cert, j, p, a)
        assert ok
        assert artinian_quotient_regularity(j, p, a) <= delta
        done += 1


def test_certificate_determinism():
    rng = random.Random(7)
    j, p = case1_configuration(rng, m=2)
    c1 = build_certificate(j, p, 2, seed=42)
    c2 = build_certificate(j, p, 2, seed=42)
    assert c1 == c2


@pytest.mark.parametrize("a", [1, 2])
def test_split_rejection_falls_back_to_single_group(a, caplog):
    # q1, q2 on one line through p and q3, q4 on another: split takes the
    # first line as its flat, and the scan of its second group {q3, q4, q5},
    # covered by lines, meets the second line (points [0, 1] of that group)
    p = ProjPoint((1, 0, 0, 0))
    coords = [(1, 1, 0, 0), (1, 2, 0, 0), (1, 0, 1, 0), (1, 0, 3, 0), (1, 2, 3, 5)]
    pts = [ProjPoint(c) for c in coords]
    j = FatPointScheme(3, tuple(pts), (2, 1, 2, 1, 1))
    with caplog.at_level(logging.INFO, logger="fatpoints.constructions"):
        cert = build_certificate(j, p, a, seed=3)
    assert cert.strategy == "single_group"
    assert verify_certificate(cert, j, p, a) == (True, 7)
    assert "split construction rejected: avoided point lies on the span of points [0, 1]" in caplog.text


def test_verify_rejects_hyperplane_through_point():
    rng = random.Random(11)
    j, p = case1_configuration(rng, m=1)
    cert = build_certificate(j, p, 1, seed=1)
    # inject a hyperplane through the distinguished point (origin in
    # certificate coordinates): any form with zero first coefficient
    bad = CertificateEntry(
        cert.entries[0].monomial,
        cert.entries[0].hyperplanes
        + (type(cert.entries[0].hyperplanes[0])((0, 1) + (0,) * (j.n - 1)),),
    )
    tampered = Certificate(
        cert.order, cert.change, (bad,), cert.positions, cert.strategy, cert.delta + 1
    )
    ok, _ = verify_certificate(tampered, j, p, 1)
    assert not ok


def test_verify_rejects_incomplete_certificate():
    rng = random.Random(12)
    j, p = case1_configuration(rng, m=2)
    cert = build_certificate(j, p, 2, seed=1)
    truncated = Certificate(
        cert.order, cert.change, cert.entries[:1], cert.positions, cert.strategy, cert.delta
    )
    ok, _ = verify_certificate(truncated, j, p, 2)
    assert not ok


def test_verify_degenerate_order_rejected():
    rng = random.Random(13)
    j, p = case1_configuration(rng, m=1)
    cert = build_certificate(j, p, 1, seed=1)
    with pytest.raises(ValueError):
        verify_certificate(cert, j, p, 0)


def test_verify_rejects_singular_change_that_keeps_the_point(caplog):
    # row 0 of the change still sends p to the origin, the zeroed rows send
    # every scheme point to the origin too (or to zero): invalid, no raise
    rng = random.Random(14)
    j, p = case1_configuration(rng, m=2)
    cert = build_certificate(j, p, 2, seed=1)
    singular = (cert.change[0],) + ((0,) * (j.n + 1),) * j.n
    assert transform_point(singular, p) == unit(j.n, 0)
    tampered = dataclasses.replace(cert, change=singular)
    with caplog.at_level(logging.WARNING, logger="fatpoints.constructions"):
        assert verify_certificate(tampered, j, p, 2) == (False, cert.delta)
    assert "coordinate change is singular" in caplog.text


def test_verify_rejects_change_that_merges_two_points(caplog):
    # P = d_k I - d e_k^T fixes e_0 up to the factor d_k and kills
    # d = C q_0 - C q_1, C the change, so P C still sends p to the origin and
    # sends q_0 and q_1 to one point
    rng = random.Random(15)
    j, p = case1_configuration(rng, m=1)
    cert = build_certificate(j, p, 1, seed=1)
    size = j.n + 1
    u, v = ([sum(x * y for x, y in zip(row, q.rep)) for row in cert.change] for q in j.points[:2])
    d = [x - y for x, y in zip(u, v)]
    k = next(i for i in range(1, size) if d[i])
    proj = [[d[k] * (r == c) - (d[r] if c == k else 0) for c in range(size)] for r in range(size)]
    merging = tuple(
        tuple(sum(proj[r][i] * cert.change[i][c] for i in range(size)) for c in range(size))
        for r in range(size)
    )
    assert transform_point(merging, p) == unit(j.n, 0)
    assert transform_point(merging, j.points[0]) == transform_point(merging, j.points[1])
    tampered = dataclasses.replace(cert, change=merging)
    with caplog.at_level(logging.WARNING, logger="fatpoints.constructions"):
        assert verify_certificate(tampered, j, p, 1) == (False, cert.delta)
    assert "coordinate change is singular" in caplog.text


def test_verify_rejects_a_malformed_change_without_raising():
    # a change that is not n+1 rows of n+1 ints: invalid, no raise
    rng = random.Random(16)
    j, p = case1_configuration(rng, m=2)
    cert = build_certificate(j, p, 2, seed=1)
    rows = cert.change
    malformed = {
        "ragged": rows[:1] + (rows[1][:-1],) + rows[2:],
        "too few rows": rows[:-1],
        "too many rows": rows + (rows[-1],),
    }
    for name, change in malformed.items():
        tampered = dataclasses.replace(cert, change=change)
        assert verify_certificate(tampered, j, p, 2) == (False, cert.delta), name


@pytest.mark.parametrize(
    "tamper",
    [
        lambda rows: ((rows[0][0] * 1.0,) + rows[0][1:],) + rows[1:],
        lambda rows: tuple(tuple(Fraction(x, 2) for x in row) for row in rows),
        lambda rows: ((str(rows[0][0]),) + rows[0][1:],) + rows[1:],
    ],
    ids=["float", "fraction", "str"],
)
def test_verify_rejects_a_change_that_is_not_integer_rows(tamper, caplog):
    # the Fraction rows are the same change of coordinates, so only the entry
    # check tells them apart
    rng = random.Random(16)
    j, p = case1_configuration(rng, m=2)
    cert = build_certificate(j, p, 2, seed=1)
    tampered = dataclasses.replace(cert, change=tamper(cert.change))
    with caplog.at_level(logging.WARNING, logger="fatpoints.constructions"):
        assert verify_certificate(tampered, j, p, 2) == (False, cert.delta)
    assert "coordinate change is not integer rows" in caplog.text


def test_build_certificate_rejects_point_of_another_ambient_space():
    j = FatPointScheme(2, (unit(2, 0), unit(2, 1)), (1, 1))
    for p in (ProjPoint((1, 1, 1, 5)), ProjPoint((1, 1))):
        with pytest.raises(ValueError, match="ambient dimensions disagree"):
            build_certificate(j, p, 1, 0)


def test_removal_recursion_rejects_out_of_range_index():
    z = FatPointScheme(2, (unit(2, 0), unit(2, 1)), (2, 1))
    for i0 in (-1, z.size):
        with pytest.raises(ValueError, match="out of range"):
            removal_recursion_check(z, i0)


def test_hand_built_certificate_on_two_points():
    # two simple points on the line x2 = 0 in P^2, distinguished point e2
    j = FatPointScheme(2, (unit(2, 0), unit(2, 1)), (1, 1))
    p = unit(2, 2)
    cert = build_certificate(j, p, 1, seed=0)
    ok, delta = verify_certificate(cert, j, p, 1)
    assert ok
    assert delta == 1  # one hyperplane suffices: the line through both points


def drop_one_factor(cert, k):
    """The certificate with one hyperplane taken from entry k."""
    e = cert.entries[k]
    short = CertificateEntry(e.monomial, e.hyperplanes[1:])
    return dataclasses.replace(cert, entries=cert.entries[:k] + (short,) + cert.entries[k + 1 :])


def expand(n, monomial, hyperplanes):
    """X^monomial (in X_1..X_n) times the hyperplanes, as a form."""
    product = monomial_form(n + 1, (0,) + monomial)
    for h in hyperplanes:
        product = form_mul(product, linear_form_to_form(_lead_one([h.rep])[0]))
    return product


def test_verify_rejects_product_one_factor_short():
    rng = random.Random(15)
    j, p = case1_configuration(rng, m=2)
    cert = build_certificate(j, p, 2, seed=1)
    assert cert.strategy == "covering_hyperplane"
    # the constant monomial's entry is the common hyperplane squared; with one
    # factor it vanishes only to order 1 at the double points
    k = next(i for i, e in enumerate(cert.entries) if not any(e.monomial))
    ok, delta = verify_certificate(drop_one_factor(cert, k), j, p, 2)
    assert not ok
    assert delta == cert.delta


@pytest.mark.parametrize(
    "kind", ["long monomial", "short monomial", "negative exponent", "higher ambient", "lower ambient"]
)
def test_verify_rejects_malformed_entry(kind):
    rng = random.Random(14)
    j, p = case1_configuration(rng, m=1)
    cert = build_certificate(j, p, 1, seed=1)
    (entry,) = cert.entries
    mono, hs = entry.monomial, entry.hyperplanes
    extra = {
        "long monomial": CertificateEntry(mono + (0,), hs),
        "short monomial": CertificateEntry(mono[:-1], hs),
        "negative exponent": CertificateEntry(mono[:-1] + (-1,), hs),
        "higher ambient": CertificateEntry(mono, hs + (LinearForm((1,) * (j.n + 2)),)),
        "lower ambient": CertificateEntry(mono, hs + (LinearForm((1,) * j.n),)),
    }[kind]
    tampered = dataclasses.replace(cert, entries=cert.entries + (extra,))
    with pytest.raises(ValueError, match="certificate entry 1 "):
        verify_certificate(tampered, j, p, 1)


@st.composite
def hyperplane_products(draw):
    """n, points with multiplicities, a monomial in X_1..X_n and 0-5 linear
    factors drawn with repeats from up to three forms, each random or
    through one of the points."""
    n = draw(st.integers(1, 4))
    coords = st.lists(st.integers(-2, 2), min_size=n + 1, max_size=n + 1).filter(any)
    points = list(dict.fromkeys(ProjPoint(tuple(c)) for c in draw(st.lists(coords, min_size=1, max_size=3))))
    mults = draw(st.lists(st.integers(1, 4), min_size=len(points), max_size=len(points)))
    monomial = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    forms = []
    for through in draw(st.lists(st.sampled_from([None] + points), min_size=1, max_size=3)):
        if through is None:
            forms.append(LinearForm(tuple(draw(coords))))
            continue
        # q_k X_l - q_l X_k vanishes at q
        q = through.rep
        k = draw(st.sampled_from([i for i, x in enumerate(q) if x]))
        l = draw(st.sampled_from([i for i in range(n + 1) if i != k]))
        c = [0] * (n + 1)
        c[k], c[l] = -q[l], q[k]
        forms.append(LinearForm(tuple(c)))
    hyperplanes = draw(st.lists(st.sampled_from(forms), max_size=5))
    return n, points, mults, monomial, hyperplanes


@settings(max_examples=150, deadline=None)
@given(hyperplane_products())
# points on coordinate hyperplanes: X_1 X_2^2 vanishes to orders 1, 2 and 3
@example((2, [ProjPoint((1, 0, 1)), ProjPoint((1, 1, 0)), ProjPoint((1, 0, 0))], [1, 2, 3], (1, 2), []))
@example((2, [ProjPoint((1, 0, 1)), ProjPoint((1, 1, 0)), ProjPoint((1, 0, 0))], [1, 2, 4], (1, 2), []))
# one factor repeated m times, and m one higher
@example((3, [ProjPoint((0, 1, 2, 0)), ProjPoint((1, 1, 1, 0))], [3, 3], (0, 0, 0), [LinearForm((0, 0, 0, 1))] * 3))
@example((3, [ProjPoint((0, 1, 2, 0)), ProjPoint((1, 1, 1, 0))], [3, 4], (0, 0, 0), [LinearForm((0, 0, 0, 1))] * 3))
# m above the product's degree
@example((1, [ProjPoint((1, 0))], [4], (1,), [LinearForm((0, 1))] * 2))
def test_vanishing_orders_match_fat_ideal_membership(case):
    n, points, mults, monomial, hyperplanes = case
    z = FatPointScheme(n, tuple(points), tuple(mults))
    orders = vanishing_orders(monomial, hyperplanes, points, {})
    assert all(o >= m for o, m in zip(orders, mults)) == in_fat_ideal(expand(n, monomial, hyperplanes), z)


# ---------------------------------------------------------------------------
# removal recursion
# ---------------------------------------------------------------------------

def test_recursion_two_simple_points():
    z = FatPointScheme(2, (unit(2, 0), unit(2, 1)), (1, 1))
    assert regularity_index(z) == 1
    assert removal_recursion_check(z, 0)
    assert removal_recursion_check(z, 1)


def test_recursion_fat_plus_simple():
    z = FatPointScheme(2, (ProjPoint((1, 1, 0)), ProjPoint((1, 0, 1))), (3, 1))
    for i0 in range(2):
        assert removal_recursion_check(z, i0)


def test_recursion_on_seeded_schemes():
    rng = random.Random(404)
    for _ in range(12):
        n = rng.randint(1, 3)
        s = rng.randint(2, 4)
        pts = random_points(rng, n, s)
        z = FatPointScheme(n, tuple(pts), tuple(rng.randint(1, 3) for _ in range(s)))
        for i0 in range(s):
            assert removal_recursion_check(z, i0)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def general_simple_points(rng, n, count):
    from fatpoints.geometry import degeneracy_index

    while True:
        pts = random_points(rng, n, count, height=15)
        if span(pts).dim == min(count - 1, n) and degeneracy_index(pts) is None:
            return pts


def test_verdict_lemma24_class_is_tight():
    rng = random.Random(17)
    for n, s in [(2, 2), (3, 3), (3, 2)]:
        pts = general_simple_points(rng, n, s + 2)
        z = FatPointScheme(n, tuple(pts), tuple(rng.randint(1, 2) for _ in range(s + 2)))
        v = segre_verdict(z)
        assert v.hypothesis_class == "lemma24"
        assert v.holds and v.tight


def test_verdict_five_double_points():
    rng = random.Random(18)
    pts = general_simple_points(rng, 2, 5)
    z = FatPointScheme(2, tuple(pts), (2,) * 5)
    v = segre_verdict(z)
    assert v.hypothesis_class == "theorem34"
    assert v.holds
    assert v.reg == 5 and v.bound == 5


def test_verdict_outside_class():
    rng = random.Random(19)
    pts = general_simple_points(rng, 2, 6)
    z = FatPointScheme(2, tuple(pts), (1, 2, 1, 1, 2, 1))
    v = segre_verdict(z)
    assert v.hypothesis_class == "outside_proven_cases"
    assert v.reg >= 1 and v.bound >= 1


def test_classification_prefers_equality_family():
    rng = random.Random(20)
    pts = general_simple_points(rng, 3, 5)
    z = FatPointScheme(3, tuple(pts), (2,) * 5)
    # five points spanning P^3: both s+2 (s=3) and s+3 (s=2) hypotheses fit;
    # the equality family wins
    assert classify_scheme(z) == "lemma24"


# ---------------------------------------------------------------------------
# characterization: certificates are pinned byte for byte
# ---------------------------------------------------------------------------

def certificate_corpus(seed=0, count=90):
    """Seeded build_certificate inputs: a third prop43 schemes minus the
    point on their degenerate flat, two thirds random points of height 2
    with mixed multiplicities, so every strategy occurs often."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, 4)
        a = rng.randint(1, 3)
        if len(out) % 3 == 0:
            s = rng.randint(2, n)
            spec = PatternSpec(
                "prop43", n=n, s=s, m=rng.randint(1, 2), k=rng.randint(1, s - 1),
                seed=rng.randrange(1 << 30), height=5,
            )
            try:
                z = generate(spec)
            except GeneratorError:
                continue
            out.append((z.without_point(0), z.points[0], a, rng.randrange(1000)))
        else:
            size = rng.randint(2, n + 2)
            pts = random_points(rng, n, size + 1, height=2)
            mults = tuple(rng.randint(1, 3) for _ in range(size))
            out.append((FatPointScheme(n, tuple(pts[:-1]), mults), pts[-1], a, rng.randrange(1000)))
    return out


def test_certificates_match_pinned_digest():
    digest = hashlib.sha256()
    strategies = Counter()
    for j, p, a, seed in certificate_corpus():
        try:
            cert = build_certificate(j, p, a, seed=seed)
        except ConstructionError as exc:
            strategies["error"] += 1
            digest.update(f"error: {exc}\n".encode())
            continue
        strategies[cert.strategy] += 1
        digest.update(f"{cert!r}\n".encode())
    assert strategies == {"covering_hyperplane": 24, "split": 36, "single_group": 30}
    assert digest.hexdigest() == "5450d040196cf8ed44317a1d2c15fd68144d7eeb176cb0a17d4cfa114cde4d17"


def test_certificate_change_is_the_canonical_change_in_integer_rows():
    # L E for the reference E of frame_change, L = dot(change[0], p.rep) > 0:
    # E sends p to e_0 exactly, so row 0 of L E dots p.rep to L
    for j, p, a, seed in certificate_corpus():
        change = build_certificate(j, p, a, seed=seed).change
        size = j.n + 1
        assert len(change) == size
        assert all(len(row) == size and all(type(x) is int for x in row) for row in change)
        scale = sum(x * y for x, y in zip(change[0], p.rep))
        assert scale > 0
        reference, _ = canonical_change(j.n, [p.rep], [q.rep for q in j.points])
        assert [list(row) for row in change] == [[x * scale for x in r] for r in reference.to_rows()]


def expanding_verify(cert, j, p, a):
    """The plain check: expand each monomial times its hyperplane product
    into a form and test it against every derivative condition."""
    n = j.n
    origin = ProjPoint.unit(n, 0)
    delta = max((len(e.hyperplanes) + sum(e.monomial) for e in cert.entries), default=0)
    if cert.order != a or transform_point(cert.change, p) != origin:
        return False, delta
    needed = {mono for i in range(a) for mono in monomial_basis(i, n)}
    if needed - {e.monomial for e in cert.entries}:
        return False, delta
    moved = j.transform(cert.change)
    for e in cert.entries:
        if any(h.vanishes_at(origin) for h in e.hyperplanes):
            return False, delta
        if not in_fat_ideal(expand(n, e.monomial, e.hyperplanes), moved):
            return False, delta
    return True, delta


def test_verify_matches_expanding_verifier_on_corpus():
    strategies = Counter()
    rejected = 0
    for j, p, a, seed in certificate_corpus():
        cert = build_certificate(j, p, a, seed=seed)
        strategies[cert.strategy] += 1
        assert verify_certificate(cert, j, p, a) == expanding_verify(cert, j, p, a) == (True, cert.delta)
        longest = max(range(len(cert.entries)), key=lambda i: len(cert.entries[i].hyperplanes))
        short = drop_one_factor(cert, longest)
        ok, delta = verify_certificate(short, j, p, a)
        assert (ok, delta) == expanding_verify(short, j, p, a)
        rejected += not ok
    assert strategies == {"covering_hyperplane": 24, "split": 36, "single_group": 30}
    assert rejected == 89


# ---------------------------------------------------------------------------
# differential: the grouped construction against the per-monomial builder
# ---------------------------------------------------------------------------

def plain_distribute(points, avoid, mults, r, t, seed):
    """distribute_flats as one plain function: checks, scan, covering loop,
    every span computed afresh and every slot's coverage tested."""
    points = list(points)
    mults = [int(m) for m in mults]
    if not points or len(points) != len(mults):
        raise ValueError("points and multiplicities must be nonempty and aligned")
    if any(m < 1 for m in mults):
        raise ValueError("multiplicities must be positive")
    if not 1 <= r <= points[0].ambient_n:
        raise ValueError("r must be between 1 and the ambient dimension")
    if len(set(points)) != len(points):
        raise ValueError("points must be pairwise distinct")
    threshold = cover_threshold(mults, r)
    if t < threshold:
        raise ValueError(f"t={t} is below the admissible threshold {threshold}")
    for sub in combinations(range(len(points)), min(r, len(points))):
        if flat_contains(span([points[i] for i in sub]), avoid):
            raise ValueError(
                f"avoided point lies on the span of points {list(sub)}; "
                "the covering construction cannot proceed"
            )
    remaining = list(mults)
    flats = []
    step = 0
    while len(flats) < t:
        active = [i for i, m in enumerate(remaining) if m > 0]
        step += 1
        if len(active) <= r:
            base = span([points[i] for i in active])
            flats.extend([extend_flat_avoiding(base, r - 1, avoid, seed * 1009 + step)] * (t - len(flats)))
            break
        heavy = sorted(active, key=lambda i: (-remaining[i], i))[:r]
        base = span([points[i] for i in heavy])
        flats.append(extend_flat_avoiding(base, r - 1, avoid, seed * 1009 + step))
        for i in heavy:
            remaining[i] -= 1
    coverage = tuple(tuple(k for k, f in enumerate(flats) if flat_contains(f, p)) for p in points)
    for i, m in enumerate(mults):
        if len(coverage[i]) < m:
            raise ConstructionError(f"coverage of point {i} fell short ({len(coverage[i])} < {m})")
    return constructions.Distribution(tuple(flats), coverage)


def outcome(fn, *args):
    """repr of fn(*args), or the exception's type and message."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # compared, never swallowed: both sides must agree
        return f"{type(exc).__name__}: {exc}"


# P^3: the three heaviest points span a plane, then two points are left,
# whose line the last fill grows to a plane missing e_0
GROWN_LAST_FILL = (
    [unit(3, 1), unit(3, 2), unit(3, 3), ProjPoint((0, 1, 1, 1))], unit(3, 0), [2, 1, 1, 1], 3, 2, 5,
)
# the same, four flats where the threshold is two
ABOVE_THRESHOLD = GROWN_LAST_FILL[:4] + (4, 5)
# the avoided point on the line through points 0 and 1
AVOIDED_ON_A_SPAN = ([unit(3, 1), unit(3, 2), unit(3, 3)], ProjPoint((0, 1, 1, 0)), [1, 1, 1], 2, 2, 5)


def test_distribute_examples_reach_their_branches():
    points, avoid, mults, r, t, seed = GROWN_LAST_FILL
    with mock.patch.object(
        constructions, "extend_flat_avoiding", wraps=extend_flat_avoiding
    ) as grow:
        d = distribute_flats(*GROWN_LAST_FILL)
    assert [c.args[:2] for c in grow.call_args_list] == [(span([points[0], points[3]]), 2)]
    assert d.flats[-1].dim == 2
    assert ABOVE_THRESHOLD[4] > cover_threshold(ABOVE_THRESHOLD[2], ABOVE_THRESHOLD[3])
    with pytest.raises(ValueError, match=r"span of points \[0, 1\]"):
        distribute_flats(*AVOIDED_ON_A_SPAN)


@st.composite
def distribute_cases(draw):
    """distribute_flats arguments in P^n, n 2..4: 1..n+2 distinct points of
    height 2, an avoided point drawn at random or planted on the line
    through two of them, multiplicities 1..3, r 1..n and t from one below
    the threshold to two above it."""
    n = draw(st.integers(2, 4))
    coords = st.lists(st.integers(-2, 2), min_size=n + 1, max_size=n + 1).filter(any)
    size = draw(st.integers(1, n + 2))
    points = list(dict.fromkeys(ProjPoint(tuple(draw(coords))) for _ in range(size)))
    avoid = ProjPoint(tuple(draw(coords)))
    if len(points) >= 2 and draw(st.booleans()):
        q, w = draw(st.permutations(points))[:2]
        c = draw(st.sampled_from([1, -1, 2]))
        planted = [x + c * y for x, y in zip(q.rep, w.rep)]
        if any(planted):
            avoid = ProjPoint(tuple(planted))
    mults = draw(st.lists(st.integers(1, 3), min_size=len(points), max_size=len(points)))
    r = draw(st.integers(1, n))
    t = cover_threshold(mults, r) + draw(st.integers(-1, 2))
    return points, avoid, mults, r, t, draw(st.integers(0, 999))


@settings(max_examples=150, deadline=None)
@given(distribute_cases())
@example(GROWN_LAST_FILL)
@example(ABOVE_THRESHOLD)
@example(AVOIDED_ON_A_SPAN)
def test_distribute_flats_matches_plain_distribute(case):
    assert outcome(distribute_flats, *case) == outcome(plain_distribute, *case)


def per_monomial_grouped(moved, origin, monomials, seed, groups):
    """The plain grouped loop: per monomial, one plain_distribute per group,
    each slot's join spanned afresh and lifted through
    hyperplane_containing_avoiding; returns (entries, delta)."""
    entries = []
    delta = 0
    for index, mono in enumerate(monomials):
        adjusted = [
            max(0, m - constructions._monomial_order_at(mono, q))
            for q, m in zip(moved.points, moved.mults)
        ]
        covers = []
        for g, (members, r) in enumerate(groups):
            left = [i for i in members if adjusted[i] > 0]
            if left:
                covers.append((g, left, r))
        t = max((cover_threshold([adjusted[i] for i in left], r) for _, left, r in covers), default=0)
        dists = [
            plain_distribute(
                [moved.points[i] for i in left],
                origin,
                [adjusted[i] for i in left],
                r,
                t,
                constructions._entry_seed(seed, index, g),
            )
            for g, left, r in covers
        ]
        hyperplanes = []
        for slot in range(t):
            f = Flat(moved.n, [v for d in dists for v in d.flats[slot].integer_rows])
            if flat_contains(f, origin) or f.dim > moved.n - 1:
                raise ConstructionError("no hyperplane through the flat avoids the origin")
            hyperplanes.append(hyperplane_containing_avoiding(f, origin))
        entries.append(CertificateEntry(mono, tuple(hyperplanes)))
        delta = max(delta, t + sum(mono))
    return tuple(entries), delta


def per_monomial_covering(moved):
    """The hyperplane through the span of all the points, by its normals, or None."""
    everything = span(list(moved.points))
    origin = unit(moved.n, 0)
    if everything.dim > moved.n - 1 or flat_contains(everything, origin):
        return None
    return hyperplane_containing_avoiding(everything, origin)


def build_outcome(j, p, a, seed):
    """repr of the certificate, or the exception's type and message."""
    try:
        return repr(build_certificate(j, p, a, seed=seed))
    except Exception as exc:  # compared, never swallowed: both sides must agree
        return f"{type(exc).__name__}: {exc}"


def reference_outcome(j, p, a, seed):
    with mock.patch.object(constructions, "_grouped_entries", per_monomial_grouped), \
            mock.patch.object(constructions, "_covering_hyperplane", per_monomial_covering):
        return build_outcome(j, p, a, seed)


def test_grouped_construction_matches_per_monomial_builder_on_corpus():
    for j, p, a, seed in certificate_corpus():
        assert build_outcome(j, p, a, seed) == reference_outcome(j, p, a, seed)


@st.composite
def grouped_instances(draw):
    """n 2..4, a point p and 2..n+2 distinct points of height 2, some moved
    onto the line through p and an earlier point (p + c q), so that split
    and single-group builds both occur; multiplicities 1..3, a 1..3."""
    n = draw(st.integers(2, 4))
    coords = st.lists(st.integers(-2, 2), min_size=n + 1, max_size=n + 1).filter(any)
    p = ProjPoint(tuple(draw(coords)))
    size = draw(st.integers(2, n + 2))
    pts = []
    for _ in range(size):
        c = draw(st.sampled_from([0, 1, -1, 2])) if pts else 0
        if c:
            q = pts[draw(st.integers(0, len(pts) - 1))].rep
            cand = [x + c * y for x, y in zip(p.rep, q)]
        else:
            cand = draw(coords)
        if any(cand) and ProjPoint(tuple(cand)) not in pts + [p]:
            pts.append(ProjPoint(tuple(cand)))
    assume(len(pts) >= 2)
    mults = tuple(draw(st.lists(st.integers(1, 3), min_size=len(pts), max_size=len(pts))))
    a = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 999))
    return FatPointScheme(n, tuple(pts), mults), p, a, seed


@settings(max_examples=80, deadline=None)
@given(grouped_instances())
def test_grouped_construction_matches_per_monomial_builder(case):
    j, p, a, seed = case
    assert build_outcome(j, p, a, seed) == reference_outcome(j, p, a, seed)


def scan_single_group(j, p):
    """The scan that build_certificate skips on its single group, run on it:
    raises ValueError if a span of r of the moved points holds the origin."""
    change, _ = constructions._normalizing_change(j, p)
    moved = j.transform(change)
    origin = unit(j.n, 0)
    r = constructions._single_group_dim(spanned_flats([*moved.points, origin]), j.n)
    constructions._scan_avoiding(list(moved.points), origin, r, {})


def test_single_group_scan_passes_on_corpus():
    strategies = Counter()
    for j, p, a, seed in certificate_corpus():
        scan_single_group(j, p)
        strategies[build_certificate(j, p, a, seed=seed).strategy] += 1
    assert strategies["single_group"] == 30


@settings(max_examples=80, deadline=None)
@given(grouped_instances())
def test_single_group_scan_passes(case):
    j, p, _, _ = case
    scan_single_group(j, p)


@st.composite
def points_on_spans_through_the_origin(draw):
    """1..6 distinct points of P^n, n 1..5, none of them the origin e_0:
    each point after the first is drawn at random or planted on the span of
    e_0 and one to three points drawn before it."""
    n = draw(st.integers(1, 5))
    origin = unit(n, 0)
    coordinate = st.integers(-3, 3)
    vec = st.lists(coordinate, min_size=n + 1, max_size=n + 1).filter(any)
    vecs = [draw(vec)]
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            base = [origin.rep] + draw(st.lists(st.sampled_from(vecs), min_size=1, max_size=3))
            weights = draw(st.lists(coordinate, min_size=len(base), max_size=len(base)))
            v = [sum(w * b[j] for w, b in zip(weights, base)) for j in range(n + 1)]
            if any(v):
                vecs.append(v)
        else:
            vecs.append(draw(vec))
    pts = [q for q in dict.fromkeys(ProjPoint(tuple(v)) for v in vecs) if q != origin]
    assume(pts)
    return n, pts


@settings(max_examples=300, deadline=None)
@given(points_on_spans_through_the_origin())
@example((1, [ProjPoint((1, 1))]))  # n = 1, s = 1
@example((3, [ProjPoint((0, 1, 0, 0))]))  # s = 1 in P^3
@example((2, [ProjPoint((1, 1, 0)), unit(2, 1), unit(2, 2)]))  # a line through e_0: r = 1
@example((3, [ProjPoint((1, 1, 1, 0)), unit(3, 1), unit(3, 2), unit(3, 3)]))  # a plane: r = 2
def test_single_group_dim_matches_downward_scan(case):
    """r read off the flats of the points and e_0 equals the largest r whose
    spans of r points all miss e_0, found by the downward scan."""
    n, pts = case
    origin = unit(n, 0)
    flats = spanned_flats([*pts, origin])
    assert constructions._single_group_dim(flats, n) == single_group_dim_by_scan(pts, origin, n)
