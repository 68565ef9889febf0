"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every criterion prints a single PASS/FAIL line (visible with ``pytest -s``
or in failure output).  All comparisons are exact integer comparisons;
there are no numeric tolerances anywhere.

Criterion 8 checks ``rank_rows``, which asks every rank mod p first,
against Gaussian elimination in ``Fraction``s (``oracles.plain_rank``): a
modular rank is reported only when it equals min(rows, cols), which
proves it, so it changes running time, never values.
"""

import json
import logging
import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, cycle
from math import comb

from fatpoints import linalg
from fatpoints.constructions import (
    build_certificate,
    cover_threshold,
    distribute_flats,
    removal_recursion_check,
    segre_verdict,
    verify_certificate,
)
from fatpoints.generators import PatternSpec, generate
from fatpoints.geometry import ProjPoint, flat_contains, span
from fatpoints.harness import batch_check
from fatpoints.linalg import rank_rows
from fatpoints.schemes import (
    FatPointScheme,
    artinian_quotient_regularity,
    hilbert_function,
    monomial_bound_check,
    multiplicity,
    regularity_index,
)
from fatpoints.segre import segre_bound
from oracles import ideal_basis, plain_rank, random_invertible_change


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({title}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({title}): PASS")


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
# 1. equality family: regularity equals the bound on s+2 points
# ---------------------------------------------------------------------------

def test_criterion_1_lemma24_equality():
    with criterion(1, "lemma24 equality on 100 seeded schemes"):
        combos = [(n, s) for n in (2, 3, 4) for s in range(1, n + 1)]
        tight = 0
        for trial in range(100):
            n, s = combos[trial % len(combos)]
            rng = random.Random(9000 + trial)
            mults = tuple(rng.randint(1, 3) for _ in range(s + 2))
            spec = PatternSpec("lemma24", n=n, s=s, mults=mults, seed=9000 + trial, height=9)
            z = generate(spec)
            v = segre_verdict(z)
            assert v.hypothesis_class == "lemma24"
            assert v.reg == v.bound, (
                f"trial {trial}: reg {v.reg} != bound {v.bound} (n={n}, s={s}, mults={mults})"
            )
            # reg's curve bound and the Segre bound read the same flats, so
            # tightness is also checked without them: H(reg - 1) < e by elimination
            assert hilbert_function(z, v.reg - 1) < multiplicity(z), (
                f"trial {trial}: H({v.reg - 1}) reaches e (n={n}, s={s}, mults={mults})"
            )
            tight += 1
        assert tight == 100


# ---------------------------------------------------------------------------
# 2. bound family: regularity never exceeds the bound on s+3 points
# ---------------------------------------------------------------------------

def test_criterion_2_theorem34_bound():
    with criterion(2, "theorem34 bound on 200 seeded schemes"):
        trials = []
        combos34 = [(n, s) for n in (2, 3, 4) for s in range(1, n + 1)]
        ms = cycle((1, 2, 3))
        for i in range(100):
            n, s = combos34[i % len(combos34)]
            trials.append(PatternSpec("theorem34", n=n, s=s, m=next(ms), seed=20000 + i, height=9))
        combos43 = [(n, s) for n in (2, 3, 4) for s in range(2, n + 1)]
        for i in range(50):
            n, s = combos43[i % len(combos43)]
            rng = random.Random(21000 + i)
            k = rng.randint(1, s - 1)
            trials.append(
                PatternSpec("prop43", n=n, s=s, m=next(ms), k=k, seed=21000 + i, height=9)
            )
        combos42 = [(3, 3), (4, 3), (4, 4)]
        for i in range(50):
            n, s = combos42[i % len(combos42)]
            trials.append(PatternSpec("lem42", n=n, s=s, m=next(ms), seed=22000 + i, height=9))

        assert len(trials) == 200
        violations = 0
        for spec in trials:
            z = generate(spec)
            v = segre_verdict(z)
            if not v.holds:
                violations += 1
                print(f"violation: {spec}")
        assert violations == 0


# ---------------------------------------------------------------------------
# 3. removal recursion
# ---------------------------------------------------------------------------

def test_criterion_3_removal_recursion():
    with criterion(3, "removal recursion on 50 seeded schemes, all removals"):
        checked = 0
        for trial in range(50):
            rng = random.Random(3000 + trial)
            n = rng.randint(1, 3)
            s = rng.randint(2, 5) if n > 1 else rng.randint(2, 4)
            pts = random_points(rng, n, s)
            mults = tuple(rng.randint(1, 3) for _ in range(s))
            z = FatPointScheme(n, tuple(pts), mults)
            for i0 in range(s):
                assert removal_recursion_check(z, i0), (
                    f"trial {trial}: recursion failed at removal {i0} "
                    f"(n={n}, s={s}, mults={mults})"
                )
                checked += 1
        assert checked >= 100


# ---------------------------------------------------------------------------
# 4. monomial criterion is a two-sided oracle for the artinian regularity
# ---------------------------------------------------------------------------

def test_criterion_4_monomial_criterion_iff():
    with criterion(4, "monomial criterion iff on 30 seeded instances"):
        done = 0
        trial = 0
        while done < 30:
            rng = random.Random(4000 + trial)
            trial += 1
            n = rng.randint(1, 3)
            s = rng.randint(1, 4)
            pts = random_points(rng, n, s + 1)
            j = FatPointScheme(n, tuple(pts[:s]), tuple(rng.randint(1, 3) for _ in range(s)))
            p = pts[s]
            a = rng.randint(1, 3)
            b = artinian_quotient_regularity(j, p, a)
            assert monomial_bound_check(j, p, a, b)
            if b - 1 >= a - 1:
                assert not monomial_bound_check(j, p, a, b - 1)
            done += 1


# ---------------------------------------------------------------------------
# 5. covering distributions
# ---------------------------------------------------------------------------

def test_criterion_5_distribution_postconditions():
    with criterion(5, "100 seeded distributions + 1000 threshold spot checks"):
        rng = random.Random(5000)
        done = 0
        while done < 100:
            n = rng.randint(2, 4)
            s = rng.randint(1, 5)
            r = rng.randint(1, n)
            pts = random_points(rng, n, s + 1)
            avoid = pts[s]
            mults = [rng.randint(1, 3) for _ in range(s)]
            t = cover_threshold(mults, r) + rng.randint(0, 1)
            try:
                dist = distribute_flats(pts[:s], avoid, mults, r, t, seed=5000 + done)
            except ValueError:
                continue
            assert len(dist.flats) == t
            for f in dist.flats:
                assert f.dim == r - 1
                assert not flat_contains(f, avoid)
            for idx, m in enumerate(mults):
                assert len(dist.coverage[idx]) >= m
            done += 1

        check = random.Random(5555)
        for _ in range(1000):
            s = check.randint(1, 9)
            mults = [check.randint(1, 6) for _ in range(s)]
            r = check.randint(1, 6)
            total, biggest = 0, 0
            for m in mults:
                total += m
                if m > biggest:
                    biggest = m
            independent = biggest if biggest * r > total + r - 1 - ((total + r - 1) % r) else max(
                biggest, (total + r - 1) // r
            )
            assert cover_threshold(mults, r) == max(biggest, (total + r - 1) // r) == independent


# ---------------------------------------------------------------------------
# 6. certificate soundness
# ---------------------------------------------------------------------------

def _case1_instance(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    count = rng.randint(2, 5)
    m = rng.randint(1, 3)
    pts = []
    while len(pts) < count:
        coords = [rng.randint(-5, 5) for _ in range(n)] + [0]
        if any(coords):
            p = ProjPoint(tuple(Fraction(c) for c in coords))
            if p not in pts:
                pts.append(p)
    p_off = ProjPoint(tuple(Fraction(rng.randint(1, 5)) for _ in range(n + 1)))
    return FatPointScheme(n, tuple(pts), (m,) * count), p_off, m


def _case21_instance(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    s = rng.randint(2, n)
    m = rng.randint(1, 3)
    k = rng.randint(1, s - 1)
    z = generate(PatternSpec("prop43", n=n, s=s, m=m, k=k, seed=seed, height=9))
    # the planted degenerate flat passes through the first k+2 points;
    # remove one of them so the distinguished point sits on that flat
    i0 = 0
    rest = z.without_point(i0)
    return rest, z.points[i0], m


def test_criterion_6_certificate_soundness():
    with criterion(6, "certificates verify and delta bounds the artinian regularity"):
        split_seen = 0
        covering_seen = 0
        for idx in range(15):
            j, p, a = _case1_instance(6100 + idx)
            cert = build_certificate(j, p, a, seed=6100 + idx)
            ok, delta = verify_certificate(cert, j, p, a)
            assert ok
            assert cert.strategy == "covering_hyperplane"
            covering_seen += 1
            assert artinian_quotient_regularity(j, p, a) <= delta
        for idx in range(15):
            j, p, a = _case21_instance(6200 + idx)
            cert = build_certificate(j, p, a, seed=6200 + idx)
            ok, delta = verify_certificate(cert, j, p, a)
            assert ok
            if cert.strategy == "split":
                split_seen += 1
            assert artinian_quotient_regularity(j, p, a) <= delta
        assert covering_seen == 15
        assert split_seen >= 8, f"split construction exercised only {split_seen} times"


# ---------------------------------------------------------------------------
# 7. Hilbert oracles
# ---------------------------------------------------------------------------

def test_criterion_7_hilbert_oracles():
    with criterion(7, "Hilbert function oracles"):
        # (a) one fat point
        for n in range(1, 5):
            for m in range(1, 6):
                coords = tuple(Fraction(1) for _ in range(n + 1))
                z = FatPointScheme(n, (ProjPoint(coords),), (m,))
                for t in range(m):
                    assert hilbert_function(z, t) == comb(t + n, n)
                assert regularity_index(z) == m - 1

        # (b) general simple points
        for seed, (n, s) in enumerate([(2, 4), (2, 8), (3, 6)]):
            rng = random.Random(7100 + seed)
            while True:
                pts = random_points(rng, n, s, height=30)
                if span(pts).dim == n and all(
                    span(list(sub)).dim == min(len(sub) - 1, n)
                    for q in range(2, min(s, n + 2) + 1)
                    for sub in combinations(pts, q)
                ):
                    break
            z = FatPointScheme(n, tuple(pts), (1,) * s)
            for t in range(s + 1):
                assert hilbert_function(z, t) == min(comb(t + n, n), s)

        # (c) five general double points in the plane
        rng = random.Random(7300)
        while True:
            pts = random_points(rng, 2, 5, height=15)
            if span(pts).dim == 2 and all(
                span(list(sub)).dim == 2 for sub in combinations(pts, 3)
            ):
                break
        z = FatPointScheme(2, tuple(pts), (2,) * 5)
        assert multiplicity(z) == 15
        report = segre_bound(z)
        assert regularity_index(z) == 5
        assert report.bound == 5
        assert len(ideal_basis(z, 4)) == 1


# ---------------------------------------------------------------------------
# 8. mod-p first ranks versus rational arithmetic
# ---------------------------------------------------------------------------

def test_criterion_8_cross_arithmetic_consistency(caplog):
    with criterion(8, "mod-p first ranks agree with rational ranks on 100 matrices"):
        p1 = linalg.MODULAR_PRIME
        rng = random.Random(8000)
        linalg.reset_modular_stats()
        planted = 0
        with caplog.at_level(logging.WARNING, logger="fatpoints.linalg"):
            for idx in range(100):
                nr = rng.randint(1, 7)
                nc = rng.randint(1, 7)
                rows = [
                    [Fraction(rng.randint(-50, 50)) for _ in range(nc)] for _ in range(nr)
                ]
                if idx % 10 == 0 and nc >= 2:
                    # plant a guaranteed rank drop modulo the published prime
                    # that row scaling cannot remove
                    top = [Fraction(1)] * nc
                    bottom = [Fraction(1)] * nc
                    bottom[0] += p1
                    rows = [top, bottom]
                    planted += 1
                assert rank_rows(rows, nc) == plain_rank(rows, nc)
        stats = linalg.modular_stats()
        assert planted > 0
        assert stats["disagreements"] >= planted
        assert any("disagreed" in rec.message for rec in caplog.records)


# ---------------------------------------------------------------------------
# 9. determinism and invariance
# ---------------------------------------------------------------------------

def test_criterion_9_determinism_and_invariance():
    with criterion(9, "byte-identical reports; invariance under projectivities"):
        spec = PatternSpec("theorem34", n=2, s=2, m=2, height=9)
        first = batch_check(spec, trials=8, base_seed=900, workers=1).to_json()
        second = batch_check(spec, trials=8, base_seed=900, workers=1).to_json()
        third = batch_check(spec, trials=8, base_seed=900, workers=3).to_json()
        assert first == second == third
        json.loads(first)  # serialized form is valid JSON

        rng = random.Random(9900)
        for scheme_idx in range(10):
            n = rng.randint(2, 3)
            s = rng.randint(2, 4)
            pts = random_points(rng, n, s)
            mults = tuple(rng.randint(1, 2) for _ in range(s))
            z = FatPointScheme(n, tuple(pts), mults)
            reg0 = regularity_index(z)
            bound0 = segre_bound(z).bound
            for _ in range(20):
                change = random_invertible_change(n, rng)
                order = list(range(s))
                rng.shuffle(order)
                moved = z.transform(change).permuted(order)
                assert regularity_index(moved) == reg0
                assert segre_bound(moved).bound == bound0
