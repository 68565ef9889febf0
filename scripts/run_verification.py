#!/usr/bin/env python3
"""End-to-end verification battery over seeded random configurations.

Runs, at configurable scale:

* the equality family (s+2 points off any (s-1)-flat): regularity index
  must equal the Segre-type bound in every trial;
* the bound family (s+3 equimultiple points off any (s-1)-flat),
  including the two degenerate incidence patterns: the bound must hold;
* the Segre flats: on random point sets with planted collinear and
  coplanar points, the T_j table of ``segre_bound`` and the degeneracy
  index against a scan of every subset by the rank of its points' reps;
* the regularity index in the span: random schemes of P^d embedded in
  P^n by random injective integer maps, ``regularity_index`` (which scans
  P^d) against a scan of P^n through ``hilbert_function``;
* the removal recursion on random schemes, every removal choice;
* the monomial criterion as a two-sided oracle: it holds at the artinian
  regularity and fails one degree below it;
* certificate construction and verification, with the independently
  computed artinian regularity as the soundness reference, and each
  certificate's change made singular (rows 1..n zeroed), which must
  verify false without raising.

Exit code 0 when every battery is clean, 2 otherwise (and, as usual for
argparse, on a usage error such as ``--trials 0``).  A battery that raises
is reported with its exception and counted as failed; the later batteries
still run.
"""

from __future__ import annotations

import argparse
import logging
import random
import sys
import time
import traceback
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

from fatpoints import linalg
from fatpoints.constructions import (
    build_certificate,
    removal_recursion_check,
    verify_certificate,
)
from fatpoints.generators import PatternSpec
from fatpoints.geometry import ProjPoint, degeneracy_index
from fatpoints.harness import batch_check
from fatpoints.schemes import (
    FatPointScheme,
    artinian_quotient_regularity,
    hilbert_function,
    monomial_bound_check,
    multiplicity,
    regularity_index,
)
from fatpoints.segre import segre_bound


def batch_battery(name, spec, trials, seed, expect_tight):
    t0 = time.time()
    report = batch_check(spec, trials=trials, base_seed=seed)
    elapsed = time.time() - t0
    bad = report.violations
    if expect_tight:
        bad += sum(1 for r in report.results if r.tight is False)
    status = "ok" if bad == 0 else f"{bad} PROBLEMS"
    print(
        f"  {name:<34} trials={trials:<4} violations={report.violations} "
        f"errors={report.generator_errors} max_reg={report.to_obj()['aggregates']['max_reg']} "
        f"[{elapsed:5.1f}s] {status}"
    )
    return bad == 0


def random_points(rng, n, count):
    pts = []
    while len(pts) < count:
        coords = [rng.randint(-9, 9) for _ in range(n + 1)]
        if any(coords):
            p = ProjPoint(tuple(Fraction(c) for c in coords))
            if p not in pts:
                pts.append(p)
    return pts


def planted_points(rng, n, count):
    """Distinct points, each after the second, with probability 1/2, a
    combination of two or three points drawn before it."""
    pts = []
    while len(pts) < count:
        if len(pts) >= 2 and rng.random() < 0.5:
            base = rng.sample(pts, min(len(pts), rng.randint(2, 3)))
            weights = [rng.randint(-3, 3) for _ in base]
            coords = [sum(w * b.rep[i] for w, b in zip(weights, base)) for i in range(n + 1)]
        else:
            coords = [rng.randint(-9, 9) for _ in range(n + 1)]
        if any(coords):
            p = ProjPoint(tuple(Fraction(c) for c in coords))
            if p not in pts:
                pts.append(p)
    return pts


def segre_flats_battery(name, trials, base_seed):
    t0 = time.time()
    failures = 0
    for trial in range(trials):
        rng = random.Random(base_seed + trial)
        n = rng.randint(1, 4)
        s = rng.randint(1, 7)
        pts = planted_points(rng, n, s)
        z = FatPointScheme(n, tuple(pts), tuple(rng.randint(1, 3) for _ in range(s)))
        # every nonempty subset, spanned by rank
        dims = {
            sub: linalg.rank_rows([pts[i].rep for i in sub], n + 1) - 1
            for size in range(1, s + 1)
            for sub in combinations(range(s), size)
        }
        want = []
        for j in range(1, n + 1):
            q = max(sum(z.mults[i] for i in sub) for sub, d in dims.items() if d <= j)
            want.append((q, (q + j - 2) // j))
        top = dims[tuple(range(s))]
        degeneracy = next(
            (h for h in range(1, top) if any(dims[sub] <= h for sub in combinations(range(s), h + 2))),
            None,
        )
        got = [(e.total_mult, e.value) for e in segre_bound(z).entries]
        if got != want or degeneracy_index(pts) != degeneracy:
            failures += 1
            print(f"    segre flats failed: seed={base_seed + trial}")
    elapsed = time.time() - t0
    print(f"  {name:<34} trials={trials:<4} failures={failures} [{elapsed:5.1f}s]")
    return failures == 0


def span_regularity_battery(name, trials, base_seed):
    t0 = time.time()
    failures = 0
    for trial in range(trials):
        rng = random.Random(base_seed + trial)
        d = rng.randint(0, 3)
        n = rng.randint(max(d, 1), 4)
        reps = [p.rep for p in planted_points(rng, d, 1 if d == 0 else rng.randint(1, 6))]
        while True:  # an injective map Q^(d+1) -> Q^(n+1)
            embedding = [[rng.randint(-5, 5) for _ in range(d + 1)] for _ in range(n + 1)]
            if linalg.rank_rows(embedding, d + 1) == d + 1:
                break
        pts = [ProjPoint(tuple(sum(a * x for a, x in zip(row, rep)) for row in embedding)) for rep in reps]
        z = FatPointScheme(n, tuple(pts), tuple(rng.randint(1, 3) for _ in pts))
        # the least t from max(m_i) - 1 on with H(t) = e in P^n
        e, t = multiplicity(z), max(z.mults) - 1
        while hilbert_function(z, t) != e:
            t += 1
        if regularity_index(z) != t:
            failures += 1
            print(f"    span regularity failed: seed={base_seed + trial} d={d} n={n}")
    elapsed = time.time() - t0
    print(f"  {name:<34} trials={trials:<4} failures={failures} [{elapsed:5.1f}s]")
    return failures == 0


def recursion_battery(name, trials, base_seed):
    t0 = time.time()
    failures = 0
    for trial in range(trials):
        rng = random.Random(base_seed + trial)
        n = rng.randint(1, 3)
        s = rng.randint(2, 5)
        pts = random_points(rng, n, s)
        z = FatPointScheme(n, tuple(pts), tuple(rng.randint(1, 3) for _ in range(s)))
        for i0 in range(s):
            if not removal_recursion_check(z, i0):
                failures += 1
                print(f"    recursion failed: seed={base_seed + trial} removal={i0}")
    elapsed = time.time() - t0
    print(f"  {name:<34} trials={trials:<4} failures={failures} [{elapsed:5.1f}s]")
    return failures == 0


def monomial_battery(name, trials, base_seed):
    t0 = time.time()
    failures = 0
    for trial in range(trials):
        rng = random.Random(base_seed + trial)
        n = rng.randint(1, 3)
        s = rng.randint(2, 5)
        pts = random_points(rng, n, s + 1)
        j = FatPointScheme(n, tuple(pts[:s]), tuple(rng.randint(1, 3) for _ in range(s)))
        p, a = pts[s], rng.randint(1, 3)
        b = artinian_quotient_regularity(j, p, a)
        below = monomial_bound_check(j, p, a, b - 1) if b - 1 >= a - 1 else False
        if not monomial_bound_check(j, p, a, b) or below:
            failures += 1
            print(f"    monomial criterion failed: seed={base_seed + trial}")
    elapsed = time.time() - t0
    print(f"  {name:<34} trials={trials:<4} failures={failures} [{elapsed:5.1f}s]")
    return failures == 0


def certificate_battery(name, trials, base_seed):
    t0 = time.time()
    failures = 0
    log = logging.getLogger("fatpoints.constructions")
    for trial in range(trials):
        rng = random.Random(base_seed + trial)
        n = rng.randint(2, 4)
        count = rng.randint(2, 4)
        m = rng.randint(1, 3)
        pts = random_points(rng, n, count + 1)
        j = FatPointScheme(n, tuple(pts[:count]), (m,) * count)
        p = pts[count]
        cert = build_certificate(j, p, m, seed=base_seed + trial)
        ok, delta = verify_certificate(cert, j, p, m)
        if not ok or artinian_quotient_regularity(j, p, m) > delta:
            failures += 1
            print(f"    certificate failed: seed={base_seed + trial}")
        # rows 1..n zeroed: p still goes to the origin, the change is singular;
        # the rejection's expected warning is kept off stderr
        singular = (cert.change[0],) + ((0,) * (n + 1),) * n
        log.disabled = True
        try:
            tampered_ok, _ = verify_certificate(replace(cert, change=singular), j, p, m)
        except ValueError as exc:
            tampered_ok = f"raised {exc}"
        finally:
            log.disabled = False
        if tampered_ok is not False:
            failures += 1
            print(f"    singular change not rejected ({tampered_ok}): seed={base_seed + trial}")
    elapsed = time.time() - t0
    print(f"  {name:<34} trials={trials:<4} failures={failures} [{elapsed:5.1f}s]")
    return failures == 0


def run_battery(battery, name, *args, **kwargs):
    """Run one battery; an exception from the code under test fails it, not the run."""
    try:
        return battery(name, *args, **kwargs)
    except Exception as exc:  # any exception is a finding about the code under test
        traceback.print_exc(file=sys.stdout)
        print(f"  {name:<34} raised {type(exc).__name__}: {exc}  PROBLEMS")
        return False


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=50, help="trials per battery")
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument("--height", type=int, default=9, help="coordinate height bound")
    args = parser.parse_args()
    if args.trials < 1:
        parser.error("--trials must be at least 1")

    trials = args.trials
    h = args.height
    print(f"verification batteries: trials={trials}, base_seed={args.seed}, height={h}")

    all_ok = True
    print("equality family (regularity == bound):")
    all_ok &= run_battery(
        batch_battery,
        "s+2 points, mixed multiplicities",
        PatternSpec("lemma24", n=3, s=2, mults=(2, 1, 3, 1), height=h),
        trials,
        args.seed,
        expect_tight=True,
    )
    print("bound family (regularity <= bound):")
    for name, spec in [
        ("s+3 equimultiple, generic", PatternSpec("theorem34", n=3, s=3, m=2, height=h)),
        ("planted degenerate flat", PatternSpec("prop43", n=3, s=3, m=2, k=1, height=h)),
        ("two witness flats", PatternSpec("lem42", n=4, s=3, m=2, height=h)),
    ]:
        all_ok &= run_battery(batch_battery, name, spec, trials, args.seed, expect_tight=False)
    print("cross-verifiers:")
    for name, battery, offset in [
        ("segre flats by subset scan", segre_flats_battery, 40_000),
        ("regularity in the span vs P^n", span_regularity_battery, 50_000),
        ("removal recursion", recursion_battery, 10_000),
        ("monomial criterion, two-sided", monomial_battery, 30_000),
        ("certificate soundness", certificate_battery, 20_000),
    ]:
        all_ok &= run_battery(battery, name, max(10, trials // 2), args.seed + offset)

    print("overall:", "clean" if all_ok else "PROBLEMS FOUND")
    return 0 if all_ok else 2


if __name__ == "__main__":
    sys.exit(main())
