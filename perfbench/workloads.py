"""The benchmark's workloads: inputs made from a seed, one item, its check.

A workload hands out its inputs in rounds.  Every round holds the same
cells (pattern, dimension, point count, multiplicity), and the seed only
draws what the cells leave open: coordinates, and for ``verdict_mix`` the
multiplicities and degeneracies the acceptance criteria draw at random.  A
run always measures whole rounds, so each run has the same mix of item
sizes; that keeps the heavy-tailed item times comparable from seed to
seed.

Every call into the package goes through a module attribute
(``harness.batch_check``, ``schemes.monomial_bound_check``, ...) at call
time, so the timing wrappers that ``tracing`` installs on those attributes
see each call.
"""

from __future__ import annotations

import random
from fractions import Fraction

from fatpoints import constructions, generators, harness, schemes
from fatpoints.geometry import ProjPoint

HEIGHT = 9

# A scheme of one of these cells takes 2-12 s on a 2-CPU VM, so a few of
# them would decide a 30 s run on their own.  The other m = 3 cells of the
# largest n still put elimination in the tail.
VERDICT_SKIPPED = {("prop43", 4, 3, 3), ("prop43", 4, 4, 3)}
ARTINIAN_SKIPPED = {(3, 4, 3), (3, 5, 3)}

# The (n, s) each pattern cycles through in acceptance criteria 1 and 2,
# and how many items of each pattern a round holds.  Criterion 1 runs 100
# lemma24 schemes, criterion 2 100 theorem34, 50 prop43 and 50 lem42, so a
# round holds them 2:2:1:1 too.
VERDICT_PATTERNS = {
    "lemma24": ([(n, s) for n in (2, 3, 4) for s in range(1, n + 1)], 54),
    "theorem34": ([(n, s) for n in (2, 3, 4) for s in range(1, n + 1)], 54),
    "prop43": ([(n, s) for n in (2, 3, 4) for s in range(2, n + 1)], 27),
    "lem42": ([(3, 3), (4, 3), (4, 4)], 27),
}


def _rng(*parts: int) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _mults(count: int, m: int) -> tuple[int, ...]:
    """m, m-1, ..., 1, m, ...: mixed multiplicities with a fixed total."""
    return tuple(m - k % m for k in range(count))


def _random_points(rng: random.Random, n: int, count: int, height: int = HEIGHT) -> list[ProjPoint]:
    pts: list[ProjPoint] = []
    while len(pts) < count:
        coords = [rng.randint(-height, height) for _ in range(n + 1)]
        if any(coords):
            p = ProjPoint(tuple(Fraction(c) for c in coords))
            if p not in pts:
                pts.append(p)
    return pts


class VerdictMix:
    """Criterion 1+2 traffic: one ``batch_check`` call per generated scheme,
    with the default single worker.

    A round holds lemma24, theorem34, prop43 and lem42 schemes 2:2:1:1, as
    the two criteria do, and every round has the same cells.  Each pattern
    walks through its (n, s) list once for m = 1, then for m = 2 and m = 3,
    stepping over the skipped cells; it wraps round at the end of its list
    and starts afresh each round.  So a round holds every theorem34 and
    lem42 cell equally often; lemma24 has no m; prop43's 27 items are its
    16 cells and then its first 11.  The seed draws the rest, as the criteria do:
    the lemma24 multiplicities (1..3 per point), prop43's planted
    degeneracy k, and each scheme's points.
    """

    name = "verdict_mix"
    modular = False  # the CLI default

    def __init__(self, seed: int):
        self.seed = seed
        self.cells = {}
        for pattern, (ns, _) in VERDICT_PATTERNS.items():
            self.cells[pattern] = [
                (n, s, m)
                for m in ((None,) if pattern == "lemma24" else (1, 2, 3))
                for n, s in ns
                if (pattern, n, s, m) not in VERDICT_SKIPPED
            ]

    def round(self, r: int) -> list:
        items = []
        for pattern, (_, per_round) in VERDICT_PATTERNS.items():
            cells = self.cells[pattern]
            for i in range(per_round):
                n, s, m = cells[i % len(cells)]
                rng = _rng(self.seed, r, pattern, i)
                if pattern == "lemma24":
                    mults = tuple(rng.randint(1, 3) for _ in range(s + 2))
                    spec = generators.PatternSpec(pattern, n=n, s=s, mults=mults, height=HEIGHT)
                else:
                    k = rng.randint(1, s - 1) if pattern == "prop43" else None
                    spec = generators.PatternSpec(pattern, n=n, s=s, m=m, k=k, height=HEIGHT)
                items.append((spec, rng.randrange(1 << 40)))
        return items

    def run(self, item):
        spec, trial_seed = item
        return harness.batch_check(spec, trials=1, base_seed=trial_seed)

    def check(self, item, report) -> bool:
        if report.violations or report.generator_errors:
            return False
        return item[0].pattern != "lemma24" or report.results[0].tight

    def record(self, item, report) -> str:
        return report.to_json()


class ArtinianOracle:
    """Criteria 3/4: removal recursion plus the two-sided monomial criterion.

    An item is one removal.  The removals of a scheme run back to back, so
    ``regularity_index`` of the whole scheme is computed once and then
    served from its cache, as it would be for a user checking every
    removal.
    """

    name = "artinian_oracle"
    modular = True

    def __init__(self, seed: int):
        self.seed = seed
        self.cells = [
            (n, s, m)
            for n in (1, 2, 3)
            for s in (2, 3, 4, 5)
            for m in (1, 2, 3)
            if (n, s, m) not in ARTINIAN_SKIPPED
        ]

    def round(self, r: int) -> list:
        items = []
        for i, (n, s, m) in enumerate(self.cells):
            pts = _random_points(_rng(self.seed, r, i), n, s)
            z = schemes.FatPointScheme(n, tuple(pts), _mults(s, m))
            items.extend((z, i0) for i0 in range(s))
        return items

    def run(self, item):
        z, i0 = item
        recursion = constructions.removal_recursion_check(z, i0)
        rest, p, a = z.without_point(i0), z.points[i0], z.mults[i0]
        b = schemes.artinian_quotient_regularity(rest, p, a)
        at_b = schemes.monomial_bound_check(rest, p, a, b)
        below_b = schemes.monomial_bound_check(rest, p, a, b - 1) if b - 1 >= a - 1 else False
        return recursion, b, at_b, below_b

    def check(self, item, out) -> bool:
        recursion, _, at_b, below_b = out
        return recursion and at_b and not below_b

    def record(self, item, out) -> str:
        z, i0 = item
        return repr((z.n, z.mults, i0) + tuple(out))


class Certify:
    """Criterion 6: build and verify hyperplane-product certificates.

    The instances are fixed per seed: generic points on a hyperplane with
    the distinguished point off it, and ``prop43`` schemes minus a point on
    their degenerate flat (the split construction): 36 of the first, one
    per n, m and point count 2..5, and 30 of the second, one per prop43
    cell (n, s, m, k), so the two kinds come nearly 1:1 as in criterion
    6, which draws 15 of each from the same ranges.  Each round rescales
    every coordinate of an instance by its own factor from {1, -1, 2, -2}
    (none in round 0), so no item repeats an input, yet the artinian
    regularity, which such a change of coordinates leaves unchanged, is
    computed once per instance for the reference check.  The construction
    seed is fixed per instance: with one that changed every round, about
    one item in 500 fell back from the split to the single-group
    construction, whose certificate is several times larger.
    """

    name = "certify"
    modular = True  # only the untimed reference check computes ranks

    def __init__(self, seed: int):
        self.seed = seed
        self.instances = []
        for n in (2, 3, 4):
            for m in (1, 2, 3):
                for count in (2, 3, 4, 5):
                    self.instances.append(self._off_flat(_rng(seed, "off", n, m, count), n, count, m))
        for n, s in ((2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4)):
            for m in (1, 2, 3):
                for k in range(1, s):
                    self.instances.append(self._split(_rng(seed, "split", n, s, m, k), n, s, m, k))

    @staticmethod
    def _off_flat(rng: random.Random, n: int, count: int, m: int):
        pts: list[ProjPoint] = []
        while len(pts) < count:
            coords = [rng.randint(-5, 5) for _ in range(n)] + [0]
            if any(coords):
                p = ProjPoint(tuple(Fraction(c) for c in coords))
                if p not in pts:
                    pts.append(p)
        off = ProjPoint(tuple(Fraction(rng.randint(1, 5)) for _ in range(n + 1)))
        return schemes.FatPointScheme(n, tuple(pts), (m,) * count), off, m

    @staticmethod
    def _split(rng: random.Random, n: int, s: int, m: int, k: int):
        for _ in range(8):
            spec = generators.PatternSpec(
                "prop43", n=n, s=s, m=m, k=k, seed=rng.randrange(1 << 40), height=HEIGHT
            )
            try:
                z = generators.generate(spec)
                break
            except generators.GeneratorError:
                continue  # sampling gave up on this seed; draw another input
        else:
            raise RuntimeError(f"no prop43 input for n={n}, s={s}, m={m}, k={k}")
        # the planted degenerate flat passes through point 0
        return z.without_point(0), z.points[0], m

    def round(self, r: int) -> list:
        items = []
        for idx, (j, p, a) in enumerate(self.instances):
            rng = _rng(self.seed, r, idx)
            scale = [rng.choice((1, -1, 2, -2)) if r else 1 for _ in range(j.n + 1)]

            def move(q: ProjPoint) -> ProjPoint:
                return ProjPoint(tuple(d * c for d, c in zip(scale, q.coords)))

            moved = schemes.FatPointScheme(j.n, tuple(move(q) for q in j.points), j.mults)
            items.append((idx, moved, move(p), a, self.seed * 1009 + idx))
        return items

    def run(self, item):
        _, j, p, a, seed = item
        cert = constructions.build_certificate(j, p, a, seed=seed)
        ok, delta = constructions.verify_certificate(cert, j, p, a)
        return cert.strategy, ok, delta

    def check(self, item, out) -> bool:
        return out[1]

    def record(self, item, out) -> str:
        return repr((item[0],) + tuple(out))

    def keep(self, item, out) -> tuple[int, int]:
        """What the reference check needs of an item: instance and delta."""
        return item[0], out[2]

    def reference(self, kept: list[tuple[int, int]]) -> int:
        """How many kept deltas lie below their instance's artinian regularity.

        Runs after the timed interval, so the rank work it does is neither
        timed nor traced.
        """
        regularity = {}
        bad = 0
        for idx, delta in kept:
            if idx not in regularity:
                j, p, a = self.instances[idx]
                regularity[idx] = schemes.artinian_quotient_regularity(j, p, a)
            bad += regularity[idx] > delta
        return bad


WORKLOADS = {w.name: w for w in (VerdictMix, ArtinianOracle, Certify)}
