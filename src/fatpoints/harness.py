"""Scheme files, batch verification and the report format.

Schemes travel as JSON objects with string coordinates (integers or
"p/q", no exponents), so exactness survives the round trip.  Batch runs
generate one scheme per seed, compare its regularity index against the
Segre-type bound, and aggregate the outcomes into a report whose
serialized form is byte-identical across repeated runs and worker counts.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from fatpoints.constructions import segre_verdict
from fatpoints.generators import GeneratorError, PatternSpec, generate
from fatpoints.geometry import ProjPoint
from fatpoints.schemes import FatPointScheme

REPORT_VERSION = "fatpoints-report/1"


# ---------------------------------------------------------------------------
# scheme files
# ---------------------------------------------------------------------------

def scheme_to_obj(z: FatPointScheme) -> dict:
    return {
        "n": z.n,
        "points": [[str(c) for c in p.coords] for p in z.points],
        "multiplicities": list(z.mults),
    }


def scheme_from_obj(obj: object) -> FatPointScheme:
    """Parse a scheme object, reporting the position of any defect."""
    if not isinstance(obj, dict):
        raise ValueError("scheme file must contain a JSON object")
    for key in ("n", "points", "multiplicities"):
        if key not in obj:
            raise ValueError(f"scheme file is missing the {key!r} field")
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError("field 'n' must be a positive integer")
    raw_points = obj["points"]
    raw_mults = obj["multiplicities"]
    if not isinstance(raw_points, list) or not raw_points:
        raise ValueError("field 'points' must be a nonempty list")
    if not isinstance(raw_mults, list) or len(raw_mults) != len(raw_points):
        raise ValueError(
            f"expected {len(raw_points)} multiplicities, got "
            f"{len(raw_mults) if isinstance(raw_mults, list) else type(raw_mults).__name__}"
        )
    points = []
    for i, coords in enumerate(raw_points):
        if not isinstance(coords, list) or len(coords) != n + 1:
            raise ValueError(f"point {i}: expected {n + 1} coordinates")
        parsed = []
        for jx, c in enumerate(coords):
            text = str(c)
            # Fraction() takes exponents, whose cost the input's length does not bound
            if "e" in text or "E" in text:
                raise ValueError(
                    f"point {i}, coordinate {jx}: exponent notation is not accepted: {text!r}"
                )
            try:
                parsed.append(Fraction(text))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"point {i}, coordinate {jx}: {exc}") from exc
        if not any(parsed):
            raise ValueError(f"point {i}: all coordinates are zero")
        p = ProjPoint(tuple(parsed))
        if p in points:
            raise ValueError(f"point {i} duplicates point {points.index(p)}")
        points.append(p)
    mults = []
    for i, m in enumerate(raw_mults):
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise ValueError(f"multiplicity {i} must be a positive integer")
        mults.append(m)
    return FatPointScheme(n, tuple(points), tuple(mults))


def load_scheme(path: Union[str, Path]) -> FatPointScheme:
    text = Path(path).read_text()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return scheme_from_obj(obj)


def save_scheme(z: FatPointScheme, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(scheme_to_obj(z), indent=2) + "\n")


# ---------------------------------------------------------------------------
# batch verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialResult:
    seed: int
    hypothesis_class: Optional[str] = None
    reg: Optional[int] = None
    bound: Optional[int] = None
    holds: Optional[bool] = None
    tight: Optional[bool] = None
    error: Optional[str] = None
    scheme: Optional[dict] = None

    def to_obj(self) -> dict:
        out: dict = {"seed": self.seed}
        if self.error is not None:
            out["error"] = self.error
            return out
        out.update(
            hypothesis_class=self.hypothesis_class,
            reg=self.reg,
            bound=self.bound,
            holds=self.holds,
            tight=self.tight,
        )
        if self.scheme is not None:
            out["scheme"] = self.scheme
        return out


@dataclass(frozen=True)
class BatchReport:
    spec: PatternSpec
    trials: int
    base_seed: int
    results: tuple[TrialResult, ...]

    @property
    def violations(self) -> int:
        return sum(1 for r in self.results if r.holds is False)

    @property
    def generator_errors(self) -> int:
        return sum(1 for r in self.results if r.error is not None)

    def to_obj(self) -> dict:
        regs = [r.reg for r in self.results if r.reg is not None]
        histogram: dict[str, int] = {}
        for r in self.results:
            if r.reg is None:
                continue
            key = str(r.reg - r.bound)
            histogram[key] = histogram.get(key, 0) + 1
        spec_obj = {
            "pattern": self.spec.pattern,
            "n": self.spec.n,
            "s": self.spec.s,
            "m": self.spec.m,
            "mults": list(self.spec.mults) if self.spec.mults is not None else None,
            "height": self.spec.height,
            "flat_dim": self.spec.flat_dim,
            "k": self.spec.k,
        }
        return {
            "version": REPORT_VERSION,
            "spec": spec_obj,
            "trials": self.trials,
            "base_seed": self.base_seed,
            "results": [r.to_obj() for r in self.results],
            "aggregates": {
                "violations": self.violations,
                "generator_errors": self.generator_errors,
                "max_reg": max(regs) if regs else None,
                "histogram": dict(sorted(histogram.items(), key=lambda kv: int(kv[0]))),
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), indent=2) + "\n"


def _run_trial(spec: PatternSpec, seed: int) -> TrialResult:
    try:
        z = generate(spec.with_seed(seed))
    except GeneratorError as exc:
        return TrialResult(seed=seed, error=str(exc))
    v = segre_verdict(z)
    embedded = scheme_to_obj(z) if not v.holds else None
    return TrialResult(
        seed=seed,
        hypothesis_class=v.hypothesis_class,
        reg=v.reg,
        bound=v.bound,
        holds=v.holds,
        tight=v.tight,
        scheme=embedded,
    )


def batch_check(spec: PatternSpec, trials: int, base_seed: int, workers: int = 1) -> BatchReport:
    """Generate and check one scheme per seed; aggregation is seed-ordered.

    Trials are pure functions of their seeds, so the report does not
    depend on the worker count.
    """
    if trials < 1:
        raise ValueError("at least one trial is required")
    if workers < 1:
        raise ValueError("at least one worker is required")
    seeds = range(base_seed, base_seed + trials)
    if workers <= 1:
        results = [_run_trial(spec, s) for s in seeds]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda s: _run_trial(spec, s), seeds))
    return BatchReport(spec=spec, trials=trials, base_seed=base_seed, results=tuple(results))
