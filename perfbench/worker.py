"""One benchmark process: set up a workload, then run its items back to back.

``run.py`` starts a fresh interpreter for every measurement, so the
package's caches (``regularity_index``, ``segre._candidate_flats``,
``monomial_basis``) start empty each time.  The process prints one JSON
object on stdout.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup
    python3 perfbench/worker.py --workload NAME --seed N --mode timed --seconds S
    python3 perfbench/worker.py --workload NAME --seed N --mode traced --seconds S
    python3 perfbench/worker.py --workload NAME --seed N --mode round0

``setup`` only imports the package and builds the workload's fixed inputs,
and reports how long that took.
``timed`` and ``traced`` run whole rounds until S seconds of item time and
MIN_ITEMS items are reached; ``round0`` runs the first round only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from calibration import CALIBRATION_REFERENCE_S, ScaledTimes, calibration_kernel

# Set-up time is the package import plus building the workload's inputs,
# timed in this process between calibration samples (see calibration.py).
_kernel_before = [calibration_kernel() for _ in range(5)]
_setup_start = perf_counter()

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from fatpoints import linalg, schemes  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

# so that at least ten item times lie above p95
MIN_ITEMS = 200

# the lru_cache object itself; tracing replaces the module attribute
regularity_cache_info = schemes.regularity_index.cache_info


def environment() -> dict:
    return {
        "interpreter": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "backend": "int/Fraction fallback" if linalg.mpz is int else "gmpy2",
    }


def measure(wl, seconds: float, max_rounds: int | None, tracer: tracing.Tracer | None) -> dict:
    times = ScaledTimes()
    round_of: list[int] = []
    failed = 0  # items that raised or failed their check
    kept: list = []  # what the workload's reference check needs of each item
    round0: list[str] = []
    hits = misses = 0
    modular = dict.fromkeys(linalg.modular_stats(), 0)
    linalg.reset_modular_stats()
    r = 0
    while max_rounds is None or r < max_rounds:
        if max_rounds is None and sum(times.raw) >= seconds and len(times.raw) >= MIN_ITEMS:
            break
        for item in wl.round(r):
            if tracer is not None:
                info0, stats0 = regularity_cache_info(), linalg.modular_stats()
            t0 = perf_counter()
            try:
                if tracer is None:
                    out = wl.run(item)
                else:
                    with tracer.item():
                        out = wl.run(item)
            except Exception:  # an item that raises counts as failed; the run goes on
                traceback.print_exc(file=sys.stderr)
                out = None
            times.add(perf_counter() - t0)
            round_of.append(r)
            if tracer is not None:
                info1, stats1 = regularity_cache_info(), linalg.modular_stats()
                hits += info1.hits - info0.hits
                misses += info1.misses - info0.misses
                for k in modular:
                    modular[k] += stats1[k] - stats0[k]
            # checked at once, so that no item's output outlives its check
            if out is None or not wl.check(item, out):
                failed += 1
            elif hasattr(wl, "keep"):
                kept.append(wl.keep(item, out))
            if out is not None and r == 0:
                round0.append(wl.record(item, out))
        r += 1
    times.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is not None:
        tracer.uninstall()
    if max_rounds is None and hasattr(wl, "reference"):  # round0 only times
        failed += wl.reference(kept)

    return {
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(times.raw),
        "failed": failed,
        "rounds": r,
        "raw_item_s": times.raw,
        "item_s": times.scaled,
        "slowdown": statistics.median(times.kernel_s) / CALIBRATION_REFERENCE_S,
        "round0_items": len(round0),
        "round0_s": sum(t for t, k in zip(times.scaled, round_of) if k == 0),
        "digest": hashlib.sha256("\n".join(round0).encode()).hexdigest(),
        "regularity_cache": [hits, misses],
        "modular": modular,
    }


def layer_metrics(tracer: tracing.Tracer, res: dict) -> dict:
    """Per-layer counts and self times, as {name: [value, unit]}."""
    calls, self_s = tracer.totals()
    item_total = sum(self_s.values())  # self times partition the item spans
    shapes = tracer.shapes
    hits, misses = res["regularity_cache"]
    mod = res["modular"]
    attempts = mod["short_circuits"] + mod["certified"] + mod["fallbacks"]
    out = {
        "linalg.rank_rows.calls": [calls["linalg.rank_rows"], "count"],
        "linalg.rank_rows.self_s": [self_s["linalg.rank_rows"], "s"],
        "linalg.rank_rows.item_share": [self_s["linalg.rank_rows"] / item_total, "ratio"],
        "linalg.cells": [sum(r * c * k for (r, c), k in shapes.items()), "count"],
        "linalg.max_rows": [max((r for r, _ in shapes), default=0), "count"],
        "linalg.max_cols": [max((c for _, c in shapes), default=0), "count"],
        "linalg.rref.calls": [calls["linalg.rref"], "count"],
        "linalg.rref.self_s": [self_s["linalg.rref"], "s"],
        "linalg.rref.item_share": [self_s["linalg.rref"] / item_total, "ratio"],
        "linalg.kernel_basis.self_s": [self_s["linalg.kernel_basis"], "s"],
    }
    for key in ("short_circuits", "certified", "fallbacks", "disagreements"):
        out[f"linalg.modular.{key}"] = [mod[key], "count"]
    # share of filtered ranks settled without a rational re-elimination
    out["linalg.modular.certified_ratio"] = [
        (mod["short_circuits"] + mod["certified"]) / attempts if attempts else 0.0,
        "ratio",
    ]
    out.update({
        "schemes.regularity_index.calls": [calls["schemes.regularity_index"], "count"],
        "schemes.regularity_index.cache_hit_ratio": [hits / (hits + misses) if hits + misses else 0.0, "ratio"],
        "schemes.hilbert_function.calls": [calls["schemes.hilbert_function"], "count"],
        "schemes.hilbert_evals_per_reg": [calls["schemes.hilbert_function"] / misses if misses else 0.0, "ratio"],
    })
    for label in (
        "schemes.artinian_quotient_regularity",
        "schemes.monomial_bound_check",
        "schemes.condition_rows",
        "schemes.in_fat_ideal",
        "segre.segre_bound",
        "geometry.span",
        "geometry.classify",
        "generators.generate",
        "constructions.build_certificate",
        "constructions.verify_certificate",
        "constructions.segre_verdict",
        "constructions.removal_recursion_check",
        "harness.batch_check",
    ):
        out[f"{label}.self_s"] = [self_s[label], "s"]
    for label in ("geometry.span", "generators.generate", "constructions.distribute_flats"):
        out[f"{label}.calls"] = [calls[label], "count"]
    out["items.traced_s"] = [item_total, "s"]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "traced", "round0"))
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args()

    wl_class = workloads.WORKLOADS[args.workload]
    linalg.set_modular_filter(wl_class.modular)
    wl = wl_class(args.seed)
    if args.mode == "setup":
        setup_s = perf_counter() - _setup_start
        kernel_s = statistics.median(_kernel_before + [calibration_kernel() for _ in range(5)])
        print(json.dumps({"setup_s": setup_s * CALIBRATION_REFERENCE_S / kernel_s, "raw_setup_s": setup_s}))
        return 0

    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracer.install()
    res = measure(wl, args.seconds, 1 if args.mode == "round0" else None, tracer)
    res["environment"] = environment()
    if tracer is not None:
        res["layers"] = layer_metrics(tracer, res)
        res["shapes"] = [[r, c, k] for (r, c), k in sorted(tracer.shapes.items())]
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
