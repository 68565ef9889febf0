"""Benchmark of the fatpoints package: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload verdict_mix --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``; BENCHMARK.json says why each exists):

* ``verdict_mix``      one ``harness.batch_check`` call per scheme of the
                       criterion 1+2 pattern mix, modular filter off;
* ``artinian_oracle``  removal recursion, artinian regularity and the
                       two-sided monomial criterion, modular filter on;
* ``certify``          ``build_certificate`` + ``verify_certificate``.

One client, one process at a time, items back to back (a closed loop).
Every measurement runs in a fresh interpreter (``worker.py``).

``--trace 0`` prints the end-to-end metrics: correct items per second of
item time, item latency p50 and p95 in ms, the median set-up time (package
import and input building) of nine fresh processes, and the timed
process's peak RSS.  Item and set-up times are rescaled to a reference
machine speed measured alongside them in the same process
(``calibration.py``); the unscaled values are printed too, and so is the
number of samples above p95 (at least ten: see ``worker.MIN_ITEMS``).
Percentiles are Harrell-Davis estimates (see ``percentile``).

``--trace 1`` runs the workload with timing wrappers on the package's
public functions (``tracing.py``) and prints per-layer call counts and
self times in unscaled seconds, the shapes passed to ``rank_rows``, and
the tracing overhead: round 0 traced against round 0 in an untraced
process.

Every item's output is checked; for ``--seed 1`` a digest of round 0's
outputs is also compared with ``digests.json``.  The last line of stdout
is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("verdict_mix", "artinian_oracle", "certify")
DEFAULT_SEED = 1
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def worker(args: list[str], timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run worker.py in a fresh interpreter; returns its JSON."""
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} timed out after {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}:\n{proc.stderr}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(sorted_values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile.

    A weighted mean of the order statistics, weighted by how much of a
    Beta(p(n+1), (1-p)(n+1)) distribution falls on each rank.  Item times
    come in clusters, one per input, and a plain order statistic that
    lies between two clusters jumps from one to the other from run to
    run; this estimate moves smoothly instead.
    """
    n, p = len(sorted_values), q / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    # the Beta mass on ((i-1)/n, i/n], by Simpson's rule on 8 steps
    steps = 8
    h = 1 / (n * steps)
    weights = []
    for i in range(n):
        ys = [density(i / n + j * h) for j in range(steps + 1)]
        weights.append(h / 3 * (ys[0] + ys[-1] + 4 * sum(ys[1:-1:2]) + 2 * sum(ys[2:-1:2])))
    return sum(w * v for w, v in zip(weights, sorted_values)) / sum(weights)


def print_shape_histogram(shapes: list[list[int]]) -> None:
    """rank_rows calls by matrix size, in power-of-two bins of rows x cols."""
    bins: dict[int, list] = {}
    for rows, cols, calls in shapes:
        b = bins.setdefault((rows * cols).bit_length(), [0, 0, (0, 0)])
        b[0] += calls
        b[1] += rows * cols * calls
        b[2] = max(b[2], (rows, cols), key=lambda rc: rc[0] * rc[1])
    print(f"rank_rows shapes: {sum(c for *_, c in shapes)} calls, {len(shapes)} distinct")
    for bit, (calls, cells, (rows, cols)) in sorted(bins.items()):
        low = 1 << (bit - 1) if bit else 0
        print(f"  cells {low:>6}-{(1 << bit) - 1:<6} calls {calls:>6}  cells total {cells:>9}  "
              f"largest {rows}x{cols}")


def digest_ok(workload: str, seed: int, digest: str) -> bool:
    if seed != DEFAULT_SEED:
        return True
    recorded = json.loads((HERE / "digests.json").read_text())
    return recorded.get(workload) == digest


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    setups = [
        worker(["--workload", workload, "--seed", str(seed), "--mode", "setup"])
        for _ in range(SETUP_REPEATS)
    ]
    res = worker(
        ["--workload", workload, "--seed", str(seed), "--mode", "timed", "--seconds", str(seconds)]
    )
    times = sorted(res["item_s"])
    correct_items = res["attempted"] - res["failed"]
    p95 = percentile(times, 95)
    metrics = {
        "items_per_s": [correct_items / sum(times), "1/s"],
        "item_ms.p50": [1000 * percentile(times, 50), "ms"],
        "item_ms.p95": [1000 * p95, "ms"],
        "setup_s": [statistics.median(s["setup_s"] for s in setups), "s"],
        "peak_rss_mb": [res["peak_rss_mb"], "MB"],
    }
    res["raw_setup_s"] = statistics.median(s["raw_setup_s"] for s in setups)
    res["above_p95"] = sum(1 for t in times if t > p95)
    return res, metrics


def traced(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    res = worker(
        ["--workload", workload, "--seed", str(seed), "--mode", "traced", "--seconds", str(seconds)]
    )
    plain = worker(["--workload", workload, "--seed", str(seed), "--mode", "round0"])
    metrics = res["layers"]
    n0 = res["round0_items"]
    metrics["trace.round0.items_per_s"] = [n0 / res["round0_s"], "1/s"]
    metrics["trace.round0.untraced_items_per_s"] = [plain["round0_items"] / plain["round0_s"], "1/s"]
    metrics["trace.overhead_ratio"] = [res["round0_s"] / plain["round0_s"], "ratio"]
    return res, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "fatpoints" / "__init__.py").is_file():
        print(f"error: no fatpoints package under {ROOT / 'src'}", file=sys.stderr)
        return 1
    try:
        measure = traced if args.trace else end_to_end
        res, metrics = measure(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = res["environment"]
    digest_matches = digest_ok(args.workload, args.seed, res["digest"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  closed loop, 1 client")
    print(f"interpreter {env['interpreter']}  nproc {env['nproc']}  backend {env['backend']}")
    print(f"items {res['attempted']} in {res['rounds']} rounds  failed {res['failed']}  "
          f"failed_ratio {res['failed'] / res['attempted']:.4g}")
    if "above_p95" in res:
        print(f"{res['above_p95']} item times above item_ms.p95")
    print(f"unscaled item time {sum(res['raw_item_s']):.3f} s  median slowdown {res['slowdown']:.3f}")
    if "raw_setup_s" in res:
        print(f"unscaled setup_s {res['raw_setup_s']:.4f} s")
    print(f"round 0 digest {res['digest']}"
          + ("" if args.seed != DEFAULT_SEED else f"  matches record: {digest_matches}"))
    if "shapes" in res:
        print_shape_histogram(res["shapes"])
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:.6g} {unit}")

    result = {
        "correct": res["failed"] == 0 and digest_matches,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
