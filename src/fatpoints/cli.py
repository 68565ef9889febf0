"""Command line interface.

Subcommands: hilbert, reg, segre, check, certify, distribute, gen, batch.
Exit codes: 0 on success (and when the bound holds), 2 when a violation
or failed verification is found, 1 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from typing import Optional, Sequence

from fatpoints.constructions import (
    ConstructionError,
    Verdict,
    build_certificate,
    cover_threshold,
    distribute_flats,
    removal_recursion_check,
    segre_verdict,
    verify_certificate,
)
from fatpoints.generators import PATTERNS, PatternSpec, generate
from fatpoints.geometry import _lead_one, span
from fatpoints.harness import batch_check, load_scheme, scheme_to_obj
from fatpoints.schemes import (
    artinian_quotient_regularity,
    hilbert_function,
    monomial_bound_check,
    multiplicity,
    regularity_index,
)
from fatpoints.segre import segre_bound


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _seed(args) -> int:
    """``--seed``, or else FATPOINTS_SEED (default 0), read only by a command that seeds."""
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("FATPOINTS_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"FATPOINTS_SEED must be an integer, got {raw!r}") from None


def _add_scheme_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scheme", required=True, help="path to a scheme JSON file")


def _add_pattern_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pattern", required=True, choices=PATTERNS)
    p.add_argument("--n", type=int, required=True, help="ambient projective dimension")
    p.add_argument("--s", type=int, required=True, help="pattern size parameter")
    p.add_argument("--m", type=int, default=None, help="equimultiple multiplicity")
    p.add_argument("--mults", default=None, help="comma-separated multiplicities")
    p.add_argument("--height", type=int, default=50, help="coordinate height bound")
    p.add_argument("--flat-dim", type=int, default=None, help="flat dimension (on_flat)")
    p.add_argument("--k", type=int, default=None, help="planted degeneracy (prop43)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fatpoints", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hilbert", help="Hilbert function values")
    _add_scheme_arg(p)
    p.add_argument("--degree", type=int, default=None, help="single degree to evaluate")
    p.add_argument("--csv", action="store_true", help="emit the table as CSV")

    p = sub.add_parser("reg", help="regularity index")
    _add_scheme_arg(p)

    p = sub.add_parser("segre", help="Segre-type bound report")
    _add_scheme_arg(p)

    p = sub.add_parser("check", help="bound verdict for a scheme")
    _add_scheme_arg(p)
    p.add_argument("--lemma21", action="store_true", help="also verify the removal recursion")
    p.add_argument(
        "--lemma22",
        action="store_true",
        help="also cross-verify artinian regularities via the monomial criterion",
    )

    p = sub.add_parser("certify", help="build and verify a hyperplane-product certificate")
    _add_scheme_arg(p)
    p.add_argument("--i0", type=int, default=None, help="index of the distinguished point")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("distribute", help="cover points with flats avoiding one point")
    _add_scheme_arg(p)
    p.add_argument("--i0", type=int, required=True, help="index of the avoided point")
    p.add_argument("--r", type=int, required=True, help="flats have dimension r-1")
    p.add_argument("--t", type=int, default=None, help="flat count (default: threshold)")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("gen", help="generate a scheme from a pattern")
    _add_pattern_args(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("batch", help="seeded batch verification")
    _add_pattern_args(p)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=None, help="base seed")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None, help="output path (default: stdout)")

    return parser


def _parse_mults(raw: Optional[str]) -> Optional[tuple[int, ...]]:
    if raw is None:
        return None
    try:
        return tuple(int(x) for x in raw.split(","))
    except ValueError as exc:
        raise ValueError(f"--mults must be comma-separated integers: {exc}") from exc


def _spec_from_args(args) -> PatternSpec:
    return PatternSpec(
        pattern=args.pattern,
        n=args.n,
        s=args.s,
        m=args.m,
        mults=_parse_mults(args.mults),
        seed=_seed(args),
        height=args.height,
        flat_dim=args.flat_dim,
        k=args.k,
    )


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _flat_obj(flat) -> list[list[str]]:
    return [[str(c) for c in row] for row in _lead_one(flat.integer_rows)]


def _cmd_hilbert(args) -> int:
    z = load_scheme(args.scheme)
    if args.degree is not None and args.degree < 0:
        raise ValueError("--degree must be nonnegative")
    # H is nondecreasing and first reaches e at the regularity index, so
    # H(t) = e for every t >= reg: no degree from reg on needs a matrix.
    e = multiplicity(z)
    reg = regularity_index(z)
    degrees = range(reg + 1) if args.degree is None else [args.degree]
    rows = [(t, e if t >= reg else hilbert_function(z, t)) for t in degrees]
    if args.degree is not None:
        print(rows[0][1])
        return 0
    if args.csv:
        print("t,h")
        for t, h in rows:
            print(f"{t},{h}")
    else:
        for t, h in rows:
            print(f"H({t}) = {h}")
        print(f"multiplicity = {e}; regularity index = {reg}")
    return 0


def _cmd_reg(args) -> int:
    print(regularity_index(load_scheme(args.scheme)))
    return 0


def _cmd_segre(args) -> int:
    z = load_scheme(args.scheme)
    report = segre_bound(z)
    obj = {
        "bound": report.bound,
        "argmax_j": report.argmax_j,
        "entries": [
            {
                "j": e.j,
                "T": e.value,
                "total_multiplicity": e.total_mult,
                "witness_indices": list(e.witness_indices),
                "witness_flat": _flat_obj(span([z.points[i] for i in e.witness_indices])),
            }
            for e in report.entries
        ],
    }
    print(json.dumps(obj, indent=2))
    return 0


def _cmd_check(args) -> int:
    z = load_scheme(args.scheme)
    v = segre_verdict(z)
    obj = {f.name: getattr(v, f.name) for f in fields(Verdict) if f.name != "report"}
    failed = not v.holds
    if args.lemma21 and z.size >= 2:
        ok = all(removal_recursion_check(z, i0) for i0 in range(z.size))
        obj["recursion_ok"] = ok
        failed = failed or not ok
    if args.lemma22 and z.size >= 2:
        ok = True
        for i0 in range(z.size):
            rest = z.without_point(i0)
            a = z.mults[i0]
            b = artinian_quotient_regularity(rest, z.points[i0], a)
            if not monomial_bound_check(rest, z.points[i0], a, b):
                ok = False
            if b - 1 >= a - 1 and monomial_bound_check(rest, z.points[i0], a, b - 1):
                ok = False
        obj["monomial_criterion_ok"] = ok
        failed = failed or not ok
    print(json.dumps(obj, indent=2))
    return 2 if failed else 0


def _cmd_certify(args) -> int:
    z = load_scheme(args.scheme)
    if z.size < 2:
        raise ValueError("certification needs at least two points")
    seed = _seed(args)
    candidates = [args.i0] if args.i0 is not None else list(range(z.size))
    last_error: Optional[Exception] = None
    for i0 in candidates:
        if not 0 <= i0 < z.size:
            raise ValueError(f"--i0 must be in 0..{z.size - 1}")
        rest = z.without_point(i0)
        a = z.mults[i0]
        try:
            cert = build_certificate(rest, z.points[i0], a, seed)
        except (ConstructionError, ValueError) as exc:
            last_error = exc
            continue
        ok, delta = verify_certificate(cert, rest, z.points[i0], a)
        obj = {
            "i0": i0,
            "order": a,
            "strategy": cert.strategy,
            "delta": delta,
            "verified": ok,
            "entries": len(cert.entries),
        }
        print(json.dumps(obj, indent=2))
        return 0 if ok else 2
    raise ConstructionError(f"no distinguished point admits a certificate: {last_error}")


def _cmd_distribute(args) -> int:
    z = load_scheme(args.scheme)
    if not 0 <= args.i0 < z.size:
        raise ValueError(f"--i0 must be in 0..{z.size - 1}")
    points = [p for i, p in enumerate(z.points) if i != args.i0]
    mults = [m for i, m in enumerate(z.mults) if i != args.i0]
    avoid = z.points[args.i0]
    t = args.t if args.t is not None else cover_threshold(mults, args.r)
    dist = distribute_flats(points, avoid, mults, args.r, t, _seed(args))
    obj = {
        "r": args.r,
        "t": t,
        "flats": [_flat_obj(f) for f in dist.flats],
        "coverage": [list(c) for c in dist.coverage],
    }
    print(json.dumps(obj, indent=2))
    return 0


def _cmd_gen(args) -> int:
    spec = _spec_from_args(args)
    z = generate(spec)
    text = json.dumps(scheme_to_obj(z), indent=2) + "\n"
    _emit(text, args.out)
    return 0


def _cmd_batch(args) -> int:
    spec = _spec_from_args(args)
    report = batch_check(spec, args.trials, spec.seed, workers=args.workers)
    _emit(report.to_json(), args.out)
    return 2 if report.violations else 0


_COMMANDS = {
    "hilbert": _cmd_hilbert,
    "reg": _cmd_reg,
    "segre": _cmd_segre,
    "check": _cmd_check,
    "certify": _cmd_certify,
    "distribute": _cmd_distribute,
    "gen": _cmd_gen,
    "batch": _cmd_batch,
}


def cli_dispatch(argv: Sequence[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, RuntimeError) as exc:  # GeneratorError and ConstructionError included
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
