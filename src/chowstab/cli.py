"""Command-line front end.

Subcommands map one-to-one onto the library: ``projbundle`` and ``blowup``
ingest a JSON spec file and report the exact invariants, ``loci-3pt``
evaluates the vanishing loci for the three-point plane blowup,
``search-unstable`` hunts Chow-unstable polarizations, and
``oracle-check`` runs the closed-form-versus-enumeration sweeps.

All numbers cross the process boundary as exact "p/q" strings; JSON output
is byte-stable across runs (sorted keys, no floats).  Decimal
approximations exist only behind --approx and only in the human-readable
table output.  Exit status: 0 on success, 1 on parse or precondition
errors, 2 when an internal cross-check between two computation paths
fails.  A ``search-unstable`` grid bound above
p2lab.SEARCH_MAX_GRID_BOUND, or scale bound above
p2lab.SEARCH_MAX_SCALE_BOUND, is refused with status 1.  The search runs
serially in the calling process.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import blowup, p2lab, projbundle, verification
from .errors import CrossCheckError, DegenerateInputError, ResourceLimitError
from .exactalg import Poly, RatFn, format_rational, parse_rational

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CROSSCHECK = 2


def _poly_strings(p: Poly) -> list[str]:
    """Ascending coefficient list as exact strings."""
    return [format_rational(c) for c in p.coeffs]


def _ratfn_payload(f: RatFn) -> dict:
    return {"num": _poly_strings(f.num), "den": _poly_strings(f.den)}


def _as_object(value, context: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{context}: expected a JSON object, got {value!r}")
    return value


def _require(config: dict, key: str, context: str):
    if key not in _as_object(config, context):
        raise ValueError(f"missing field {key!r} in {context}")
    return config[key]


def _as_rational(value, context: str) -> Fraction:
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise ValueError(f"{context}: expected an integer or 'p/q' string, got {value!r}")


def _as_int(value, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{context}: expected an integer, got {value!r}")
    return value


def _as_bool(value, context: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{context}: expected true or false, got {value!r}")
    return value


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path} is not valid JSON: line {exc.lineno}: {exc.msg}") from exc


def _parse_k_range(text: str) -> tuple[int, int]:
    try:
        lo_s, hi_s = text.split(":")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError as exc:
        raise ValueError(f"--k-range expects A:B with integers, got {text!r}") from exc
    if lo < 1 or hi < lo:
        raise ValueError(f"--k-range endpoints must satisfy 1 <= A <= B, got {text!r}")
    return lo, hi


def _emit(payload: dict, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


def _approx(q: Fraction) -> str:
    return f"{float(q):.6g}"


def _futaki_lines(futaki, approx: bool) -> list[str]:
    """One "F_l = value" table line per invariant, with its decimal if asked."""
    return [f"F_{i} = {format_rational(f)}" + (f"   (approx {_approx(f)})" if approx else "")
            for i, f in enumerate(futaki, start=1)]


# ---------------------------------------------------------------------------
# projbundle
# ---------------------------------------------------------------------------


def _curve_bundle_from_config(config: dict) -> projbundle.CurveBundleSpec:
    summands = []
    raw = _require(config, "summands", "projbundle config")
    if not isinstance(raw, list) or not raw:
        raise ValueError("'summands' must be a non-empty list")
    for i, entry in enumerate(raw):
        ctx = f"summands[{i}]"
        summands.append(projbundle.Summand(
            rank=_as_int(_require(entry, "rank", ctx), f"{ctx}.rank"),
            degree=_as_int(_require(entry, "degree", ctx), f"{ctx}.degree"),
            weight=_as_int(_require(entry, "weight", ctx), f"{ctx}.weight"),
            stable=_as_bool(entry.get("stable", True), f"{ctx}.stable")))
    b = _as_object(config.get("B", {}), "B")
    return projbundle.CurveBundleSpec(
        genus=_as_int(_require(config, "genus", "projbundle config"), "genus"),
        summands=tuple(summands),
        b_deg=_as_int(b.get("degree", 0), "B.degree"),
        b_weight=_as_int(b.get("weight", 0), "B.weight"),
        r=_as_int(config.get("r", 1), "r"))


def _cmd_projbundle(args) -> int:
    spec = _curve_bundle_from_config(_load_config(args.config))
    chi = projbundle.euler_char_poly(spec)
    w = projbundle.weight_poly(spec)
    futaki = projbundle.higher_futaki(spec)
    chow = projbundle.chow_weight(spec)
    verdict = projbundle.slope_classify(spec)
    payload = {
        "n": spec.n,
        "euler_poly": _poly_strings(chi),
        "weight_poly": _poly_strings(w),
        "b_top": format_rational(w.coefficient(0)),
        "futaki": {f"F_{i}": format_rational(f) for i, f in enumerate(futaki, start=1)},
        "chow": _ratfn_payload(chow),
        "classification": verdict.classification,
        "slope_gaps": [format_rational(g) for g in verdict.per_summand],
        "ample_necessary": spec.satisfies_ampleness_necessary,
    }
    lines = [
        f"P(E) over a genus-{spec.genus} curve, n = {spec.n}, r = {spec.r}, deg B = {spec.b_deg}",
        f"chi(k)  = {chi.pretty()}",
        f"w(k)    = {w.pretty()}",
        f"Chow(k) = {chow.pretty()}",
        f"classification: {verdict.classification} "
        f"(slope gaps: {', '.join(format_rational(g) for g in verdict.per_summand)})",
        f"ample necessary condition (twisted slope < 0): {spec.satisfies_ampleness_necessary}",
        *_futaki_lines(futaki, args.approx),
    ]
    if args.k_range:
        lo, hi = _parse_k_range(args.k_range)
        table = []
        for k in range(lo, hi + 1):
            chi_k = chi.evaluate(k)
            chow_k = chow.evaluate(k) if chi_k else None
            row = {"k": k, "chi": format_rational(chi_k), "w": format_rational(w.evaluate(k)),
                   "chow": "undefined" if chow_k is None else format_rational(chow_k)}
            table.append(row)
            text = f"k={k}: chi={row['chi']} w={row['w']} chow={row['chow']}"
            if args.approx and chow_k is not None:
                text += f"   (chow approx {_approx(chow_k)})"
            lines.append(text)
        payload["table"] = table
    _emit(payload, args.json, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# blowup
# ---------------------------------------------------------------------------


def _blowup_from_config(config: dict) -> blowup.BlowupSpec:
    raw_base = _require(config, "base", "blowup config")
    n = _as_int(_require(raw_base, "n", "base"), "base.n")
    coeffs = _require(raw_base, "a", "base")
    if not isinstance(coeffs, list):
        raise ValueError("'base.a' must be a list of rationals")
    base = blowup.BaseSummary(
        n=n,
        a=tuple(_as_rational(c, f"base.a[{i}]") for i, c in enumerate(coeffs)),
        polystable_certified=_as_bool(_require(raw_base, "polystable", "base"),
                                      "base.polystable"))
    raw_points = _require(config, "points", "blowup config")
    if not isinstance(raw_points, list) or not raw_points:
        raise ValueError("'points' must be a non-empty list")
    points = []
    for i, entry in enumerate(raw_points):
        ctx = f"points[{i}]"
        points.append(blowup.BlownPoint(
            alpha=_as_int(_require(entry, "alpha", ctx), f"{ctx}.alpha"),
            phi=_as_rational(_require(entry, "phi", ctx), f"{ctx}.phi"),
            lam=_as_int(_require(entry, "lambda", ctx), f"{ctx}.lambda")))
    return blowup.BlowupSpec(
        base=base, points=tuple(points),
        m=_as_int(_require(config, "m", "blowup config"), "m"))


def _cmd_blowup(args) -> int:
    spec = _blowup_from_config(_load_config(args.config))
    chi = blowup.chi_tilde(spec)
    w = blowup.w_tilde(spec)
    futaki = blowup.futaki_blowup(spec)
    chow = blowup.chow_blowup(spec)
    leading, w_cw = blowup.adiabatic(spec)
    payload = {
        "n": spec.base.n,
        "m": spec.m,
        "D": format_rational(spec.volume_gap),
        "chi_tilde": _poly_strings(chi),
        "w_tilde": _poly_strings(w),
        "b_top": format_rational(w.coefficient(0)),
        "futaki": {f"F_{i}": format_rational(f) for i, f in enumerate(futaki, start=1)},
        "chow": _ratfn_payload(chow),
        "adiabatic": {"leading": format_rational(leading), "w_cw": format_rational(w_cw)},
    }
    lines = [
        f"blowup of an n = {spec.base.n} base at {len(spec.points)} points, m = {spec.m}",
        f"D        = {format_rational(spec.volume_gap)}",
        f"chi~(k)  = {chi.pretty()}",
        f"w~(k)    = {w.pretty()}",
        f"Chow(k)  = {chow.pretty()}",
        f"adiabatic leading term = {format_rational(leading)}, "
        f"zero-cycle weight = {format_rational(w_cw)}",
        *_futaki_lines(futaki, args.approx),
    ]
    _emit(payload, args.json, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# loci-3pt / search-unstable / oracle-check
# ---------------------------------------------------------------------------


def _parse_alphas(text: str, expected: int) -> tuple[int, ...]:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ValueError(f"--alphas expects comma-separated integers, got {text!r}") from exc
    if len(parts) != expected:
        raise ValueError(f"expected {expected} multiplicities, got {len(parts)}")
    return parts


def _cmd_loci(args) -> int:
    alphas = _parse_alphas(args.alphas, 3)
    f1_zero, f2_zero = p2lab.three_point_loci(args.m, alphas)
    payload = {"m": args.m, "alphas": list(alphas),
               "F1_zero": f1_zero, "F2_zero": f2_zero}
    lines = [f"m = {args.m}, alphas = {alphas}: "
             f"F1_zero = {str(f1_zero).lower()}, F2_zero = {str(f2_zero).lower()}"]
    _emit(payload, args.json, lines)
    return EXIT_OK


def _cmd_search(args) -> int:
    candidates = p2lab.search_unstable(args.grid, args.scale)
    rows = [{
        "m": c.m,
        "alphas": list(c.alphas),
        "psi1": format_rational(c.psi1_value),
        "psi2": format_rational(c.psi2_value),
        "ample": c.ample,
        "verified": c.verified,
    } for c in candidates]
    payload = {"grid_bound": args.grid, "scale_bound": args.scale,
               "count": len(rows), "candidates": rows}
    lines = [f"{len(rows)} verified candidate(s) for grid_bound={args.grid}, "
             f"scale_bound={args.scale}"]
    for row in rows:
        lines.append(
            f"m={row['m']} alphas={tuple(row['alphas'])} psi1={row['psi1']} "
            f"psi2={row['psi2']} ample={row['ample']} verified={row['verified']}")
    _emit(payload, args.json, lines)
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    if args.suite == "projbundle":
        seed = 0 if args.seed is None else args.seed
        count, mismatches = verification.run_projbundle_suite(seed=seed)
    else:
        count, mismatches = verification.run_blowup_suite()
    payload = {"suite": args.suite, "specs": count, "mismatches": len(mismatches)}
    lines = [f"suite={args.suite}: {count} specs checked, {len(mismatches)} mismatch(es)"]
    for bad in mismatches[:10]:
        lines.append(f"  mismatch at k={bad.k}: {bad.spec}")
    _emit(payload, args.json, lines)
    if mismatches:
        raise CrossCheckError(f"{len(mismatches)} oracle mismatches in suite {args.suite}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chowstab",
        description="Exact Chow weights and higher Futaki invariants.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("projbundle", help="invariants of P(E) over a curve")
    p.add_argument("--config", required=True, help="JSON spec file")
    p.add_argument("--k-range", dest="k_range", default=None, metavar="A:B",
                   help="tabulate exact values for k in A..B")
    p.add_argument("--json", action="store_true", help="machine-stable JSON output")
    p.add_argument("--approx", action="store_true",
                   help="add labeled decimal approximations (table output only)")
    p.set_defaults(func=_cmd_projbundle)

    p = sub.add_parser("blowup", help="invariants of a blown-up base")
    p.add_argument("--config", required=True, help="JSON spec file")
    p.add_argument("--json", action="store_true", help="machine-stable JSON output")
    p.add_argument("--approx", action="store_true",
                   help="add labeled decimal approximations (table output only)")
    p.set_defaults(func=_cmd_blowup)

    p = sub.add_parser("loci-3pt", help="vanishing loci for three blown points")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--alphas", required=True, metavar="A,B,C")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_loci)

    p = sub.add_parser("search-unstable",
                       help="search Chow-unstable cscK-compatible polarizations")
    p.add_argument("--grid", type=int, required=True, help="direction grid bound")
    p.add_argument("--scale", type=int, required=True, help="candidate scale bound")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("oracle-check", help="closed forms vs brute-force oracles")
    p.add_argument("--suite", choices=("projbundle", "blowup"), required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="seed for the sampled layer of the projbundle suite")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "approx", False) and getattr(args, "json", False):
        print("--approx is a table-output feature; JSON carries exact values only",
              file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except CrossCheckError as exc:
        print(f"cross-check failure: {exc}", file=sys.stderr)
        return EXIT_CROSSCHECK
    except (DegenerateInputError, ResourceLimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
