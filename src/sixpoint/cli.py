"""Command line front end.

Subcommands: ``divisor``, ``git``, ``hypersurface``, ``m2``,
``paper-report``.  Exit codes: 0 on success, 1 when a verification fails
(the report battery or the duality sampler), 2 on usage or parse errors, so
the report doubles as a CI gate.  Identical invocations produce
byte-identical output; every rational is rendered exactly as ``p/q``.

Divisor expression grammar (whitespace-insensitive)::

    expr   := [sign] term (sign term)*
    term   := coef ['*'] symbol | symbol | coef
    coef   := integer | integer '/' integer
    symbol := 'B'<index> | 'K' | 'psi' | 'DA'

A bare coefficient is only allowed when it is zero (the zero divisor); the
'*' between a coefficient and its symbol is optional.  ``DA`` is the
quotient polarization and needs n = 6.

Configuration file format: one point per line, d+1 whitespace-separated
rationals (``p/q`` or integers); ``#`` starts a comment; blank lines are
ignored.  Weights are comma-separated rationals, inline or in a file.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import report as report_mod
from .divisors import (
    CCurve,
    FCurve,
    SymmetricDivisor,
    boundary,
    canonical_divisor,
    canonical_polarization,
    intersect_c_curve,
    intersect_f_curve,
    is_effective,
    mori_model,
    psi_divisor,
    stable_base_locus,
)
from .exact import parse_rational
from .genus2 import M2Divisor, Space, hassett_keel_divisor, m2_chamber, pullback_to_m06
from .hypersurfaces import (
    Hypersurface,
    duality_sample_check,
    evaluate,
    is_singular_point,
    line_intersections,
    pair_partition_lines,
    segre_nodes,
)
from .stability import (
    OneParameterSubgroup,
    PointConfiguration,
    WeightVector,
    lies_on_conic,
    one_parameter_limit,
    stability_status,
    stabilizer_dimension,
    symmetric_weights,
)
from .strata import classify_stratum, polystable_degeneration, stratum_signature

__all__ = ["main", "entry", "parse_divisor_expression", "parse_points_text", "CLIError"]


class CLIError(Exception):
    """Input that cannot be parsed or violates a precondition."""


_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<sym>B\d+|K|psi|DA)|(?P<op>[+\-*]))")


def parse_divisor_expression(text: str, n: int = 6) -> SymmetricDivisor:
    """Parse the divisor mini-language into a symmetric divisor."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise CLIError(f"parse error at position {pos}: unexpected {text[pos:].strip()[:1]!r}")
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    if not tokens:
        raise CLIError("empty divisor expression")

    def symbol_divisor(name: str, at: int) -> SymmetricDivisor:
        if name == "K":
            return canonical_divisor(n)
        if name == "psi":
            return psi_divisor(n)
        if name == "DA":
            if n != 6:
                raise CLIError(f"parse error at position {at}: DA needs n=6, got n={n}")
            return canonical_polarization()
        index = int(name[1:])
        if not 2 <= index <= n - 2:
            raise CLIError(
                f"parse error at position {at}: B{index} out of range 2..{n - 2}"
            )
        return boundary(n, index)

    total = SymmetricDivisor(n)
    i = 0
    first = True
    while i < len(tokens):
        sign = Fraction(1)
        kind, value, at = tokens[i]
        if kind == "op" and value in "+-":
            if value == "-":
                sign = -sign
            i += 1
        elif not first:
            raise CLIError(f"parse error at position {at}: expected '+' or '-'")
        first = False
        if i >= len(tokens):
            raise CLIError("parse error: dangling sign at end of expression")
        kind, value, at = tokens[i]
        coef = None
        if kind == "num":
            coef = parse_rational(value)
            i += 1
            if i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] == "*":
                i += 1
                if i >= len(tokens) or tokens[i][0] != "sym":
                    raise CLIError(f"parse error at position {at}: '*' without a symbol")
        if i < len(tokens) and tokens[i][0] == "sym":
            kind, value, at = tokens[i]
            term = symbol_divisor(value, at)
            i += 1
        elif coef is not None:
            if coef != 0:
                raise CLIError(
                    f"parse error at position {at}: bare constant {value} "
                    "(only the zero divisor may be written without a symbol)"
                )
            term = SymmetricDivisor(n)
        else:
            raise CLIError(f"parse error at position {at}: expected a term")
        total = total + (sign * (coef if coef is not None else 1)) * term
    return total


def _parse_rational_or_fail(text: str, context: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise CLIError(f"{context}: {exc}") from exc


def parse_points_text(text: str, dim: int) -> PointConfiguration:
    """Parse the point-per-line configuration format."""
    points = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != dim + 1:
            raise CLIError(
                f"line {lineno}: expected {dim + 1} coordinates, got {len(fields)}"
            )
        points.append(
            tuple(_parse_rational_or_fail(f, f"line {lineno}") for f in fields)
        )
    if not points:
        raise CLIError("configuration file contains no points")
    try:
        return PointConfiguration(dim, points)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc


def _parse_csv_rationals(text: str, context: str) -> list[Fraction]:
    fields = [f for f in text.split(",") if f.strip()]
    if not fields:
        raise CLIError(f"{context}: empty list")
    return [_parse_rational_or_fail(f, context) for f in fields]


def _parse_curve(text: str) -> FCurve | CCurve:
    head, _, body = text.partition(":")
    try:
        if head == "F":
            return FCurve(tuple(int(p) for p in body.split(",")))
        if head == "C":
            return CCurve(int(body))
    except ValueError as exc:
        raise CLIError(f"bad curve spec {text!r}: {exc}") from exc
    raise CLIError(f"bad curve spec {text!r} (use F:a,b,c,d or C:j)")


def _load_weights(args, config: PointConfiguration) -> WeightVector:
    if getattr(args, "weights", None) and getattr(args, "weights_file", None):
        raise CLIError("give --weights or --weights-file, not both")
    text = None
    if getattr(args, "weights", None):
        text = args.weights
    elif getattr(args, "weights_file", None):
        text = _read_file(args.weights_file)
        text = " ".join(
            line.split("#", 1)[0] for line in text.splitlines()
        ).strip()
    if text is None:
        return symmetric_weights(config.n, config.d)
    values = _parse_csv_rationals(text, "weights")
    try:
        return WeightVector(config.d, values)
    except ValueError as exc:
        raise CLIError(f"weights: {exc}") from exc


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise CLIError(f"cannot read {path}: {exc}") from exc


def _emit(args, lines: list[str], payload: dict) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def _divisor_payload(div: SymmetricDivisor) -> dict:
    return {
        "n": div.n,
        "divisor": str(div),
        "coefficients": {
            f"B{i}": str(div.coefficient(i)) for i in range(2, div.n // 2 + 1)
        },
    }


def _cmd_divisor(args) -> int:
    div = parse_divisor_expression(args.expr, args.n)
    if args.action == "eval":
        payload = _divisor_payload(div)
        lines = [f"n: {div.n}", f"D = {div}"] + [
            f"B{i}: {div.coefficient(i)}" for i in range(2, div.n // 2 + 1)
        ]
        _emit(args, lines, payload)
        return 0
    if args.action == "intersect":
        if not args.curve:
            raise CLIError("intersect needs --curve (F:a,b,c,d or C:j)")
        curve = _parse_curve(args.curve)
        if isinstance(curve, FCurve):
            value = intersect_f_curve(div, curve)
        else:
            value = intersect_c_curve(div, curve)
        _emit(
            args,
            [f"D = {div}", f"curve: {curve}", f"intersection: {value}"],
            {"divisor": str(div), "curve": str(curve), "intersection": str(value)},
        )
        return 0
    if args.action == "chamber":
        rep = mori_model(div)
        _emit(
            args,
            [
                f"D = {div}",
                f"model: {rep.model.value}",
                f"stable base locus: {rep.stable_base_locus.value}",
                f"wall: {str(rep.boundary_case).lower()}",
            ],
            {
                "divisor": str(div),
                "model": rep.model.value,
                "stableBaseLocus": rep.stable_base_locus.value,
                "boundaryCase": rep.boundary_case,
            },
        )
        return 0
    # baselocus
    if not is_effective(div):
        raise CLIError(f"divisor {div} is not effective; no stable base locus")
    locus = stable_base_locus(div)
    _emit(
        args,
        [f"D = {div}", f"stable base locus: {locus.value}"],
        {"divisor": str(div), "stableBaseLocus": locus.value},
    )
    return 0


def _witness_lines(verdict) -> list[str]:
    out = []
    for w in verdict.witnesses:
        marks = ",".join(str(i + 1) for i in w.marks)
        kind = "violation" if w.violation else "equality"
        out.append(f"witness: dim {w.dim} marks {marks} weight {w.weight} {kind}")
    return out


def _witness_payload(verdict) -> list[dict]:
    return [
        {
            "dim": w.dim,
            "marks": [i + 1 for i in w.marks],
            "weight": str(w.weight),
            "violation": w.violation,
        }
        for w in verdict.witnesses
    ]


def _config_lines(config: PointConfiguration) -> list[str]:
    return [" ".join(str(x) for x in p) for p in config.points]


def _cmd_git(args) -> int:
    config = parse_points_text(_read_file(args.config), args.dim)
    if args.action == "stability":
        weights = _load_weights(args, config)
        verdict = stability_status(config, weights)
        lines = [
            f"points: {config.n} in P^{config.d}",
            f"weights: {','.join(str(w) for w in weights.weights)}",
            f"status: {verdict.status.value}",
        ] + _witness_lines(verdict)
        _emit(
            args,
            lines,
            {
                "n": config.n,
                "d": config.d,
                "weights": [str(w) for w in weights.weights],
                "status": verdict.status.value,
                "witnesses": _witness_payload(verdict),
            },
        )
        return 0
    if args.action == "stratum":
        weights = _load_weights(args, config)
        verdict = stability_status(config, weights)
        sig = stratum_signature(config)
        label = classify_stratum(sig, verdict)
        stab = stabilizer_dimension(config)
        lines = [
            f"status: {verdict.status.value}",
            f"stratum: {label}",
            f"stabilizer dimension: {stab}",
            "coincidence: "
            + " ".join("{" + ",".join(str(i + 1) for i in cls) + "}" for cls in sig.coincidence),
        ]
        for rec in sig.lines:
            marks = ",".join(str(i + 1) for i in rec.marks)
            lines.append(
                f"line: marks {marks} ({rec.support} points, weight {rec.weighted})"
            )
        _emit(
            args,
            lines,
            {
                "status": verdict.status.value,
                "stratum": label,
                "stabilizerDimension": stab,
                "coincidence": [[i + 1 for i in cls] for cls in sig.coincidence],
                "lines": [
                    {
                        "marks": [i + 1 for i in rec.marks],
                        "support": rec.support,
                        "weighted": rec.weighted,
                    }
                    for rec in sig.lines
                ],
            },
        )
        return 0
    if args.action == "limit":
        if not args.lps:
            raise CLIError("limit needs --lps w0,w1,... (diagonal subgroup weights)")
        try:
            weights = [int(w) for w in args.lps.split(",")]
            subgroup = OneParameterSubgroup(weights)
        except ValueError as exc:
            raise CLIError(f"bad subgroup weights {args.lps!r}: {exc}") from exc
        limit = one_parameter_limit(config, subgroup)
        lines = [f"# limit under subgroup weights ({args.lps})"] + _config_lines(limit)
        _emit(
            args,
            lines,
            {
                "subgroup": weights,
                "points": [[str(x) for x in p] for p in limit.points],
            },
        )
        return 0
    if args.action == "degenerate":
        closed, label = polystable_degeneration(config)
        lines = [f"stratum: {label}", "# closed-orbit configuration"] + _config_lines(closed)
        _emit(
            args,
            lines,
            {
                "stratum": label,
                "points": [[str(x) for x in p] for p in closed.points],
            },
        )
        return 0
    # conic
    answer = lies_on_conic(config)
    _emit(args, [f"on conic: {str(answer).lower()}"], {"onConic": answer})
    return 0


_SURFACES = {"segre": Hypersurface.SEGRE_CUBIC, "igusa": Hypersurface.IGUSA_QUARTIC}


def _cmd_hypersurface(args) -> int:
    if args.action in ("eval", "singular"):
        if not args.surface or not args.point:
            raise CLIError(f"{args.action} needs --surface and --point")
        surface = _SURFACES[args.surface]
        coords = _parse_csv_rationals(args.point, "point")
        if len(coords) != 6:
            raise CLIError(f"point needs 6 coordinates, got {len(coords)}")
        if args.action == "eval":
            linear, form = evaluate(surface, coords)
            _emit(
                args,
                [
                    f"surface: {surface.value}",
                    f"linear form: {linear}",
                    f"degree form: {form}",
                ],
                {
                    "surface": surface.value,
                    "linearForm": str(linear),
                    "degreeForm": str(form),
                },
            )
            return 0
        singular = is_singular_point(surface, coords)
        _emit(
            args,
            [f"surface: {surface.value}", f"singular: {str(singular).lower()}"],
            {"surface": surface.value, "singular": singular},
        )
        return 0
    if args.action == "lines":
        lines = pair_partition_lines()
        crossings = line_intersections()
        per_line = {i: sum(i in t for t in crossings.values()) for i in range(len(lines))}
        meets = sorted(set(per_line.values()))
        through_counts = sorted({len(t) for t in crossings.values()})
        out = [f"{len(lines)} pair-partition lines on the quartic"]
        out += [f"L{i + 1:02d}: {line}" for i, line in enumerate(lines)]
        out.append(
            "incidence: each line meets the others in "
            + "/".join(str(v) for v in meets)
            + " points; each intersection point lies on "
            + "/".join(str(v) for v in through_counts)
            + " lines"
        )
        _emit(
            args,
            out,
            {
                "count": len(lines),
                "lines": [str(line) for line in lines],
                "intersectionPointsPerLine": meets,
                "linesPerIntersectionPoint": through_counts,
            },
        )
        return 0
    if args.action == "nodes":
        nodes = segre_nodes()
        out = [f"{len(nodes)} nodes on the cubic"]
        out += [" ".join(str(x) for x in node) for node in nodes]
        _emit(
            args,
            out,
            {"count": len(nodes), "nodes": [[str(x) for x in node] for node in nodes]},
        )
        return 0
    # duality
    report = duality_sample_check(args.samples, seed=args.seed)
    _emit(
        args,
        [
            f"samples: {report.samples}",
            f"rational samples: {report.exact_samples}",
            f"skipped: {report.skipped}",
            f"nonzero residuals: {report.nonzero_residuals}",
            f"seed: {report.seed}",
            f"pass: {str(report.passed).lower()}",
        ],
        {
            "samples": report.samples,
            "skipped": report.skipped,
            "nonzeroResiduals": report.nonzero_residuals,
            "pass": report.passed,
            "seed": report.seed,
        },
    )
    return 0 if report.passed else 1


def _cmd_m2(args) -> int:
    stack_flags = args.delta0 is not None or args.delta1 is not None
    coarse_flags = args.Delta0 is not None or args.Delta1 is not None
    if stack_flags and coarse_flags:
        raise CLIError("stack (--delta0/--delta1) and coarse (--Delta0/--Delta1) flags do not mix")
    if args.alpha is not None and (stack_flags or coarse_flags or args.lam is not None):
        raise CLIError("--alpha does not combine with divisor coefficient flags")
    if args.alpha is not None:
        alpha = _parse_rational_or_fail(args.alpha, "--alpha")
        div = hassett_keel_divisor(alpha)
        header = [f"alpha: {alpha}"]
        payload: dict = {"alpha": str(alpha)}
    else:
        if args.lam is None and not stack_flags and not coarse_flags:
            raise CLIError("give --alpha or at least one divisor coefficient flag")
        space = Space.COARSE if coarse_flags else Space.STACK
        lam = _parse_rational_or_fail(args.lam, "--lambda") if args.lam else Fraction(0)
        if coarse_flags:
            d0 = _parse_rational_or_fail(args.Delta0, "--Delta0") if args.Delta0 else Fraction(0)
            d1 = _parse_rational_or_fail(args.Delta1, "--Delta1") if args.Delta1 else Fraction(0)
        else:
            d0 = _parse_rational_or_fail(args.delta0, "--delta0") if args.delta0 else Fraction(0)
            d1 = _parse_rational_or_fail(args.delta1, "--delta1") if args.delta1 else Fraction(0)
        div = M2Divisor(space, lam, d0, d1)
        header = []
        payload = {}
    b0, b1 = div.boundary_form()
    basis = ("delta0", "delta1") if div.space == Space.STACK else ("Delta0", "Delta1")
    pulled = pullback_to_m06(div)
    rep = m2_chamber(div)
    lines = header + [
        f"space: {div.space.value}",
        f"boundary form: {b0}*{basis[0]} + {b1}*{basis[1]}",
        f"pullback: {pulled}",
        f"model: {rep.model.value}",
        f"wall: {str(rep.boundary_case).lower()}",
    ]
    payload.update(
        {
            "space": div.space.value,
            "boundaryForm": {basis[0]: str(b0), basis[1]: str(b1)},
            "pullback": str(pulled),
            "model": rep.model.value,
            "boundaryCase": rep.boundary_case,
        }
    )
    _emit(args, lines, payload)
    return 0


def _cmd_paper_report(args) -> int:
    report = report_mod.build_report(duality_samples=args.samples, duality_seed=args.seed)
    if args.json:
        payload = {
            "pass": report.passed,
            "checks": report.total_checks,
            "groups": [
                {
                    "name": g.name,
                    "pass": g.passed,
                    "checks": [
                        {
                            "name": c.name,
                            "expected": c.expected,
                            "computed": c.computed,
                            "pass": c.passed,
                        }
                        for c in g.checks
                    ],
                }
                for g in report.groups
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        for group in report.groups:
            print(f"[{group.name}]")
            for check in group.checks:
                if check.passed:
                    print(f"  ok   {check.name} = {check.computed}")
                else:
                    print(
                        f"  FAIL {check.name}: expected {check.expected},"
                        f" computed {check.computed}"
                    )
        passed = report.total_checks - len(report.failures())
        print(f"summary: {passed}/{report.total_checks} checks passed")
    return 0 if report.passed else 1


def _positive_int(text: str) -> int:
    """argparse type for sample counts, so a bad count fails before any work."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sixpoint",
        description="Exact toolkit for symmetric divisors on the six-pointed "
        "moduli space: intersection numbers, chamber lookup, GIT stability "
        "of plane configurations, and the cubic/quartic threefold geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_div = sub.add_parser("divisor", help="divisor-class arithmetic and chamber lookup")
    p_div.add_argument("action", choices=("eval", "intersect", "chamber", "baselocus"))
    p_div.add_argument("--expr", required=True, help="divisor expression, e.g. 'K + 1/3*psi'")
    p_div.add_argument("--n", type=int, default=6, help="number of marked points (default 6)")
    p_div.add_argument("--curve", help="curve for intersect: F:a,b,c,d or C:j")
    p_div.add_argument("--json", action="store_true")

    p_git = sub.add_parser("git", help="stability of weighted point configurations")
    p_git.add_argument("action", choices=("stability", "stratum", "limit", "degenerate", "conic"))
    p_git.add_argument("config", help="configuration file, one point per line")
    p_git.add_argument("--dim", type=int, default=2, help="ambient projective dimension (default 2)")
    p_git.add_argument("--weights", help="comma-separated weights (default symmetric)")
    p_git.add_argument("--weights-file", help="file holding comma-separated weights")
    p_git.add_argument("--lps", help="diagonal subgroup weights for 'limit', e.g. 2,-1,-1")
    p_git.add_argument("--json", action="store_true")

    p_hyp = sub.add_parser("hypersurface", help="cubic and quartic threefold checks")
    p_hyp.add_argument("action", choices=("eval", "singular", "lines", "nodes", "duality"))
    p_hyp.add_argument("--surface", choices=sorted(_SURFACES))
    p_hyp.add_argument("--point", help="six comma-separated rational coordinates")
    p_hyp.add_argument("--samples", type=_positive_int, default=100)
    p_hyp.add_argument("--seed", type=int, default=0)
    p_hyp.add_argument("--json", action="store_true")

    p_m2 = sub.add_parser("m2", help="genus-two divisor bridge and chamber lookup")
    p_m2.add_argument("--alpha", help="log-canonical slice parameter p/q")
    p_m2.add_argument("--lambda", dest="lam", help="Hodge class coefficient p/q")
    p_m2.add_argument("--delta0", help="stack boundary coefficient p/q")
    p_m2.add_argument("--delta1", help="stack boundary coefficient p/q")
    p_m2.add_argument("--Delta0", help="coarse boundary coefficient p/q")
    p_m2.add_argument("--Delta1", help="coarse boundary coefficient p/q")
    p_m2.add_argument("--json", action="store_true")

    p_rep = sub.add_parser("paper-report", help="run the full battery of golden checks")
    p_rep.add_argument("--samples", type=_positive_int, default=60, help="duality sample count")
    p_rep.add_argument("--seed", type=int, default=7)
    p_rep.add_argument("--json", action="store_true")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    dispatch = {
        "divisor": _cmd_divisor,
        "git": _cmd_git,
        "hypersurface": _cmd_hypersurface,
        "m2": _cmd_m2,
        "paper-report": _cmd_paper_report,
    }
    try:
        return dispatch[args.command](args)
    except (CLIError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
