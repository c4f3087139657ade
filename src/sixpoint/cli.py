"""Command line front end.

Subcommands: ``divisor``, ``git``, ``hypersurface``, ``m2``,
``paper-report``.  Each action of ``divisor``, ``git`` and ``hypersurface``
has its own argparse parser that declares exactly the flags the action
reads, so ``sixpoint <command> <action> -h`` lists them and argparse rejects
any other flag.  Each action (and ``m2`` and ``paper-report``) is one
function, which its parser sets as ``run``: it returns the text lines and
the JSON payload, both rendered from the values it computes once, and
``main`` prints one of them, the payload under ``--json``.  A cold start
pays only for the command it runs: each action imports its library
modules when it runs, and only the parser of the command that argv names
gets its actions and flags (``sixpoint -h`` still lists every command).
Exit codes: 0 on success, 1 when a verification fails (a payload with
``"pass": false``, from the report battery or the duality sampler), 2 on
usage or parse errors, so the report doubles as a CI gate.  Identical invocations
produce byte-identical output; every rational is rendered exactly as
``p/q``.

Divisor expression grammar (whitespace-insensitive)::

    expr   := [sign] term (sign term)*
    term   := coef ['*'] symbol | symbol | coef
    coef   := integer | integer '/' integer
    symbol := 'B'<index> | 'K' | 'psi' | 'DA'

A bare coefficient is only allowed when it is zero (the zero divisor); the
'*' between a coefficient and its symbol is optional.  The number of
marked points n is ``--n`` for ``divisor eval`` and ``intersect`` and 6
for ``chamber`` and ``baselocus``; ``DA`` is the quotient polarization and
needs n = 6.  An expression that starts with a minus is passed as
``--expr=-K``: argparse reads ``--expr -K`` as two flags.

Configuration file format: one point per line, d+1 whitespace-separated
rationals (``p/q`` or integers), d being ``--dim`` for ``git stability``
and ``limit`` and 2 for the other actions; blank lines are ignored.
Weights (``git stability`` only) are comma-separated rationals, inline or
in a file, where a line break also separates two weights.  In both files
``#`` starts a comment, and a leading UTF-8 byte-order mark is skipped.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .exact import _check_digit_count, _clipped, parse_rational

if TYPE_CHECKING:
    from .divisors import CCurve, FCurve, SymmetricDivisor
    from .stability import PointConfiguration

__all__ = ["main", "entry", "parse_divisor_expression", "parse_points_text", "CLIError"]


class CLIError(Exception):
    """Input that cannot be parsed or violates a precondition."""


# one signed term, every part optional; parse_divisor_expression decides
# which combinations of the parts are terms.  ASCII: \d would also match
# other scripts' digits ('٣'), which int() and Fraction read
_TERM = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:(?P<coef>\d+(?:/\d+)?)\s*(?P<star>\*)?\s*)?"
    r"(?P<symbol>B\d+|K|psi|DA)?\s*",
    re.ASCII,
)


def parse_divisor_expression(text: str, n: int = 6) -> SymmetricDivisor:
    """Parse the divisor mini-language into a symmetric divisor."""
    from .divisors import (
        SymmetricDivisor, boundary, canonical_divisor, canonical_polarization, psi_divisor,
    )

    if not text.strip():
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
        try:
            _check_digit_count(name[1:])
        except ValueError as exc:
            raise CLIError(f"parse error at position {at}: {exc}") from None
        index = int(name[1:])
        if not 2 <= index <= n - 2:
            raise CLIError(
                f"parse error at position {at}: B{index} out of range 2..{n - 2}"
            )
        return boundary(n, index)

    total = SymmetricDivisor(n)
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        sign, coef, star, symbol = m.group("sign", "coef", "star", "symbol")
        if coef is None and symbol is None:
            # a term ends in whitespace it consumed, so only a sign can reach the end
            if m.end() == len(text):
                raise CLIError("parse error: dangling sign at end of expression")
            raise CLIError(f"parse error at position {m.end()}: unexpected {text[m.end()]!r}")
        at = m.start("coef" if coef is not None else "symbol")
        if sign is None and pos > 0:
            raise CLIError(f"parse error at position {at}: expected '+' or '-'")
        value = Fraction(1) if coef is None else _parse_rational_or_fail(coef, f"parse error at position {at}")
        if symbol is not None:
            term = symbol_divisor(symbol, m.start("symbol"))
            total = total + (-value if sign == "-" else value) * term
        elif m.end() < len(text) and text[m.end()] not in "+-":
            raise CLIError(f"parse error at position {m.end()}: unexpected {text[m.end()]!r}")
        elif star is not None or value != 0:
            raise CLIError(
                f"parse error at position {at}: {coef}{star or ''} needs a symbol"
                " (only the zero divisor is written without one)"
            )
        pos = m.end()
    return total


def _parse_rational_or_fail(text: str, context: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise CLIError(f"{context}: {exc}") from exc


def parse_points_text(text: str, dim: int) -> PointConfiguration:
    """Parse the point-per-line configuration format."""
    from .stability import PointConfiguration

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


def _csv_fields(text: str, flag: str) -> list[str]:
    """The comma-separated fields of a flag's value, none of them blank."""
    fields = text.split(",")
    for position, field in enumerate(fields, start=1):
        if not field.strip():
            raise CLIError(f"{flag}: field {position} of {len(fields)} is empty")
    return fields


# int() also reads other scripts' digits ('٢') and underscores between digits
_INTEGER_FIELD = re.compile(r"\s*[+-]?[0-9]+\s*", re.ASCII)


def _csv_integers(text: str, flag: str) -> list[int]:
    """The comma-separated fields of a flag's value, each an optionally
    signed run of ASCII digits that int() converts."""
    fields = _csv_fields(text, flag)
    for position, field in enumerate(fields, start=1):
        where = f"{flag}: field {position} of {len(fields)}"
        if not _INTEGER_FIELD.fullmatch(field):
            raise CLIError(f"{where} is not an integer: {field!r}")
        try:
            _check_digit_count(field)
        except ValueError as exc:
            raise CLIError(f"{where}: {exc}") from None
    return [int(field) for field in fields]


def _parse_csv_rationals(text: str, context: str, flag: str) -> list[Fraction]:
    if not text.strip():
        raise CLIError(f"{context}: empty list")
    return [_parse_rational_or_fail(f, context) for f in _csv_fields(text, flag)]


def _parse_curve(text: str) -> FCurve | CCurve:
    from .divisors import CCurve, FCurve

    def integer(field: str) -> int:
        if not _INTEGER_FIELD.fullmatch(field):
            raise ValueError(f"not an integer: {field!r}")
        _check_digit_count(field)
        return int(field)

    head, _, body = text.partition(":")
    try:
        if head == "F":
            return FCurve(tuple(integer(p) for p in body.split(",")))
        if head == "C":
            return CCurve(integer(body))
    except ValueError as exc:
        raise CLIError(f"bad curve spec {_clipped(text)}: {exc}") from exc
    raise CLIError(f"bad curve spec {text!r} (use F:a,b,c,d or C:j)")


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            return handle.read()
    except OSError as exc:
        raise CLIError(f"cannot read {path}: {exc}") from exc


def _listed(numbers) -> str:
    return ",".join(map(str, numbers))


def _divisor_eval(args) -> tuple[list[str], dict]:
    div = parse_divisor_expression(args.expr, args.n)
    coefficients = {f"B{i}": str(div.coefficient(i)) for i in range(2, div.n // 2 + 1)}
    lines = [f"n: {div.n}", f"D = {div}"] + [f"{b}: {c}" for b, c in coefficients.items()]
    return lines, {"n": div.n, "divisor": str(div), "coefficients": coefficients}


def _divisor_intersect(args) -> tuple[list[str], dict]:
    from .divisors import FCurve, intersect_c_curve, intersect_f_curve

    div = parse_divisor_expression(args.expr, args.n)
    curve = _parse_curve(args.curve)
    intersect = intersect_f_curve if isinstance(curve, FCurve) else intersect_c_curve
    value = intersect(div, curve)
    lines = [f"D = {div}", f"curve: {curve}", f"intersection: {value}"]
    return lines, {"divisor": str(div), "curve": str(curve), "intersection": str(value)}


def _divisor_chamber(args) -> tuple[list[str], dict]:
    from .divisors import mori_model

    div = parse_divisor_expression(args.expr)
    rep = mori_model(div)
    model, locus, wall = rep.model.value, rep.stable_base_locus.value, rep.boundary_case
    lines = [
        f"D = {div}",
        f"model: {model}",
        f"stable base locus: {locus}",
        f"wall: {str(wall).lower()}",
    ]
    payload = {"divisor": str(div), "model": model, "stableBaseLocus": locus, "boundaryCase": wall}
    return lines, payload


def _divisor_baselocus(args) -> tuple[list[str], dict]:
    from .divisors import stable_base_locus

    div = parse_divisor_expression(args.expr)
    locus = stable_base_locus(div).value
    lines = [f"D = {div}", f"stable base locus: {locus}"]
    return lines, {"divisor": str(div), "stableBaseLocus": locus}


def _git_stability(args) -> tuple[list[str], dict]:
    from .stability import WeightVector, stability_status, symmetric_weights

    config = parse_points_text(_read_file(args.config), args.dim)
    text, flag = args.weights, "--weights"
    if args.weights_file is not None:
        text, flag = _read_file(args.weights_file), "--weights-file"
        rows = [kept for line in text.splitlines() if (kept := line.split("#", 1)[0].strip())]
        # a line break separates two weights, unless the line ends in a comma
        text = ",".join([row.removesuffix(",") for row in rows[:-1]] + rows[-1:])
    if text is None:
        weights = symmetric_weights(config.n, config.d)
    else:
        parsed = _parse_csv_rationals(text, "weights", flag)
        try:
            weights = WeightVector(config.d, parsed)
        except ValueError as exc:
            raise CLIError(f"weights: {exc}") from exc
    verdict = stability_status(config, weights)
    values = [str(w) for w in weights.weights]
    lines = [
        f"points: {config.n} in P^{config.d}",
        f"weights: {','.join(values)}",
        f"status: {verdict.status.value}",
    ]
    witnesses = []
    for w in verdict.witnesses:
        marks, weight = [i + 1 for i in w.marks], str(w.weight)
        kind = "violation" if w.violation else "equality"
        lines.append(f"witness: dim {w.dim} marks {_listed(marks)} weight {weight} {kind}")
        witnesses.append({"dim": w.dim, "marks": marks, "weight": weight, "violation": w.violation})
    payload = {
        "n": config.n,
        "d": config.d,
        "weights": values,
        "status": verdict.status.value,
        "witnesses": witnesses,
    }
    return lines, payload


def _git_stratum(args) -> tuple[list[str], dict]:
    from .stability import stability_status, stabilizer_dimension, symmetric_weights
    from .strata import classify_stratum, stratum_signature

    config = parse_points_text(_read_file(args.config), 2)
    if config.n != 6:
        raise CLIError("strata I-XI are defined for six points in the plane")
    verdict = stability_status(config, symmetric_weights(6, 2))
    sig = stratum_signature(config)
    label = classify_stratum(sig, verdict)
    stab = stabilizer_dimension(config)
    coincidence = [[i + 1 for i in cls] for cls in sig.coincidence]
    lines = [
        f"status: {verdict.status.value}",
        f"stratum: {label}",
        f"stabilizer dimension: {stab}",
        "coincidence: " + " ".join("{" + _listed(c) + "}" for c in coincidence),
    ]
    records = []
    for rec in sig.lines:
        marks = [i + 1 for i in rec.marks]
        support, weighted = rec.support, rec.weighted
        lines.append(f"line: marks {_listed(marks)} ({support} points, weight {weighted})")
        records.append({"marks": marks, "support": support, "weighted": weighted})
    payload = {
        "status": verdict.status.value,
        "stratum": label,
        "stabilizerDimension": stab,
        "coincidence": coincidence,
        "lines": records,
    }
    return lines, payload


def _git_limit(args) -> tuple[list[str], dict]:
    from .stability import OneParameterSubgroup, one_parameter_limit

    config = parse_points_text(_read_file(args.config), args.dim)
    weights = _csv_integers(args.lps, "--lps")
    try:
        subgroup = OneParameterSubgroup(weights)
    except ValueError as exc:
        raise CLIError(f"bad subgroup weights {args.lps!r}: {exc}") from exc
    points = [[str(x) for x in p] for p in one_parameter_limit(config, subgroup).points]
    lines = [f"# limit under subgroup weights ({args.lps})"] + [" ".join(p) for p in points]
    return lines, {"subgroup": weights, "points": points}


def _git_degenerate(args) -> tuple[list[str], dict]:
    from .strata import polystable_degeneration

    closed, label = polystable_degeneration(parse_points_text(_read_file(args.config), 2))
    points = [[str(x) for x in p] for p in closed.points]
    lines = [f"stratum: {label}", "# closed-orbit configuration"] + [" ".join(p) for p in points]
    return lines, {"stratum": label, "points": points}


def _git_conic(args) -> tuple[list[str], dict]:
    from .stability import lies_on_conic

    answer = lies_on_conic(parse_points_text(_read_file(args.config), 2))
    return [f"on conic: {str(answer).lower()}"], {"onConic": answer}


# --surface value -> Hypersurface member name
_SURFACES = {"segre": "SEGRE_CUBIC", "igusa": "IGUSA_QUARTIC"}


def _surface_point(args):
    """The ``--surface`` and the checked ``--point`` of ``eval`` and ``singular``."""
    from .hypersurfaces import Hypersurface

    surface = Hypersurface[_SURFACES[args.surface]]
    coords = _parse_csv_rationals(args.point, "point", "--point")
    if len(coords) != 6:
        raise CLIError(f"point needs 6 coordinates, got {len(coords)}")
    if not any(coords):
        raise CLIError("zero vector is not a projective point")
    return surface, coords


def _hypersurface_eval(args) -> tuple[list[str], dict]:
    from .hypersurfaces import evaluate

    surface, coords = _surface_point(args)
    linear, form = evaluate(surface, coords)
    lines = [f"surface: {surface.value}", f"linear form: {linear}", f"degree form: {form}"]
    return lines, {"surface": surface.value, "linearForm": str(linear), "degreeForm": str(form)}


def _hypersurface_singular(args) -> tuple[list[str], dict]:
    from .hypersurfaces import is_singular_point

    surface, coords = _surface_point(args)
    singular = is_singular_point(surface, coords)
    lines = [f"surface: {surface.value}", f"singular: {str(singular).lower()}"]
    return lines, {"surface": surface.value, "singular": singular}


def _hypersurface_lines(args) -> tuple[list[str], dict]:
    from .hypersurfaces import line_intersections, pair_partition_lines

    names = [str(line) for line in pair_partition_lines()]
    through = line_intersections().values()
    meets = sorted({sum(i in t for t in through) for i in range(len(names))})
    through_counts = sorted({len(t) for t in through})
    lines = [f"{len(names)} pair-partition lines on the quartic"]
    lines += [f"L{i:02d}: {name}" for i, name in enumerate(names, start=1)]
    lines.append(
        f"incidence: each line meets the others in {'/'.join(map(str, meets))} points;"
        f" each intersection point lies on {'/'.join(map(str, through_counts))} lines"
    )
    payload = {
        "count": len(names),
        "lines": names,
        "intersectionPointsPerLine": meets,
        "linesPerIntersectionPoint": through_counts,
    }
    return lines, payload


def _hypersurface_nodes(args) -> tuple[list[str], dict]:
    from .hypersurfaces import segre_nodes

    nodes = [[str(x) for x in node] for node in segre_nodes()]
    lines = [f"{len(nodes)} nodes on the cubic"] + [" ".join(node) for node in nodes]
    return lines, {"count": len(nodes), "nodes": nodes}


def _hypersurface_duality(args) -> tuple[list[str], dict]:
    from .hypersurfaces import duality_sample_check

    report = duality_sample_check(args.samples, seed=args.seed)
    lines = [
        f"samples: {report.samples}",
        f"rational samples: {report.exact_samples}",
        f"skipped: {report.skipped}",
        f"nonzero residuals: {report.nonzero_residuals}",
        f"seed: {report.seed}",
        f"pass: {str(report.passed).lower()}",
    ]
    payload = {
        "samples": report.samples,
        "rationalSamples": report.exact_samples,
        "skipped": report.skipped,
        "nonzeroResiduals": report.nonzero_residuals,
        "pass": report.passed,
        "seed": report.seed,
    }
    return lines, payload


def _m2(args) -> tuple[list[str], dict]:
    from .divisors import _linear_form
    from .genus2 import M2Divisor, Space, hassett_keel_divisor, m2_chamber, pullback_to_m06

    stack_flags = args.delta0 is not None or args.delta1 is not None
    coarse_flags = args.Delta0 is not None or args.Delta1 is not None
    if stack_flags and coarse_flags:
        raise CLIError("stack (--delta0/--delta1) and coarse (--Delta0/--Delta1) flags do not mix")
    if args.alpha is not None and (stack_flags or coarse_flags or args.lam is not None):
        raise CLIError("--alpha does not combine with divisor coefficient flags")
    if args.alpha is not None:
        alpha = _parse_rational_or_fail(args.alpha, "--alpha")
        div = hassett_keel_divisor(alpha)
        lines, payload = [f"alpha: {alpha}"], {"alpha": str(alpha)}
    else:
        if args.lam is None and not stack_flags and not coarse_flags:
            raise CLIError("give --alpha or at least one divisor coefficient flag")
        space = Space.COARSE if coarse_flags else Space.STACK

        def coefficient(text, flag):
            return Fraction(0) if text is None else _parse_rational_or_fail(text, flag)

        if coarse_flags:
            d0, d1 = coefficient(args.Delta0, "--Delta0"), coefficient(args.Delta1, "--Delta1")
        else:
            d0, d1 = coefficient(args.delta0, "--delta0"), coefficient(args.delta1, "--delta1")
        div = M2Divisor(space, coefficient(args.lam, "--lambda"), d0, d1)
        lines, payload = [], {}
    b0, b1 = div.boundary_form()
    basis = ("delta0", "delta1") if div.space == Space.STACK else ("Delta0", "Delta1")
    pulled = pullback_to_m06(div)
    rep = m2_chamber(div)
    lines += [
        f"space: {div.space.value}",
        f"boundary form: {_linear_form(zip((b0, b1), basis))}",
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
    return lines, payload


def _paper_report(args) -> tuple[list[str], dict]:
    from .report import build_report

    report = build_report()
    lines, groups = [], []
    for group in report.groups:
        lines.append(f"[{group.name}]")
        lines += [
            f"  ok   {c.name} = {c.computed}" if c.passed
            else f"  FAIL {c.name}: expected {c.expected}, computed {c.computed}"
            for c in group.checks
        ]
        checks = [
            {"name": c.name, "expected": c.expected, "computed": c.computed, "pass": c.passed}
            for c in group.checks
        ]
        groups.append({"name": group.name, "pass": group.passed, "checks": checks})
    passed = sum(c.passed for group in report.groups for c in group.checks)
    lines.append(f"summary: {passed}/{report.total_checks} checks passed")
    return lines, {"pass": report.passed, "checks": report.total_checks, "groups": groups}


def _argument_int(text: str, least: int, expected: str) -> int:
    """An argparse type's value: ASCII digits only (``str.isdigit`` passes
    ``'²'``, which int refuses, and ``'١'``) that int() converts, at least
    ``least``.  argparse reports an ArgumentTypeError's own message."""
    try:
        _check_digit_count(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not (text.isascii() and text.isdigit()) or int(text) < least:
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return int(text)


def _positive_int(text: str) -> int:
    """argparse type for ``--samples``, ``--dim`` and ``--n``: a bad value
    is a usage error before any file is read or work is done."""
    return _argument_int(text, 1, "a positive integer")


def _nonnegative_int(text: str) -> int:
    """argparse type for ``--seed``: random.Random(-s) is seeded like
    Random(s), so a negative seed would repeat another seed's draws under
    its own name."""
    return _argument_int(text, 0, "a nonnegative integer")


_COMMANDS = {
    "divisor": "divisor-class arithmetic and chamber lookup",
    "git": "stability of weighted point configurations",
    "hypersurface": "cubic and quartic threefold checks",
    "m2": "genus-two divisor bridge and chamber lookup",
    "paper-report": "run the full battery of golden checks",
}


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sixpoint",
        description="Exact toolkit for symmetric divisors on the six-pointed "
        "moduli space: intersection numbers, chamber lookup, GIT stability "
        "of plane configurations, and the cubic/quartic threefold geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # argparse takes the value of a flag put before the command for the command
    parser.error = lambda message: argparse.ArgumentParser.error(
        parser, message + _value_as_choice_hint(argv, sub.choices, message, "command")
    )
    commands = {name: sub.add_parser(name, help=summary) for name, summary in _COMMANDS.items()}
    # the root parser declares no flag that takes a value, so argparse runs
    # the first command argv names: only that command gets its flags
    command = next((token for token in argv if token in commands), None)
    if command is None:
        return parser
    command_parser = commands[command]

    # each action gets its own parser, declaring exactly the flags it reads;
    # parent parsers hold the flags that several actions share
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true")

    def actions(parent, **runs) -> dict:
        action_parsers = command_parser.add_subparsers(dest="action", required=True)
        parsers = {name: action_parsers.add_parser(name, parents=[parent]) for name in runs}
        for name, action_parser in parsers.items():
            action_parser.set_defaults(run=runs[name], leaf=action_parser)
        # argparse takes the value of a flag put before the action for the action
        command_parser.error = lambda message: argparse.ArgumentParser.error(
            command_parser, message + _value_as_choice_hint(argv, parsers, message, "action")
        )
        return parsers

    if command == "divisor":
        expr = argparse.ArgumentParser(add_help=False, parents=[as_json])
        expr.add_argument(
            "--expr",
            required=True,
            help="divisor expression, e.g. 'K + 1/3*psi'; write one that starts "
            "with a minus as --expr=-K",
        )
        div = actions(
            expr, eval=_divisor_eval, intersect=_divisor_intersect, chamber=_divisor_chamber,
            baselocus=_divisor_baselocus,
        )
        for name in ("eval", "intersect"):
            div[name].add_argument("--n", type=_positive_int, default=6, help="number of marked points (default 6)")
        div["intersect"].add_argument("--curve", required=True, help="F:a,b,c,d or C:j")
    elif command == "git":
        config = argparse.ArgumentParser(add_help=False, parents=[as_json])
        config.add_argument("config", help="configuration file, one point per line")
        git = actions(
            config, stability=_git_stability, stratum=_git_stratum, limit=_git_limit,
            degenerate=_git_degenerate, conic=_git_conic,
        )
        for name in ("stability", "limit"):
            git[name].add_argument(
                "--dim", type=_positive_int, default=2, help="ambient projective dimension (default 2)"
            )
        weights = git["stability"].add_mutually_exclusive_group()
        weights.add_argument("--weights", help="comma-separated weights (default symmetric)")
        weights.add_argument("--weights-file", help="file holding comma-separated weights")
        git["limit"].add_argument("--lps", required=True, help="diagonal subgroup weights, e.g. 2,-1,-1")
    elif command == "hypersurface":
        hyp = actions(
            as_json, eval=_hypersurface_eval, singular=_hypersurface_singular,
            lines=_hypersurface_lines, nodes=_hypersurface_nodes, duality=_hypersurface_duality,
        )
        for name in ("eval", "singular"):
            hyp[name].add_argument("--surface", required=True, choices=sorted(_SURFACES))
            hyp[name].add_argument("--point", required=True, help="six comma-separated rational coordinates")
        hyp["duality"].add_argument("--samples", type=_positive_int, default=100)
        hyp["duality"].add_argument("--seed", type=_nonnegative_int, default=0)
    elif command == "m2":
        command_parser.set_defaults(run=_m2, leaf=command_parser)
        command_parser.add_argument("--json", action="store_true")
        command_parser.add_argument("--alpha", help="log-canonical slice parameter p/q")
        command_parser.add_argument("--lambda", dest="lam", help="Hodge class coefficient p/q")
        command_parser.add_argument("--delta0", help="stack boundary coefficient p/q")
        command_parser.add_argument("--delta1", help="stack boundary coefficient p/q")
        command_parser.add_argument("--Delta0", help="coarse boundary coefficient p/q")
        command_parser.add_argument("--Delta1", help="coarse boundary coefficient p/q")
    else:  # paper-report
        command_parser.set_defaults(run=_paper_report, leaf=command_parser)
        command_parser.add_argument("--json", action="store_true")
    return parser


def _flag_order_hint(args, unread: list[str]) -> str:
    """A hint when every unrecognized token is a flag of the chosen action
    (or command): argparse leaves such a flag unread when it comes first."""
    declared = args.leaf._option_string_actions
    if not all(token.split("=", 1)[0] in declared for token in unread):
        return ""
    where = "action" if getattr(args, "action", None) else "command"
    return f" (flags go after the {where}: {args.leaf.prog} {' '.join(unread)} ...)"


def _value_as_choice_hint(argv: list[str], parsers: dict, message: str, dest: str) -> str:
    """The flag-order hint when argparse rejects, as the command or action
    (``dest``), the value of a flag put before it that one of ``parsers`` reads."""
    bad = f"argument {dest}: invalid choice: {{!r}} "
    k = next((k for k in range(1, len(argv)) if message.startswith(bad.format(argv[k]))), 0)
    flag = argv[k - 1] if k else ""
    declared = {name: p._option_string_actions.get(flag) for name, p in parsers.items()}
    readers = [name for name, action in declared.items() if action and action.nargs != 0]
    if not readers:
        return ""
    name = next((token for token in argv[k + 1 : k + 2] if token in readers), readers[0])
    return f" (flags go after the {dest}: {parsers[name].prog} {flag} {argv[k]} ...)"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv)
    # parse_args with a hint added to its unrecognized-arguments error
    args, unread = parser.parse_known_args(argv)
    if unread:
        parser.error(f"unrecognized arguments: {' '.join(unread)}" + _flag_order_hint(args, unread))
    try:
        lines, payload = args.run(args)
    except (CLIError, ValueError) as exc:
        # inputs are held to the interpreter's digit limit when read, so
        # Python's own refusal to write an int past it is about a result
        message = re.sub(
            r"Exceeds the limit \((\d+) digits\) for integer string conversion.*",
            r"the result holds a number of more than \1 digits, too long to print",
            str(exc),
        )
        print(f"error: {message}", file=sys.stderr)
        return 2
    if args.json:
        import json

        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(lines))
    # only the two verifications, duality and paper-report, report a "pass"
    return 1 if payload.get("pass") is False else 0


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (``sixpoint paper-report | head -1``); point
        # stdout at devnull so the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entry()
