import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import sixpoint
from sixpoint import cli
from sixpoint.cli import CLIError, parse_divisor_expression, parse_points_text
from sixpoint.divisors import (
    SymmetricDivisor,
    boundary,
    canonical_divisor,
    canonical_polarization,
    psi_divisor,
)
from sixpoint.exact import parse_rational


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error(capsys, argv):
    """Exit code, stdout and last stderr line of an argparse rejection."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err.splitlines()[-1]


def invalid_choice(prog, dest, choices, value):
    """argparse's own error line for ``value`` taken as a subcommand of
    ``prog``, from a throwaway parser with the same choices: the wording is
    argparse's and changes between versions (3.11 quotes the choices,
    3.13 does not)."""
    parser = argparse.ArgumentParser(prog=prog)
    sub = parser.add_subparsers(dest=dest, required=True)
    for choice in choices:
        sub.add_parser(choice)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), pytest.raises(SystemExit):
        parser.parse_args([value])
    return stderr.getvalue().splitlines()[-1]


STRATUM_I = """# three doubled coordinate vertices
1 0 0
1 0 0
0 1 0
0 1 0
0 0 1
0 0 1
"""

CONIC = "\n".join(f"1 {t} {t * t}" for t in range(6)) + "\n"

TRIPLE = """1 0 0
1 0 0
1 0 0
0 1 0
0 0 1
1 1 1
"""


@pytest.fixture
def stratum_file(tmp_path):
    path = tmp_path / "stratum1.cfg"
    path.write_text(STRATUM_I)
    return str(path)


@pytest.fixture
def conic_file(tmp_path):
    path = tmp_path / "conic.cfg"
    path.write_text(CONIC)
    return str(path)


def test_expression_parser():
    assert parse_divisor_expression("K + 1/3*psi") == SymmetricDivisor(
        6, {2: Fraction(2, 15), 3: Fraction(2, 5)}
    )
    assert parse_divisor_expression("-9/2*K - 1/2*psi") == boundary(6, 2)
    assert parse_divisor_expression("3B2") == 3 * boundary(6, 2)
    assert parse_divisor_expression("B2+B3") == boundary(6, 2) + boundary(6, 3)
    assert parse_divisor_expression("0") == SymmetricDivisor(6)
    assert parse_divisor_expression(" 2/5 * B2 + 1/5 B3 ") == -1 * canonical_divisor(6)
    assert parse_divisor_expression("DA") == Fraction(-1, 2) * canonical_divisor(6)
    assert parse_divisor_expression("K", n=5) == canonical_divisor(5)


def test_expression_parse_errors():
    for bad in ("", "Q", "1/3", "B9", "K +", "2*", "K K", "* B2"):
        with pytest.raises(CLIError):
            parse_divisor_expression(bad)
    with pytest.raises(CLIError):
        parse_divisor_expression("DA", n=5)


@pytest.mark.parametrize(
    "text, message",
    [
        # a coefficient that runs into a stray character is blamed on it
        ("1_0*B2", "parse error at position 1: unexpected '_'"),
        ("2 x", "parse error at position 2: unexpected 'x'"),
        ("1/2#B2", "parse error at position 3: unexpected '#'"),
        ("2*x", "parse error at position 2: unexpected 'x'"),
        # one that reaches a sign or the end has no symbol
        ("2 + B2", "parse error at position 0: 2 needs a symbol"
         " (only the zero divisor is written without one)"),
        ("2*", "parse error at position 0: 2* needs a symbol"
         " (only the zero divisor is written without one)"),
        ("1/3", "parse error at position 0: 1/3 needs a symbol"
         " (only the zero divisor is written without one)"),
        # a zero denominator is blamed on its coefficient
        ("1/0*B2", "parse error at position 0: not a rational number: '1/0'"),
        ("B2 + 3/0 B3", "parse error at position 5: not a rational number: '3/0'"),
    ],
)
def test_expression_parse_error_positions(text, message):
    with pytest.raises(CLIError) as err:
        parse_divisor_expression(text)
    assert str(err.value) == message


_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<sym>B\d+|K|psi|DA)|(?P<op>[+\-*]))")


def parse_by_token_walk(text: str, n: int = 6) -> SymmetricDivisor:
    """Reference for ``parse_divisor_expression``: lex the whole text into
    number, symbol and operator tokens first, then walk the token list."""
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
            raise CLIError(f"parse error at position {at}: B{index} out of range 2..{n - 2}")
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
                raise CLIError(f"parse error at position {at}: bare constant {value}")
            term = SymmetricDivisor(n)
        else:
            raise CLIError(f"parse error at position {at}: expected a term")
        total = total + (sign * (coef if coef is not None else 1)) * term
    return total


def _parse_outcome(parse, text, n):
    try:
        return parse(text, n)
    except (CLIError, ValueError):  # both exit 2 on the command line
        return "rejected"


_EXPRESSION_PIECES = (
    "0", "1", "2", "3", "10", "/", " ", "\t", "B", "B1", "B2", "B3", "B4", "B9",
    "K", "psi", "ps", "DA", "+", "-", "*", "Q",
)


# near-terms: each part of a signed term present or not, so that a good share
# of the strings parse
_NEAR_TERM = st.tuples(
    st.sampled_from(("", "+", "-", " - ")),
    st.sampled_from(("", "0", "2", "1/3", "0/5", "2/0")),
    st.sampled_from(("", "*", " * ")),
    st.sampled_from(("", "B2", "B3", "B4", "B9", "K", "psi", "DA")),
    st.sampled_from(("", " ")),
).map("".join)


@settings(deadline=None, max_examples=600)
@given(
    st.one_of(
        st.lists(st.sampled_from(_EXPRESSION_PIECES), max_size=10),
        st.lists(_NEAR_TERM, max_size=4),
    ).map("".join),
    st.sampled_from((5, 6, 8)),
)
@example("-9/2*K - 1/2*psi", 6)
@example(" 2/5 * B2 + 1/5 B3 ", 6)
@example("0 - 0*K + 3B3", 8)
@example("2/0Q", 6)
def test_expression_parser_matches_the_token_walk(text, n):
    assert _parse_outcome(parse_divisor_expression, text, n) == _parse_outcome(
        parse_by_token_walk, text, n
    )


def test_points_text_parser():
    config = parse_points_text("1 0 0\n# comment\n\n1/2 1/2 0\n", dim=2)
    assert config.points == ((1, 0, 0), (1, 1, 0))
    with pytest.raises(CLIError) as err:
        parse_points_text("1 0 0\n1 0\n", dim=2)
    assert "line 2" in str(err.value)
    with pytest.raises(CLIError) as err:
        parse_points_text("1 0 z\n", dim=2)
    assert "line 1" in str(err.value)
    with pytest.raises(CLIError):
        parse_points_text("# nothing\n", dim=2)


def test_divisor_eval_command(capsys):
    code, out, _ = run(capsys, ["divisor", "eval", "--expr", "-9/2*K - 1/2*psi"])
    assert code == 0
    assert "D = B2" in out
    code, out, _ = run(
        capsys, ["divisor", "eval", "--expr", "1/5*B2 + 1/10*B3", "--json"]
    )
    payload = json.loads(out)
    assert payload["coefficients"] == {"B2": "1/5", "B3": "1/10"}


def test_divisor_eval_other_point_counts(capsys):
    code, out, _ = run(capsys, ["divisor", "eval", "--expr", "K + B4", "--n", "8", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 8
    # K on eight points: i(8-i)/7 - 2 at i = 2, 3, 4
    assert payload["coefficients"] == {"B2": "-2/7", "B3": "1/7", "B4": "9/7"}
    code, _, err = run(capsys, ["divisor", "eval", "--expr", "DA", "--n", "5"])
    assert code == 2 and "DA" in err


def test_point_count_must_be_a_positive_ascii_integer(capsys):
    # int() reads "٦" as 6 and "1_0" as 10
    for n in ("0", "-1", "²", "٦", "1_0"):
        for action, *rest in (["eval"], ["intersect", "--curve", "C:4"]):
            argv = ["divisor", action, "--expr", "K", *rest, "--n", n]
            code, out, last = usage_error(capsys, argv)
            assert code == 2 and out == "", n
            assert last.endswith(f"argument --n: expected a positive integer, got '{n}'"), n


def test_divisor_intersect_command(capsys):
    code, out, _ = run(
        capsys, ["divisor", "intersect", "--expr", "DA", "--curve", "F:1,1,1,3"]
    )
    assert code == 0 and "intersection: 1/2" in out
    code, out, _ = run(
        capsys, ["divisor", "intersect", "--expr", "B2", "--curve", "C:4", "--json"]
    )
    assert code == 0 and json.loads(out)["intersection"] == "-2"
    assert usage_error(capsys, ["divisor", "intersect", "--expr", "B2"]) == (
        2, "", "sixpoint divisor intersect: error: the following arguments are required: --curve"
    )


def test_divisor_chamber_command(capsys):
    code, out, _ = run(capsys, ["divisor", "chamber", "--expr", "K + 1/3*psi"])
    assert code == 0
    assert "model: SegreCubic" in out and "wall: true" in out
    code, out, _ = run(capsys, ["divisor", "chamber", "--expr", "K", "--json"])
    assert code == 0
    assert json.loads(out)["model"] == "OutsideEffectiveCone"
    # argparse reads "--expr -K" as two flags; a leading minus needs the = form
    code, out, _ = run(capsys, ["divisor", "chamber", "--expr=-K"])
    assert code == 0
    assert "model: IgusaQuartic" in out and "wall: true" in out


def test_divisor_baselocus_command(capsys):
    code, out, _ = run(capsys, ["divisor", "baselocus", "--expr", "B3"])
    assert code == 0 and "stable base locus: B3" in out
    code, out, err = run(capsys, ["divisor", "baselocus", "--expr", "K"])
    assert code == 2 and out == ""
    assert err == "error: divisor -2/5*B2 - 1/5*B3 is not effective; no stable base locus\n"


def test_git_stability_command(capsys, stratum_file):
    code, out, _ = run(
        capsys,
        ["git", "stability", stratum_file, "--weights", "1/2,1/2,1/2,1/2,1/2,1/2"],
    )
    assert code == 0
    assert "status: StrictlySemistable" in out
    assert "witness: dim 0 marks 1,2 weight 1 equality" in out
    code, out, _ = run(capsys, ["git", "stability", stratum_file, "--json"])
    payload = json.loads(out)
    assert payload["status"] == "StrictlySemistable"
    assert len(payload["witnesses"]) == 6


def test_git_stability_weight_validation(capsys, stratum_file):
    code, _, err = run(
        capsys, ["git", "stability", stratum_file, "--weights", "1,1,1,1,1,1"]
    )
    assert code == 2 and "sum" in err


def test_git_stability_weights_file(capsys, stratum_file, tmp_path):
    weights = tmp_path / "weights.txt"
    weights.write_text("# symmetric\n1/2,1/2,1/2,1/2,1/2,1/2\n")
    code, out, _ = run(
        capsys, ["git", "stability", stratum_file, "--weights-file", str(weights)]
    )
    assert code == 0 and "status: StrictlySemistable" in out
    assert usage_error(
        capsys,
        ["git", "stability", stratum_file, "--weights", "1/2,1/2,1/2,1/2,1/2,1/2",
         "--weights-file", str(weights)],
    ) == (
        2,
        "",
        "sixpoint git stability: error: argument --weights-file: not allowed with argument --weights",
    )
    code, _, err = run(capsys, ["git", "stability", stratum_file, "--weights", ""])
    assert code == 2 and err == "error: weights: empty list\n"


def test_a_blank_field_is_an_error_not_skipped(capsys, stratum_file, tmp_path):
    point = ["hypersurface", "eval", "--surface", "segre", "--point", "1,,1,1,-1,-1,-1"]
    assert run(capsys, point) == (2, "", "error: --point: field 2 of 7 is empty\n")
    weights = ["git", "stability", stratum_file, "--weights", "1/2,1/2,,1/2,1/2,1/2,1/2"]
    assert run(capsys, weights) == (2, "", "error: --weights: field 3 of 7 is empty\n")
    trailing = tmp_path / "weights.txt"
    trailing.write_text("1/2,1/2,1/2,\n1/2,1/2,1/2,\n")
    weights_file = ["git", "stability", stratum_file, "--weights-file", str(trailing)]
    assert run(capsys, weights_file) == (2, "", "error: --weights-file: field 7 of 7 is empty\n")
    blank = ["git", "stability", stratum_file, "--weights", " , "]
    assert run(capsys, blank) == (2, "", "error: --weights: field 1 of 2 is empty\n")
    # a value with no field at all is still an empty list
    blank = ["git", "stability", stratum_file, "--weights", " "]
    assert run(capsys, blank) == (2, "", "error: weights: empty list\n")


def test_a_line_break_separates_weights_in_a_file(capsys, stratum_file, tmp_path):
    weights = tmp_path / "weights.txt"
    stability = ["git", "stability", stratum_file, "--weights-file", str(weights)]
    for text in (
        "1/2\n1/2\n1/2  # three\n\n1/2\n1/2\n1/2\n",
        "1/2,1/2,1/2\n1/2,1/2,1/2\n",
        "1/2, 1/2, 1/2,\n  1/2, 1/2, 1/2\n",
    ):
        weights.write_text(text)
        code, out, err = run(capsys, stability)
        assert (code, err) == (0, ""), text
        assert "weights: 1/2,1/2,1/2,1/2,1/2,1/2" in out
    # a blank field inside a line is still an error
    weights.write_text("1/2,,1/2\n1/2,1/2,1/2\n")
    assert run(capsys, stability) == (2, "", "error: --weights-file: field 2 of 6 is empty\n")


def test_git_stability_reports_violating_marks(capsys, tmp_path):
    triple = tmp_path / "triple.cfg"
    triple.write_text(TRIPLE)
    code, out, _ = run(capsys, ["git", "stability", str(triple)])
    assert code == 0
    assert "status: Unstable" in out
    assert "witness: dim 0 marks 1,2,3 weight 3/2 violation" in out


def test_git_stratum_command(capsys, stratum_file, tmp_path):
    code, out, _ = run(capsys, ["git", "stratum", stratum_file])
    assert code == 0
    assert "stratum: I" in out and "stabilizer dimension: 2" in out
    triple = tmp_path / "triple.cfg"
    triple.write_text(TRIPLE)
    code, out, _ = run(capsys, ["git", "stratum", str(triple)])
    assert code == 0 and "stratum: Unstable" in out


def test_git_stratum_rejects_non_sextuples(capsys, tmp_path):
    # the strata I-XI exist only for six points in the plane
    vertices = tmp_path / "vertices.cfg"
    vertices.write_text("1 0 0\n0 1 0\n0 0 1\n")
    code, out, err = run(capsys, ["git", "stratum", str(vertices)])
    assert code == 2 and out == ""
    assert err == "error: strata I-XI are defined for six points in the plane\n"
    # the file is read in the plane, so six points of P^3 fail on line 1
    solid = tmp_path / "solid.cfg"
    solid.write_text("1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n1 1 1 1\n1 2 3 4\n")
    assert run(capsys, ["git", "stratum", str(solid)]) == (
        2, "", "error: line 1: expected 3 coordinates, got 4\n"
    )


def test_git_actions_without_weights_reject_weight_flags(capsys, stratum_file, tmp_path):
    weights = tmp_path / "weights.txt"
    weights.write_text("1/2,1/2,1/2,1/2,1/2,1/2\n")
    # stratum judges with the symmetric weights, for which the strata are defined
    for action, *rest in (["stratum"], ["limit", "--lps", "1,0,0"], ["degenerate"], ["conic"]):
        for flag, value in (("--weights", "1/2,1/2,1/2,1/2,1/2,1/2"), ("--weights-file", weights)):
            argv = ["git", action, stratum_file, *rest, flag, str(value)]
            assert usage_error(capsys, argv) == (
                2, "", f"sixpoint: error: unrecognized arguments: {flag} {value}"
            ), argv


@pytest.mark.parametrize(
    "argv, case",
    [
        (["hypersurface", "lines", "--surface", "segre", "--point", "1,2"],
         "hypersurface lines takes no --surface or --point"),
        (["hypersurface", "duality", "--point", "1,2"],
         "hypersurface duality takes no --surface or --point"),
        (["divisor", "eval", "--expr", "B2", "--curve", "F:1,1,1,3"],
         "divisor eval takes no --curve"),
        (["divisor", "chamber", "--expr", "B2", "--curve", "C:4"],
         "divisor chamber takes no --curve"),
        (["git", "stability", "CONFIG", "--lps", "1,0,0"], "git stability takes no --lps"),
        (["git", "degenerate", "CONFIG", "--lps", "1,0,0"], "git degenerate takes no --lps"),
        # six points in the plane, and the chamber decomposition of M_0,6
        (["git", "stratum", "CONFIG", "--dim", "2"], "git stratum takes no --dim"),
        (["git", "degenerate", "CONFIG", "--dim", "3"], "git degenerate takes no --dim"),
        (["git", "conic", "CONFIG", "--dim", "1"], "git conic takes no --dim"),
        (["divisor", "chamber", "--expr", "B2", "--n", "6"], "divisor chamber takes no --n"),
        (["divisor", "baselocus", "--expr", "B2", "--n", "7"], "divisor baselocus takes no --n"),
        (["hypersurface", "nodes", "--samples", "5", "--seed", "3"],
         "hypersurface nodes takes no --samples or --seed"),
        (["hypersurface", "lines", "--seed", "3"], "hypersurface lines takes no --seed"),
        (["hypersurface", "eval", "--surface", "igusa", "--point", "1,1,1,-1,-1,-1",
          "--samples", "5"], "hypersurface eval takes no --samples"),
        (["hypersurface", "singular", "--surface", "segre", "--point", "1,1,1,-1,-1,-1",
          "--seed", "3", "--samples", "5"], "hypersurface singular takes no --seed or --samples"),
        # the report is one battery: hypersurface duality samples at another count or seed
        (["paper-report", "--samples", "5"], "paper-report takes no --samples"),
        (["paper-report", "--seed", "7"], "paper-report takes no --seed"),
    ],
)
def test_actions_reject_flags_they_do_not_read(capsys, stratum_file, argv, case):
    # the flags a case names come last in its argv, and argparse leaves
    # them and their values unrecognized
    argv = [stratum_file if arg == "CONFIG" else arg for arg in argv]
    named = case.split(" takes no ")[1].split(" or ")
    unread = argv[next(i for i, arg in enumerate(argv) if arg in named):]
    assert usage_error(capsys, argv) == (
        2, "", "sixpoint: error: unrecognized arguments: " + " ".join(unread)
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["divisor", "intersect", "--expr", "DA", "--curve", "F:١,1,1,3"],
         "bad curve spec 'F:١,1,1,3': not an integer: '١'"),
        (["divisor", "intersect", "--expr", "B2", "--curve", "C:1_0"],
         "bad curve spec 'C:1_0': not an integer: '1_0'"),
        (["divisor", "eval", "--expr", "٣*B2"], "parse error at position 0: unexpected '٣'"),
        (["divisor", "eval", "--expr", "B٢"], "parse error at position 0: unexpected 'B'"),
        (["hypersurface", "eval", "--surface", "segre", "--point", "1_0,-10,0,0,0,0"],
         "point: not a rational number: '1_0'"),
        (["git", "stability", "CONFIG", "--weights", "١/٢,1/2,1/2,1/2,1/2,1/2"],
         "weights: not a rational number: '١/٢'"),
        (["m2", "--alpha", "٩/11"], "--alpha: not a rational number: '٩/11'"),
    ],
)
def test_only_ascii_digits_without_underscores_are_read(capsys, stratum_file, argv, message):
    # int() and Fraction read other scripts' digits ('١' as 1) and
    # underscores between digits ('1_0' as 10); these used to exit 0
    argv = [stratum_file if arg == "CONFIG" else arg for arg in argv]
    assert run(capsys, argv) == (2, "", f"error: {message}\n")


# a numeral one digit past the default limit of int() and Fraction
LONG = "1" * 4301
TOO_LONG = "numeral '11111111111111111111'... has more than 4300 digits"


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["divisor", "eval", "--expr", "B2", "--n", LONG],
         "sixpoint divisor eval: error: argument --n: "),
        (["git", "stability", "CONFIG", "--dim", LONG],
         "sixpoint git stability: error: argument --dim: "),
        (["hypersurface", "duality", "--samples", LONG],
         "sixpoint hypersurface duality: error: argument --samples: "),
        (["hypersurface", "duality", "--seed", LONG],
         "sixpoint hypersurface duality: error: argument --seed: "),
        (["git", "limit", "CONFIG", "--lps", f"{LONG},0,0"], "error: --lps: field 1 of 3: "),
        (["divisor", "intersect", "--expr", "DA", "--curve", f"F:{LONG},1,1,3"],
         "error: bad curve spec 'F:111111111111111111'...: "),
        (["divisor", "intersect", "--expr", "DA", "--curve", f"C:{LONG}"],
         "error: bad curve spec 'C:111111111111111111'...: "),
        (["divisor", "eval", "--expr", f"{LONG}*B2"], "error: parse error at position 0: "),
        (["divisor", "eval", "--expr", f"B2 + B{LONG}"], "error: parse error at position 5: "),
        (["hypersurface", "eval", "--surface", "segre", "--point", f"{LONG},0,0,0,0,0"],
         "error: point: "),
        (["git", "stability", "CONFIG", "--weights", f"{LONG},1,1,1,1,1"], "error: weights: "),
        (["git", "stability", "CONFIG", "--weights-file", "WEIGHTS"], "error: weights: "),
        (["git", "stratum", "LONG_CONFIG"], "error: line 1: "),
        (["m2", "--alpha", LONG], "error: --alpha: "),
    ],
)
def test_a_numeral_past_the_digit_limit_is_refused_briefly(
    capsys, tmp_path, stratum_file, argv, prefix
):
    # int() and Fraction refuse more than 4300 digits with a message that
    # names no input and suggests changing the interpreter; each input says
    # which of its numerals is too long, echoing only its head
    (tmp_path / "weights").write_text(f"{LONG},1,1,1,1,1\n")
    (tmp_path / "long.cfg").write_text(f"{LONG} 0 1\n")
    files = {
        "CONFIG": stratum_file,
        "WEIGHTS": str(tmp_path / "weights"),
        "LONG_CONFIG": str(tmp_path / "long.cfg"),
    }
    argv = [files.get(arg, arg) for arg in argv]
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert (code, captured.out, lines[-1]) == (2, "", prefix + TOO_LONG)
    assert len(lines[-1]) < 200
    # argparse prints its usage first; nothing else comes before the error
    assert all(line.startswith(("usage: ", " ")) for line in lines[:-1])
    assert len(lines) == 1 or prefix.startswith("sixpoint ")


def test_a_numeral_at_the_digit_limit_is_read(capsys, stratum_file):
    digits = "1" * 4300
    assert parse_rational(digits) == int(digits)
    assert parse_rational(f" -{digits}/{digits} ") == -1
    for argv in (
        ["divisor", "eval", "--expr", f"{digits}*B2"],
        ["hypersurface", "eval", "--surface", "segre", "--point", f"{digits},-{digits},0,0,0,0"],
        ["hypersurface", "duality", "--samples", "3", "--seed", digits],
        ["git", "limit", stratum_file, "--lps", f"{digits},0,0"],
    ):
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, ""), argv


def test_the_digit_limit_is_the_interpreters():
    # PYTHONINTMAXSTRDIGITS=0 lifts int()'s limit, and the check with it
    env = dict(os.environ, PYTHONPATH=str(Path(sixpoint.__file__).parents[1]), PYTHONINTMAXSTRDIGITS="0")
    proc = subprocess.run(
        [sys.executable, "-m", "sixpoint.cli", "divisor", "eval", "--expr", f"{LONG}*B2"],
        capture_output=True, env=env, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert f"B2: {LONG}\n" in proc.stdout



@pytest.mark.parametrize(
    "argv, message",
    [
        (["m2", "--alpha", "1e1000000"], "--alpha: numeral '1e1000000' has an exponent past 4300"),
        (["git", "stability", "CONFIG", "--weights", "1e-100000,1,1,1,1,1"],
         "weights: numeral '1e-100000' has an exponent past 4300"),
    ],
)
def test_a_decimal_exponent_past_the_digit_limit_is_refused(capsys, stratum_file, argv, message):
    # Fraction would build the power of ten in full first; the weights then
    # printed Python's own message about the limit
    argv = [stratum_file if arg == "CONFIG" else arg for arg in argv]
    assert run(capsys, argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["m2", "--alpha", "1" * 4300],
        ["hypersurface", "eval", "--surface", "segre", "--point", "1" * 2000 + ",0,0,0,0,0"],
    ],
)
def test_a_result_past_the_digit_limit_is_refused_briefly(capsys, argv):
    # inputs at the limit are read, but Python cannot write the result's
    # longer numbers; its own message names nothing and suggests changing
    # the interpreter
    code, out, err = run(capsys, argv)
    message = "error: the result holds a number of more than 4300 digits, too long to print\n"
    assert (code, out, err) == (2, "", message)
    assert len(err) < 200


def test_flags_before_the_action_get_a_hint(capsys, stratum_file):
    # a flag the chosen action reads, put before it, is left unread by
    # argparse; the error then says where flags go
    prefix = "sixpoint: error: unrecognized arguments: "
    cases = [
        (["git", "--json", "stratum", stratum_file],
         "--json (flags go after the action: sixpoint git stratum --json ...)"),
        (["--json", "hypersurface", "duality"],
         "--json (flags go after the action: sixpoint hypersurface duality --json ...)"),
        (["git", "--weights=1/2,1/2,1/2,1/2,1/2,1/2", "stability", stratum_file],
         "--weights=1/2,1/2,1/2,1/2,1/2,1/2 (flags go after the action: sixpoint git"
         " stability --weights=1/2,1/2,1/2,1/2,1/2,1/2 ...)"),
        (["--json", "paper-report"],
         "--json (flags go after the command: sixpoint paper-report --json ...)"),
        # no hint unless every unread token is a flag of the action
        (["git", "--json", "--bogus", "stratum", stratum_file], "--json --bogus"),
        (["git", "--json", "limit", stratum_file, "--lps", "1,0,0", "--weights", "1"],
         "--json --weights 1"),
    ]
    for argv, unread in cases:
        assert usage_error(capsys, argv) == (2, "", prefix + unread), argv


def test_a_flag_value_taken_for_the_action_gets_the_hint(capsys):
    # argparse takes the value of a flag put before the action for the
    # action; when an action of the command reads that flag, the error says
    # where flags go
    def hyp(value):
        return invalid_choice("sixpoint hypersurface", "action",
                              ["eval", "singular", "lines", "nodes", "duality"], value)

    div = invalid_choice("sixpoint divisor", "action",
                         ["eval", "intersect", "chamber", "baselocus"], "B2")
    cases = [
        (["hypersurface", "--samples", "5", "duality"],
         hyp("5") + " (flags go after the action: sixpoint hypersurface duality"
         " --samples 5 ...)"),
        (["divisor", "--expr", "B2", "chamber"],
         div + " (flags go after the action: sixpoint divisor chamber --expr B2 ...)"),
        # no hint when the flag takes no value, or no action reads it
        (["hypersurface", "--json", "5", "duality"], hyp("5")),
        (["hypersurface", "--lps", "1,0,0", "duality"], hyp("1,0,0")),
    ]
    for argv, last in cases:
        assert usage_error(capsys, argv) == (2, "", last), argv


def test_a_flag_value_taken_for_the_command_gets_the_hint(capsys):
    # the same one level up: the value of a flag put before the command is
    # taken for the command; when the command named later declares that
    # flag, the error says where flags go
    def root(value):
        return invalid_choice("sixpoint", "command",
                              ["divisor", "git", "hypersurface", "m2", "paper-report"], value)

    cases = [
        (["--alpha", "1", "m2"],
         root("1") + " (flags go after the command: sixpoint m2 --alpha 1 ...)"),
        # no hint for a flag no command reads, one that takes no value, or
        # one that only an action of the command reads
        (["--tol", "5", "paper-report"], root("5")),
        (["--samples", "5", "paper-report"], root("5")),
        (["--json", "5", "paper-report"], root("5")),
        (["--samples", "5", "hypersurface", "duality"], root("5")),
    ]
    for argv, last in cases:
        assert usage_error(capsys, argv) == (2, "", last), argv


# each parser's flags in usage order; a command with actions also lists them
PARSER_FLAGS = {
    (): "-h",
    ("divisor",): "-h",
    ("divisor", "eval"): "-h --json --expr --n",
    ("divisor", "intersect"): "-h --json --expr --n --curve",
    ("divisor", "chamber"): "-h --json --expr",
    ("divisor", "baselocus"): "-h --json --expr",
    ("git",): "-h",
    ("git", "stability"): "-h --json --dim --weights --weights-file",
    ("git", "stratum"): "-h --json",
    ("git", "limit"): "-h --json --dim --lps",
    ("git", "degenerate"): "-h --json",
    ("git", "conic"): "-h --json",
    ("hypersurface",): "-h",
    ("hypersurface", "eval"): "-h --json --surface --point",
    ("hypersurface", "singular"): "-h --json --surface --point",
    ("hypersurface", "lines"): "-h --json",
    ("hypersurface", "nodes"): "-h --json",
    ("hypersurface", "duality"): "-h --json --samples --seed",
    ("m2",): "-h --json --alpha --lambda --delta0 --delta1 --Delta0 --Delta1",
    ("paper-report",): "-h --json",
}
CHOICES = {
    (): "{divisor,git,hypersurface,m2,paper-report}",
    ("divisor",): "{eval,intersect,chamber,baselocus}",
    ("git",): "{stability,stratum,limit,degenerate,conic}",
    ("hypersurface",): "{eval,singular,lines,nodes,duality}",
}


@pytest.mark.parametrize("path", PARSER_FLAGS, ids=lambda path: " ".join(path) or "root")
def test_help_lists_the_flags_of_its_parser(capsys, monkeypatch, path):
    # only the parser of the command argv names is built; a wrong pick
    # would print a help without the flags
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main([*path, "-h"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    usage = " ".join(out.split("\n\n", 1)[0].split())
    assert usage.startswith(" ".join(("usage: sixpoint", *path, "[-h]")))
    assert re.findall(r"(?<![\w-])--?[A-Za-z][\w-]*", usage) == PARSER_FLAGS[path].split()
    if path in CHOICES:
        assert CHOICES[path] in usage


def test_a_later_token_naming_a_command_is_an_argument(capsys, tmp_path, monkeypatch):
    # argparse runs the first command argv names; a configuration file
    # called m2 is the file, and git gets its parser
    monkeypatch.chdir(tmp_path)
    Path("m2").write_text(STRATUM_I, encoding="ascii")
    code, out, _ = run(capsys, ["git", "stratum", "m2"])
    assert code == 0
    assert "stratum: I\n" in out


def test_git_limit_command(capsys, conic_file):
    code, out, _ = run(capsys, ["git", "limit", conic_file, "--lps", "1,0,0"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "1 0 0"
    assert lines[2] == "0 1 1"
    assert usage_error(capsys, ["git", "limit", conic_file]) == (
        2, "", "sixpoint git limit: error: the following arguments are required: --lps"
    )
    code, _, err = run(capsys, ["git", "limit", conic_file, "--lps", "1,1,1"])
    assert code == 2
    # a blank field gets the same message as in --point and --weights
    blank = ["git", "limit", conic_file, "--lps", "2,,-1"]
    assert run(capsys, blank) == (2, "", "error: --lps: field 2 of 3 is empty\n")
    # int() reads "٢" as 2, "１" as 1 and "1_0" as 10
    for lps, field in (
        ("٢,-١,-١", "1 of 3 is not an integer: '٢'"),
        ("1_0,-5,-5", "1 of 3 is not an integer: '1_0'"),
        ("1,１,0", "2 of 3 is not an integer: '１'"),
        ("1.5,0,0", "1 of 3 is not an integer: '1.5'"),
        ("1,0,a", "3 of 3 is not an integer: 'a'"),
    ):
        code, out, err = run(capsys, ["git", "limit", conic_file, "--lps", lps])
        assert (code, out) == (2, ""), lps
        assert err == f"error: --lps: field {field}\n", lps
    # surrounding spaces and a sign are still read, and echoed as typed
    _, plain, _ = run(capsys, ["git", "limit", conic_file, "--lps", "1,0,0"])
    code, out, _ = run(capsys, ["git", "limit", conic_file, "--lps", " +1 , 0,0 "])
    assert code == 0
    assert out == plain.replace("(1,0,0)", "( +1 , 0,0 )")


def test_git_degenerate_command(capsys, tmp_path):
    config = tmp_path / "line4.cfg"
    # four marks on a line plus two generic: degenerates onto the double
    config.write_text("1 0 0\n0 1 0\n1 1 0\n1 2 0\n0 0 1\n1 3 1\n")
    code, out, _ = run(capsys, ["git", "degenerate", str(config)])
    assert code == 0 and "stratum: VII" in out
    stable = tmp_path / "stable.cfg"
    stable.write_text(CONIC)
    code, _, err = run(capsys, ["git", "degenerate", str(stable)])
    assert code == 2 and "Stable" in err


def test_git_degenerate_rejects_non_sextuples(capsys, tmp_path):
    # strictly semistable, but not six points: exit 2 with a message
    vertices = tmp_path / "vertices.cfg"
    vertices.write_text("1 0 0\n0 1 0\n0 0 1\n")
    code, out, err = run(capsys, ["git", "degenerate", str(vertices)])
    assert code == 2 and out == ""
    assert err == "error: degeneration is defined for six points in the plane\n"


def test_git_conic_command(capsys, conic_file, stratum_file):
    code, out, _ = run(capsys, ["git", "conic", conic_file])
    assert code == 0 and "on conic: true" in out
    code, out, _ = run(capsys, ["git", "conic", stratum_file, "--json"])
    assert code == 0 and json.loads(out)["onConic"] is True


def test_a_leading_byte_order_mark_is_skipped(capsys, stratum_file, tmp_path):
    # editors on Windows save UTF-8 files with a byte-order mark first; it
    # used to reach the rational parser as part of the first field
    points = STRATUM_I.split("\n", 1)[1]  # no comment line: the mark precedes a coordinate
    marked = tmp_path / "marked.cfg"
    marked.write_text("\ufeff" + points, encoding="utf-8")
    for argv in (
        ["git", "stratum", "CONFIG"],
        ["git", "stability", "CONFIG", "--json"],
        ["git", "degenerate", "CONFIG"],
        ["git", "conic", "CONFIG"],
        ["git", "limit", "CONFIG", "--lps", "1,0,0"],
    ):
        plain = run(capsys, [stratum_file if arg == "CONFIG" else arg for arg in argv])
        assert plain[0] == 0, argv
        assert run(capsys, [str(marked) if arg == "CONFIG" else arg for arg in argv]) == plain, argv
    weights = tmp_path / "weights.txt"
    weights.write_text("\ufeff1/2,1/2,1/2,1/2,1/2,1/2\n", encoding="utf-8")
    assert run(capsys, ["git", "stability", stratum_file, "--weights-file", str(weights)]) == run(
        capsys, ["git", "stability", stratum_file]
    )
    # only the mark that starts the file is skipped
    later = tmp_path / "later.cfg"
    first, rest = points.split("\n", 1)
    later.write_text(f"{first}\n\ufeff{rest}", encoding="utf-8")
    assert run(capsys, ["git", "stratum", str(later)]) == (
        2, "", "error: line 2: not a rational number: '\\ufeff1'\n"
    )


def test_git_missing_file(capsys):
    code, _, err = run(capsys, ["git", "conic", "/nonexistent.cfg"])
    assert code == 2 and "cannot read" in err


def test_hypersurface_eval_command(capsys):
    code, out, _ = run(
        capsys,
        ["hypersurface", "eval", "--surface", "igusa", "--point", "1,1,1,-1,-1,-1"],
    )
    assert code == 0
    assert "linear form: 0" in out and "degree form: 12" in out


def test_hypersurface_singular_command(capsys):
    code, out, _ = run(
        capsys,
        ["hypersurface", "singular", "--surface", "segre", "--point", "1,1,1,-1,-1,-1"],
    )
    assert code == 0 and "singular: true" in out
    code, _, err = run(
        capsys,
        ["hypersurface", "singular", "--surface", "igusa", "--point", "1,1,1,-1,-1,-1"],
    )
    assert code == 2 and "not on" in err
    code, _, err = run(
        capsys,
        ["hypersurface", "singular", "--surface", "segre", "--point", "1,2,3,4,5,6"],
    )
    assert "forms evaluate to 21, 441" in err and "Fraction" not in err


def test_hypersurface_singular_rejects_the_zero_vector(capsys):
    for action in ("singular", "eval"):
        for surface in ("segre", "igusa"):
            code, out, err = run(
                capsys,
                ["hypersurface", action, "--surface", surface, "--point", "0,0,0,0,0,0"],
            )
            assert code == 2 and out == ""
            assert "zero vector is not a projective point" in err


def test_hypersurface_lines_command(capsys):
    code, out, _ = run(capsys, ["hypersurface", "lines"])
    assert code == 0
    assert "15 pair-partition lines" in out
    assert "meets the others in 3 points" in out
    assert "lies on 3 lines" in out


def test_hypersurface_nodes_command(capsys):
    code, out, _ = run(capsys, ["hypersurface", "nodes", "--json"])
    payload = json.loads(out)
    assert code == 0 and payload["count"] == 10


def test_hypersurface_duality_command(capsys, monkeypatch):
    import sixpoint.hypersurfaces as hypersurfaces_mod

    argv = ["hypersurface", "duality", "--samples", "100", "--seed", "42"]
    code, out, _ = run(capsys, argv)
    assert code == 0 and "pass: true" in out and "seed: 42" in out
    assert "rational samples: 46" in out and "nonzero residuals: 0" in out
    code, out, _ = run(capsys, argv + ["--json"])
    payload = json.loads(out)
    assert code == 0 and payload["rationalSamples"] == 46 and payload["samples"] == 100

    original, original_sums = hypersurfaces_mod.gauss_image, hypersurfaces_mod._image_sums

    def corrupted(coords):
        # moved off the quartic, still in the sum-zero hyperplane
        image = list(original(coords))
        image[0] += 1
        image[1] -= 1
        return tuple(image)

    def corrupted_sums(head):
        # the sampler's Gauss step, with the same two images moved
        sums = original_sums(head)
        if sums is not None:
            sums[1][0] += 1
            sums[1][1] -= 1
        return sums

    # the report's pair patterns go through gauss_image, the sampler
    # through _image_sums
    monkeypatch.setattr(hypersurfaces_mod, "gauss_image", corrupted)
    monkeypatch.setattr(hypersurfaces_mod, "_image_sums", corrupted_sums)
    code, out, _ = run(capsys, argv)
    assert code == 1 and "pass: false" in out and "nonzero residuals: 100" in out
    code, out, _ = run(capsys, ["paper-report"])
    assert code == 1
    assert "FAIL sampled images exactly on the quartic (60 samples, seed 7)" in out
    assert "FAIL pair-pattern images on the quartic" in out


def test_tolerance_flag_is_rejected(capsys):
    for tol in ("1e-9", "nan", "inf"):
        for argv in (
            ["hypersurface", "duality", "--samples", "20", "--tol", tol],
            ["paper-report", "--tol", tol],
        ):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            _, err = capsys.readouterr()
            assert exc.value.code == 2, argv
            assert "usage:" in err and "unrecognized arguments: --tol" in err, argv


def test_sample_count_is_checked_before_any_work(capsys, monkeypatch):
    # "²" passes str.isdigit and int() refuses it; int() reads "١" as 1
    calls = []
    monkeypatch.setattr("sixpoint.hypersurfaces.duality_sample_check", lambda *a, **k: calls.append(1))
    for count in ("0", "-3", "abc", "1.5", "²", "١"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["hypersurface", "duality", "--samples", count])
        _, err = capsys.readouterr()
        assert exc.value.code == 2, count
        assert "expected a positive integer" in err, count
    assert calls == []


def test_negative_seeds_are_refused_before_any_work(capsys, monkeypatch):
    # random.Random(-5) draws what Random(5) draws, so --seed -5 used to
    # print "seed: -5" over the samples of seed 5
    calls = []
    monkeypatch.setattr("sixpoint.hypersurfaces.duality_sample_check", lambda *a, **k: calls.append(1))
    for seed in ("-5", "-1", "abc", "1.5", "²", "١"):
        for argv in (
            ["hypersurface", "duality", "--seed", seed],
            ["hypersurface", "duality", f"--seed={seed}"],
        ):
            code, out, last = usage_error(capsys, argv)
            assert code == 2 and out == "", argv
            assert last.endswith(f"argument --seed: expected a nonnegative integer, got '{seed}'"), argv
    assert calls == []
    monkeypatch.undo()
    code, out, _ = run(capsys, ["hypersurface", "duality", "--samples", "5", "--seed", "0"])
    assert code == 0 and "seed: 0" in out


def test_ambient_dimension_must_be_positive(capsys, stratum_file):
    # the value used to reach the file parser: "expected 0 coordinates, got 3"
    for dim in ("0", "-1", "²", "١"):
        for action, *rest in (["stability"], ["limit", "--lps", "1,0,0"]):
            argv = ["git", action, stratum_file, *rest, "--dim", dim]
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            _, err = capsys.readouterr()
            assert exc.value.code == 2, argv
            assert err.splitlines()[-1].endswith(
                f"argument --dim: expected a positive integer, got '{dim}'"
            ), argv
            assert "Traceback" not in err, argv


def test_m2_command(capsys):
    code, out, _ = run(capsys, ["m2", "--alpha", "9/11"])
    assert code == 0
    assert "model: P6QuotientSL2" in out and "wall: true" in out
    code, out, _ = run(capsys, ["m2", "--lambda", "1", "--json"])
    payload = json.loads(out)
    assert payload["model"] == "SatakeA2" and payload["boundaryCase"] is True
    assert payload["pullback"] == "1/5*B2 + 1/10*B3"
    code, out, _ = run(capsys, ["m2", "--delta0", "1", "--delta1", "12"])
    assert code == 0 and "model: P6QuotientSL2" in out
    code, out, _ = run(capsys, ["m2", "--Delta0", "1", "--Delta1", "6"])
    assert code == 0 and "model: P6QuotientSL2" in out


def test_m2_flag_validation(capsys):
    code, _, err = run(capsys, ["m2", "--alpha", "1", "--delta0", "1"])
    assert code == 2 and "combine" in err
    code, _, err = run(capsys, ["m2", "--delta0", "1", "--Delta1", "1"])
    assert code == 2 and "mix" in err
    code, _, err = run(capsys, ["m2"])
    assert code == 2


def test_m2_rejects_empty_coefficients(capsys):
    for flag in ("--alpha", "--lambda", "--delta0", "--delta1", "--Delta0", "--Delta1"):
        code, out, err = run(capsys, ["m2", flag, ""])
        assert code == 2 and out == "", flag
        assert err == f"error: {flag}: not a rational number: ''\n"


def test_paper_report_passes(capsys):
    code, out, _ = run(capsys, ["paper-report"])
    assert code == 0
    assert "summary:" in out and "FAIL" not in out


def test_paper_report_json(capsys):
    code, out, _ = run(capsys, ["paper-report", "--json"])
    payload = json.loads(out)
    assert code == 0 and payload["pass"] is True
    names = {group["name"] for group in payload["groups"]}
    assert "intersection-table" in names and "semistable-strata" in names


def test_paper_report_detects_a_broken_pairing(capsys, monkeypatch):
    import sixpoint.divisors as divisors_mod

    original = divisors_mod.intersect_c_curve

    def broken(div, curve):
        # drop the folded slot: the C4 row of the table must then fail
        value = original(div, curve)
        return value + div.coefficient(2) * 2 if curve.j == 4 else value

    monkeypatch.setattr(divisors_mod, "intersect_c_curve", broken)
    code, out, _ = run(capsys, ["paper-report"])
    assert code == 1
    assert "FAIL C4.B2" in out


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_closed_stdout_exits_1_without_a_traceback(unbuffered):
    # the reader has closed the pipe before the first write, as when head
    # exits before ``sixpoint paper-report | head -1`` has written everything
    env = dict(os.environ, PYTHONPATH=str(Path(sixpoint.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sixpoint.cli", "paper-report"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr


def test_cli_output_is_byte_identical_across_runs(capsys):
    argv = ["hypersurface", "duality", "--samples", "60", "--seed", "9"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert (code1, out1) == (code2, out2)
    argv = ["divisor", "chamber", "--expr", "2/5*B2+1/5*B3", "--json"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert (code1, out1) == (code2, out2)
