import json
from fractions import Fraction

import pytest

from sixpoint import cli
from sixpoint.cli import CLIError, parse_divisor_expression, parse_points_text
from sixpoint.divisors import SymmetricDivisor, boundary, canonical_divisor


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_divisor_intersect_command(capsys):
    code, out, _ = run(
        capsys, ["divisor", "intersect", "--expr", "DA", "--curve", "F:1,1,1,3"]
    )
    assert code == 0 and "intersection: 1/2" in out
    code, out, _ = run(
        capsys, ["divisor", "intersect", "--expr", "B2", "--curve", "C:4", "--json"]
    )
    assert code == 0 and json.loads(out)["intersection"] == "-2"
    code, _, err = run(capsys, ["divisor", "intersect", "--expr", "B2"])
    assert code == 2 and "curve" in err


def test_divisor_chamber_command(capsys):
    code, out, _ = run(capsys, ["divisor", "chamber", "--expr", "K + 1/3*psi"])
    assert code == 0
    assert "model: SegreCubic" in out and "wall: true" in out
    code, out, _ = run(capsys, ["divisor", "chamber", "--expr", "K", "--json"])
    assert code == 0
    assert json.loads(out)["model"] == "OutsideEffectiveCone"


def test_divisor_baselocus_command(capsys):
    code, out, _ = run(capsys, ["divisor", "baselocus", "--expr", "B3"])
    assert code == 0 and "stable base locus: B3" in out
    code, _, err = run(capsys, ["divisor", "baselocus", "--expr", "K"])
    assert code == 2 and "not effective" in err


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
    code, _, err = run(
        capsys,
        ["git", "stability", stratum_file, "--weights", "1/2,1/2,1/2,1/2,1/2,1/2",
         "--weights-file", str(weights)],
    )
    assert code == 2 and "not both" in err


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


def test_git_limit_command(capsys, conic_file):
    code, out, _ = run(capsys, ["git", "limit", conic_file, "--lps", "1,0,0"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "1 0 0"
    assert lines[2] == "0 1 1"
    code, _, err = run(capsys, ["git", "limit", conic_file])
    assert code == 2 and "--lps" in err
    code, _, err = run(capsys, ["git", "limit", conic_file, "--lps", "1,1,1"])
    assert code == 2


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


def test_git_conic_command(capsys, conic_file, stratum_file):
    code, out, _ = run(capsys, ["git", "conic", conic_file])
    assert code == 0 and "on conic: true" in out
    code, out, _ = run(capsys, ["git", "conic", stratum_file, "--json"])
    assert code == 0 and json.loads(out)["onConic"] is True


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
    for surface in ("segre", "igusa"):
        code, out, err = run(
            capsys,
            ["hypersurface", "singular", "--surface", surface, "--point", "0,0,0,0,0,0"],
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

    original = hypersurfaces_mod.gauss_image

    def corrupted(coords):
        # moved off the quartic, still in the sum-zero hyperplane
        image = list(original(coords))
        image[0] += 1
        image[1] -= 1
        return tuple(image)

    monkeypatch.setattr(hypersurfaces_mod, "gauss_image", corrupted)
    code, out, _ = run(capsys, argv)
    assert code == 1 and "pass: false" in out and "nonzero residuals: 100" in out
    code, out, _ = run(capsys, ["paper-report", "--samples", "20"])
    assert code == 1
    assert "FAIL sampled images exactly on the quartic (seed 7)" in out
    assert "FAIL pair-pattern images on the quartic" in out


def test_tolerance_flag_is_rejected(capsys):
    for tol in ("1e-9", "nan", "inf"):
        for argv in (
            ["hypersurface", "duality", "--samples", "20", "--tol", tol],
            ["paper-report", "--samples", "5", "--tol", tol],
        ):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            _, err = capsys.readouterr()
            assert exc.value.code == 2, argv
            assert "usage:" in err and "unrecognized arguments: --tol" in err, argv


def test_sample_count_is_checked_before_any_work(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli.report_mod, "_divisor_relations", lambda: calls.append(1))
    for count in ("0", "-3", "abc", "1.5"):
        for argv in (
            ["paper-report", "--samples", count],
            ["hypersurface", "duality", "--samples", count],
        ):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            _, err = capsys.readouterr()
            assert exc.value.code == 2, argv
            assert "expected a positive integer" in err, argv
    assert calls == []


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


def test_paper_report_passes(capsys):
    code, out, _ = run(capsys, ["paper-report", "--samples", "30"])
    assert code == 0
    assert "summary:" in out and "FAIL" not in out


def test_paper_report_json(capsys):
    code, out, _ = run(capsys, ["paper-report", "--samples", "30", "--json"])
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
    code, out, _ = run(capsys, ["paper-report", "--samples", "2"])
    assert code == 1
    assert "FAIL C4.B2" in out


def test_cli_output_is_byte_identical_across_runs(capsys):
    argv = ["hypersurface", "duality", "--samples", "60", "--seed", "9"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert (code1, out1) == (code2, out2)
    argv = ["divisor", "chamber", "--expr", "2/5*B2+1/5*B3", "--json"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert (code1, out1) == (code2, out2)
