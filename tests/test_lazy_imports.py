"""What a cold process loads, and the lazy package namespace.

``import sixpoint`` loads no submodule; each public name imports its
submodule on first use, and each CLI command loads only the modules it
runs.  No command loads ``dataclasses`` or ``inspect``.  The checks
compare module sets, not timings.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sixpoint

# the public names, by the submodule that defines them
PUBLIC = {
    "exact": ["RationalMatrix", "parse_rational"],
    "divisors": [
        "BaseLocus", "CCurve", "ChamberReport", "FCurve", "Model", "SymmetricDivisor",
        "boundary", "canonical_divisor", "canonical_polarization", "from_k_psi",
        "intersect_c_curve", "intersect_f_curve", "is_effective", "is_f_nonnegative",
        "mori_model", "psi_divisor", "stable_base_locus", "total_boundary",
    ],
    "stability": [
        "OneParameterSubgroup", "PointConfiguration", "StabilityVerdict", "Status",
        "WeightVector", "Witness", "lies_on_conic", "one_parameter_limit",
        "stability_status", "stabilizer_dimension", "symmetric_weights",
    ],
    "strata": [
        "StratumSignature", "classify_stratum", "polystable_degeneration",
        "stratum_representative", "stratum_signature",
    ],
    "hypersurfaces": [
        "Hypersurface", "duality_sample_check", "evaluate", "gradient",
        "is_singular_point", "pair_partition_lines", "segre_nodes",
    ],
    "genus2": [
        "M2ChamberReport", "M2Divisor", "M2Model", "Space", "hassett_keel_divisor",
        "m2_chamber", "pullback_to_m06",
    ],
    "report": ["PaperReport", "build_report"],
}
ALL = [name for names in PUBLIC.values() for name in names]

STRATUM_I = "1 0 0\n1 0 0\n0 1 0\n0 1 0\n0 0 1\n0 0 1\n"


def loaded_modules(*args: str) -> set[str]:
    """Every module that ``python -X importtime <args>`` imports."""
    env = dict(os.environ, PYTHONPATH=str(Path(sixpoint.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-500:]
    return {
        line.rsplit("|", 1)[-1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


def loaded_submodules(*args: str) -> set[str]:
    """The sixpoint submodules that ``python -X importtime <args>`` imports."""
    names = loaded_modules(*args)
    return {name.removeprefix("sixpoint.") for name in names if name.startswith("sixpoint.")}


def test_import_sixpoint_loads_no_submodule():
    assert loaded_submodules("-c", "import sixpoint") == set()


def test_each_command_loads_only_its_modules(tmp_path):
    config = tmp_path / "stratum-i.txt"
    config.write_text(STRATUM_I, encoding="ascii")
    cli = ("-m", "sixpoint.cli")
    assert loaded_submodules(*cli, "divisor", "chamber", "--expr=B2") == {"exact", "divisors"}
    git = loaded_submodules(*cli, "git", "stratum", str(config))
    assert {"stability", "strata"} <= git
    assert not git & {"hypersurfaces", "genus2", "report"}
    assert loaded_submodules(*cli, "paper-report") == set(PUBLIC)


@pytest.mark.parametrize("command", [
    ["divisor", "chamber", "--expr=-K"],
    ["m2", "--alpha", "7/10"],
    ["git", "stratum"],
    ["git", "degenerate"],
    ["hypersurface", "duality", "--samples", "5"],
    ["paper-report"],
], ids=" ".join)
def test_no_command_loads_dataclasses_or_inspect(command, tmp_path):
    # dataclasses imports inspect, which imports ast, dis and tokenize: a
    # cold command that loads them pays for all four before it starts
    if command[0] == "git":
        config = tmp_path / "stratum-i.txt"
        config.write_text(STRATUM_I, encoding="ascii")
        command = [*command, str(config)]
    modules = loaded_modules("-m", "sixpoint.cli", *command)
    assert "sixpoint.exact" in modules
    assert not modules & {"dataclasses", "inspect"}


def test_the_namespace_lists_every_public_name():
    assert len(ALL) == 52
    assert sixpoint.__all__ == ALL
    assert set(ALL) <= set(dir(sixpoint))
    namespace = {}
    exec("from sixpoint import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ALL)


def test_each_name_is_its_submodules_object():
    for module, names in PUBLIC.items():
        submodule = importlib.import_module(f"sixpoint.{module}")
        for name in names:
            assert getattr(sixpoint, name) is getattr(submodule, name), name


def test_a_name_is_looked_up_on_every_access(monkeypatch):
    # nothing is cached on the package, so a rebound function is seen there
    from sixpoint import divisors

    original = sixpoint.mori_model
    monkeypatch.setattr(divisors, "mori_model", len)
    assert sixpoint.mori_model is len
    monkeypatch.undo()
    assert sixpoint.mori_model is original


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        sixpoint.no_such_name
    assert not hasattr(sixpoint, "SEGRE_CUBIC")
