"""Exact-arithmetic toolkit for symmetric divisors on the moduli space of
six-pointed rational curves and its birational models.

The package namespace is lazy (PEP 562): ``import sixpoint`` loads no
submodule, and each public name imports its submodule on first use.
"""

from importlib import import_module

# each public name and the submodule that defines it
_SUBMODULE_OF = {
    name: module
    for module, names in {
        "exact": ("RationalMatrix", "parse_rational"),
        "divisors": (
            "BaseLocus", "CCurve", "ChamberReport", "FCurve", "Model", "SymmetricDivisor",
            "boundary", "canonical_divisor", "canonical_polarization", "from_k_psi",
            "intersect_c_curve", "intersect_f_curve", "is_effective", "is_f_nonnegative",
            "mori_model", "psi_divisor", "stable_base_locus", "total_boundary",
        ),
        "stability": (
            "OneParameterSubgroup", "PointConfiguration", "StabilityVerdict", "Status",
            "WeightVector", "Witness", "lies_on_conic", "one_parameter_limit",
            "stability_status", "stabilizer_dimension", "symmetric_weights",
        ),
        "strata": (
            "StratumSignature", "classify_stratum", "polystable_degeneration",
            "stratum_representative", "stratum_signature",
        ),
        "hypersurfaces": (
            "Hypersurface", "duality_sample_check", "evaluate", "gradient",
            "is_singular_point", "pair_partition_lines", "segre_nodes",
        ),
        "genus2": (
            "M2ChamberReport", "M2Divisor", "M2Model", "Space", "hassett_keel_divisor",
            "m2_chamber", "pullback_to_m06",
        ),
        "report": ("PaperReport", "build_report"),
    }.items()
    for name in names
}

__all__ = list(_SUBMODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    # looked up on every access, never cached here, so a function rebound on
    # its submodule (a tracer's wrapper, a test's patch) is what callers see
    if name not in _SUBMODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_SUBMODULE_OF[name]}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
