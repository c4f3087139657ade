"""Exact-arithmetic toolkit for symmetric divisors on the moduli space of
six-pointed rational curves and its birational models."""

from .exact import Rational, RationalMatrix, parse_rational
from .divisors import (
    BaseLocus,
    CCurve,
    ChamberReport,
    FCurve,
    Model,
    SymmetricDivisor,
    boundary,
    canonical_divisor,
    canonical_polarization,
    from_k_psi,
    intersect_c_curve,
    intersect_f_curve,
    is_effective,
    is_f_nonnegative,
    mori_model,
    psi_divisor,
    stable_base_locus,
    total_boundary,
)
from .stability import (
    OneParameterSubgroup,
    PointConfiguration,
    StabilityVerdict,
    Status,
    WeightVector,
    Witness,
    lies_on_conic,
    one_parameter_limit,
    stability_status,
    stabilizer_dimension,
    symmetric_weights,
)
from .strata import (
    StratumSignature,
    classify_stratum,
    polystable_degeneration,
    stratum_representative,
    stratum_signature,
)
from .hypersurfaces import (
    Hypersurface,
    duality_sample_check,
    evaluate,
    gradient,
    is_singular_point,
    pair_partition_lines,
    segre_nodes,
)
from .genus2 import (
    M2ChamberReport,
    M2Divisor,
    M2Model,
    Space,
    hassett_keel_divisor,
    m2_chamber,
    pullback_to_m06,
)
from .report import PaperReport, build_report

__version__ = "0.1.0"
