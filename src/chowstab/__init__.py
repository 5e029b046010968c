"""Exact Chow weights and higher Futaki invariants of polarized manifolds.

The package computes, in exact rational arithmetic, the Chow weight
function and the higher Futaki invariants F_1..F_n attached to a
one-parameter group acting on a polarized variety, in three settings:

* from raw Hilbert and weight polynomials (``chowcore``),
* for projectivized bundles over curves of genus >= 2 (``projbundle``),
* for blowups of a Chow-polystable base at fixed points (``blowup``),

with brute-force enumeration oracles validating every closed form, and a
search (``p2lab``) for integer polarizations of the plane blown up at four
special points that have F_1 = 0 but F_2 != 0.
"""
from .exactalg import (
    MPoly,
    Poly,
    RatFn,
    cm_constants,
    format_rational,
    parse_rational,
    stirling_coeffs,
)
from .chowcore import (
    HilbertData,
    InvariantReport,
    WeightData,
    chow_weight_fn,
    futaki_invariants,
    report,
    shift_linearization,
)
from .projbundle import (
    CurveBundleSpec,
    SlopeVerdict,
    Summand,
    chow_weight,
    euler_char_poly,
    higher_futaki,
    oracle,
    slope_classify,
    weight_poly,
)
from .blowup import (
    BaseSummary,
    BlownPoint,
    BlowupSpec,
    adiabatic,
    chi_tilde,
    chow_blowup,
    d_f_g,
    futaki_blowup,
    oracle_p2,
    projective_space_base,
    w_tilde,
)
from .p2lab import (
    Candidate,
    DiagAction,
    PointConfig,
    ample_check,
    fixed_point_data,
    psi_reconstruct,
    search_unstable,
    three_point_loci,
    triple_point_check,
)
from .errors import (
    AmplenessWarning,
    CrossCheckError,
    DegenerateInputError,
    ResourceLimitError,
)

__version__ = "0.1.0"
