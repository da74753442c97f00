"""Exact p-adic spectral theory of Hecke operators on q-expansion models.

Matrices over Z/p^m with honest precision tracking, Hecke
operators with exact p-power normalizations, ordinary projectors and
Hida families, overconvergent U_p slope spectra with classicality
comparisons, local eigencurve data over weight discs, and the
degree-0/degree-1 duality probes.
"""

from .charseries import (
    CharSeries,
    NewtonPolygon,
    char_series,
    newton_polygon,
)
from .coleman import (
    ClassicalityReport,
    KatzBasis,
    SlopeReport,
    classical_up_spectrum,
    classicality_check,
    katz_basis,
    slope_spectrum,
    up_matrix,
)
from .duality import (
    DualFamily,
    DualityReport,
    ThetaProbeReport,
    adjunction_check,
    charseries_duality_check,
    dual_module,
    theta_probe,
)
from .eigencurve import (
    TwoVarCharSeries,
    WeightDisc,
    local_piece_report,
    slopes_at,
    two_var_charseries,
)
from .errors import ConfigError, PrecisionError, VerificationError
from .forms import (
    SUPPORTED_PRIMES,
    SpaceBasis,
    basis_dimension,
    delta,
    eisenstein,
    hasse_invariant,
    miller_basis,
)
from .hecke import frobenius, hecke_tp, theta, up, up_naive
from .hida import (
    ControlReport,
    HasseTower,
    OrdinaryFamily,
    build_hasse_tower,
    control_check_h0,
    fit_family,
    mod_p_space,
    ordinary_rank_mod_p,
    tp_matrix,
)
from .linalg import (
    ProjectorResult,
    SolveResult,
    invert_unimodular,
    ordinary_projector,
    solve_in_basis,
)
from .padic import PadicMatrix
from .qexp import ModRing, QSeries, ZZ
from .weights import (
    IwasawaTruncation,
    WeightPoint,
    interpolate_iwasawa,
    w_coordinate,
)

__version__ = "0.1.0"
