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
from .classical import classical_up_spectrum
from .coleman import (
    KatzBasis,
    SlopeReport,
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
    local_piece_report,
    two_var_charseries,
)
from .errors import ConfigError, PrecisionError, VerificationError
from .forms import (
    SUPPORTED_PRIMES,
    SpaceBasis,
    basis_dimension,
    delta,
    eisenstein,
    miller_basis,
)
from .hecke import frobenius, hecke_tp, up
from .hida import (
    ControlReport,
    HasseTower,
    OrdinaryFamily,
    build_hasse_tower,
    control_check_h0,
    fit_family,
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
    WeightDisc,
    interpolate_iwasawa,
    w_coordinate,
)

__version__ = "0.1.0"
