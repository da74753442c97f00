"""Degree-0 / degree-1 duality, realized through dual modules.

The degree-1 side is represented as the dual with the transposed
operator (the pairing makes U_p and the Frobenius adjoint), so the
computable consequences are: characteristic series of a matrix and of
its transpose agree exactly; ordinary ranks agree on both sides; the
adjunction identity holds for any pairing matrix; and the theta probe
relates the weight 2-k and weight k spectra by the slope shift k-1.

The theta probe compares slopes of the q-expansion operator
f -> sum a_{np} q^n on both sides, where the chain
U_p^naive . theta^(k-1) = p^(k-1) theta^(k-1) . U_p^naive gives the
shift.  theta^(k-1) kills the constants, which only live at source
weight 0 (k = 2); that class is excluded and reported rather than
counted.  Both polygons come from ``coleman.slope_spectrum`` certified
through fixed bounds, by the rule that ``coleman._spectrum_core``
states.  The probe takes no twist-depth or bound parameters.

The probe's negative control shifts each source slope by k instead of
k - 1 and must miss the target.  At k = 2 it cannot discriminate at
p = 11 or 13: the source slopes there are consecutive integers, so each
shifted-by-k image is another class's shifted-by-(k-1) image, the
control is contained and the probe fails by design until the degree-1
side is built from H^1 itself rather than the transpose.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import List, NamedTuple, Optional, Sequence

from .charseries import char_series
from .coleman import katz_basis, slope_spectrum, up_matrix
from .errors import ConfigError, PrecisionError
from .forms import basis_dimension
from .linalg import invert_unimodular, ordinary_projector
from .padic import PadicMatrix, Value


class DualFamily(Value):
    """Dual of an ordinary block: the pairing matrix and the operator
    acting on the dual side (transpose in gram-dual coordinates)."""

    __match_args__ = ("rank", "gram", "operator_on_dual")

    def __init__(self, rank: int, gram: PadicMatrix, operator_on_dual: PadicMatrix) -> None:
        if gram.size != rank:
            raise ValueError("gram matrix size must equal the source rank")
        vars(self).update(rank=rank, gram=gram, operator_on_dual=operator_on_dual)


def dual_module(up_matrix_block: PadicMatrix, gram: Optional[PadicMatrix] = None) -> DualFamily:
    """Dual module of a U_p block: the Frobenius side acts by the
    gram-conjugated transpose (identity gram by default)."""
    n = up_matrix_block.size
    if gram is None:
        gram = PadicMatrix.identity(n, up_matrix_block.p, up_matrix_block.m)
    if gram.size != n:
        raise ValueError("gram matrix size mismatch")
    f_op = invert_unimodular(gram) @ up_matrix_block.transpose() @ gram
    return DualFamily(n, gram, f_op)


def adjunction_check(
    f_coords: Sequence[int],
    g_coords: Sequence[int],
    up_mat: PadicMatrix,
    gram: Optional[PadicMatrix] = None,
    f_op: Optional[PadicMatrix] = None,
) -> bool:
    """Verify <U_p f, g> = <f, F g> exactly over Z/p^m.

    The pairing is <x, y> = x^T gram y = sum_i x_i (gram y)_i; F defaults
    to the gram-dual transpose of U_p, and a perturbed F makes the check
    fail.
    """
    if gram is None:
        gram = PadicMatrix.identity(up_mat.size, up_mat.p, up_mat.m)
    if f_op is None:
        f_op = dual_module(up_mat, gram).operator_on_dual
    lhs = sum(map(mul, up_mat.apply(f_coords), gram.apply(g_coords)))
    rhs = sum(map(mul, f_coords, gram.apply(f_op.apply(g_coords))))
    return (lhs - rhs) % up_mat.modulus == 0


def transpose_charseries_equal(matrix: PadicMatrix) -> bool:
    """Characteristic series of U and U^T agree exactly (always true;
    verified rather than assumed)."""
    return char_series(matrix).coeffs == char_series(matrix.transpose()).coeffs


def rank_duality_check(matrix: PadicMatrix) -> dict:
    """rank e(U_p) = rank e(F) with F the transposed operator."""
    r_source = ordinary_projector(matrix).rank
    r_dual = ordinary_projector(matrix.transpose()).rank
    return {"rank_source": r_source, "rank_dual": r_dual, "equal": r_source == r_dual}


class ThetaProbeClass(NamedTuple):
    source_qslope: Fraction
    target_qslope: Fraction
    present: bool
    kernel_excluded: bool


class ThetaProbeReport(NamedTuple):
    p: int
    weight: int  # k; the source lives at weight 2-k
    shift: int
    bound: Fraction
    classes: tuple
    control_shift: int
    control_contained: bool  # the negative control must NOT be contained

    @property
    def passed(self) -> bool:
        return all(c.present or c.kernel_excluded for c in self.classes) and (
            not self.control_contained
        )


def theta_probe(k: int, p: int, m: int) -> ThetaProbeReport:
    """Check that weight 2-k slopes reappear at weight k shifted by k-1.

    Slopes here are those of the q-expansion operator sum a_{np} q^n on
    the Katz models of both weights, each taken from ``slope_spectrum``
    certified through its bound: source slopes below 4, target slopes
    below 4 + k + 1, which covers both the images s + k - 1 and the
    negative control s + k.  Twist depths are the least giving Katz
    dimension 6 (source) and 8 (target).
    """
    if k < 2:
        raise ConfigError("theta probe needs k >= 2")
    shift = k - 1
    bound = Fraction(4)
    src_poly = slope_spectrum(
        2 - k, p, _default_depth(2 - k, p, 6), m, certify_below=bound, classical=False
    ).qexp_polygon
    tgt_poly = slope_spectrum(
        k, p, _default_depth(k, p, 8), m, certify_below=bound + k + 1, classical=False
    ).qexp_polygon
    source = [s for s in src_poly.slope_multiset() if s < bound]
    target = tgt_poly.slope_multiset()

    classes: List[ThetaProbeClass] = []
    kernel_budget = 1 if k == 2 else 0  # constants at source weight 0
    remaining = list(target)
    for s in sorted(source):
        image = s + shift
        present = _take(remaining, image)
        excluded = not present and kernel_budget > 0 and s == 0
        if excluded:
            kernel_budget -= 1
        classes.append(ThetaProbeClass(s, image, present, excluded))

    if all(c.kernel_excluded for c in classes):
        raise PrecisionError(
            "theta probe is vacuous: no non-kernel source classes below the bound"
        )
    control_pool = list(target)
    control_ok = all(
        _take(control_pool, c.source_qslope + k) for c in classes if not c.kernel_excluded
    )
    return ThetaProbeReport(
        p=p,
        weight=k,
        shift=shift,
        bound=bound,
        classes=tuple(classes),
        control_shift=k,
        control_contained=control_ok,
    )


def _take(pool: list, value) -> bool:
    """Remove one ``value`` from the multiset ``pool``: False, and the pool
    unchanged, when it holds none.  The probe's image match and its
    negative control both match slopes by it."""
    if value in pool:
        pool.remove(value)
        return True
    return False


def _default_depth(k: int, p: int, min_dim: int) -> int:
    depth = 0
    while basis_dimension(k + depth * (p - 1)) < min_dim:
        depth += 1
    return depth


class DualityReport(NamedTuple):
    p: int
    weight: int
    structural_equal: bool
    rank_duality: dict
    theta: ThetaProbeReport

    @property
    def passed(self) -> bool:
        return (
            self.structural_equal
            and self.rank_duality["equal"]
            and self.theta.passed
        )

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


def charseries_duality_check(
    k: int, p: int, twist_depth: int, m: int
) -> DualityReport:
    """Combined duality verdict at weight k.

    (a) structural: char series of the weight-k U_p matrix equals that
    of its transpose, exactly; (b) ordinary rank agrees on both sides;
    (c) the theta probe relates the weight 2-k and weight k spectra by
    the slope shift k-1, with the wrong shift failing.  k >= 2 is
    checked before any matrix is built.
    """
    if k < 2:
        raise ConfigError("theta probe needs k >= 2")
    basis = katz_basis(k, p, twist_depth)
    matrix = up_matrix(basis, m)
    structural = transpose_charseries_equal(matrix)
    ranks = rank_duality_check(matrix)
    probe = theta_probe(k, p, m)
    return DualityReport(p, k, structural, ranks, probe)
