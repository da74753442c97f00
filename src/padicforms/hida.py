"""Ordinary (Hida-theoretic) structure of the classical spaces.

Mod-p spaces and their Hasse tower, ordinary ranks, the weight-raising
control check, and interpolation of ordinary eigen-data across a weight
progression into an Iwasawa-polynomial family.  Every decomposition, of
a space into its ordinary part and of that into eigensystems, is a
``linalg.ordinary_projector`` with a basis from ``independent_columns``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .charseries import char_series
from .errors import ConfigError, PrecisionError, VerificationError
from .forms import SUPPORTED_PRIMES, SpaceBasis, basis_dimension, miller_basis
from .hecke import hecke_tp
from .linalg import (
    echelon_mod_p,
    in_row_span_mod_p,
    independent_columns,
    ordinary_projector,
    rank_mod_p,
    restrict_to_image,
)
from .padic import PadicMatrix, is_prime
from .qexp import ModRing
from .weights import IwasawaTruncation, congruence_table, interpolate_iwasawa


def _check_theory_prime(p: int) -> None:
    if p not in SUPPORTED_PRIMES:
        raise ConfigError(f"p-adic theory is configured for p in {SUPPORTED_PRIMES}")


def default_qprec(k: int, operator_primes: Sequence[int]) -> int:
    """q-precision sufficient to write operator images in the basis."""
    d = basis_dimension(k)
    return max(operator_primes) * (d + 3) + 4


def operator_matrix(basis: SpaceBasis, op) -> Tuple[Tuple[int, ...], ...]:
    """Matrix of an operator in an echelon basis (columns = images).

    In a reduced echelon basis the coordinates of g are just its first
    dim coefficients; the full available q-expansion of the
    reconstruction is checked against g, so an operator that does not
    preserve the space is caught rather than silently projected.
    """
    d = basis.dim
    if d == 0:
        return ()
    images = [op(f) for f in basis.forms]
    qcheck = min(im.qprec for im in images)
    if qcheck < d:
        raise PrecisionError(
            f"operator image precision {qcheck} below dimension {d}"
        )
    cols = [im.coeffs[:d] for im in images]
    for j, im in enumerate(images):
        recon = None
        for i, f in enumerate(basis.forms):
            term = f.scale(cols[j][i])
            recon = term if recon is None else recon + term
        if recon.truncate(qcheck) != im.truncate(qcheck):
            raise VerificationError(
                f"operator image of basis form {j} leaves the space"
            )
    return tuple(tuple(cols[j][i] for j in range(d)) for i in range(d))


def tp_matrix(k: int, p: int):
    """Matrix of T_p on the Miller basis of M_k, exact over Z."""
    if not is_prime(p):
        raise ConfigError(f"{p} is not prime")
    basis = miller_basis(k, default_qprec(k, [p]))
    return operator_matrix(basis, lambda f: hecke_tp(f, k, p))


def mod_p_space(k: int, p: int, qprec: Optional[int] = None) -> SpaceBasis:
    """Reduction mod p of the Miller basis; stays echelon since pivots are 1.

    Spaces compared with ``in_row_span_mod_p`` need one shared ``qprec``.
    """
    _check_theory_prime(p)
    if qprec is None:
        qprec = default_qprec(k, [p])
    return miller_basis(k, qprec, ModRing(p, 1))


def ordinary_rank_mod_p(k: int, p: int) -> int:
    """Rank of e(T_p) on the mod-p weight-k space (T_p = U_p here, k >= 2)."""
    if k < 2:
        raise ConfigError(f"ordinary rank needs k >= 2, got {k}")
    basis = mod_p_space(k, p)
    if basis.dim == 0:
        return 0
    rows = operator_matrix(basis, lambda f: hecke_tp(f, k, p))
    matrix = PadicMatrix.from_rows(rows, p, 1, basis_tag=f"miller:{k}")
    return ordinary_projector(matrix).rank


@dataclass(frozen=True)
class HasseTower:
    """Mod-p spaces at weights k, k+(p-1), ..., with the identity-on-q-expansions
    inclusions that exist because the Hasse invariant has q-expansion 1."""

    p: int
    base_weight: int
    levels: tuple


def build_hasse_tower(k: int, p: int, n: int) -> HasseTower:
    qprec = default_qprec(k + n * (p - 1), [p])
    levels = [mod_p_space(k + j * (p - 1), p, qprec) for j in range(n + 1)]
    for lower, upper in zip(levels, levels[1:]):
        ech, piv = echelon_mod_p([f.coeffs for f in upper.forms], p)
        for f in lower.forms:
            if not in_row_span_mod_p(f.coeffs, ech, piv, p):
                raise VerificationError(
                    f"Hasse tower inclusion fails from weight {lower.weight} "
                    f"to {upper.weight}"
                )
    return HasseTower(p, k, tuple(levels))


@dataclass(frozen=True)
class ControlReport:
    p: int
    k: int
    n: int
    target_weight: int
    rank_high: int
    rank_low: int
    contained: bool
    weight2_twist: bool

    @property
    def passed(self) -> bool:
        return self.contained


def _ordinary_image_qexpansions(basis: SpaceBasis, p: int) -> List[Tuple[int, ...]]:
    """Echelon q-expansions mod p spanning e(T_p) of a mod-p space.

    Only the columns of e that ``independent_columns`` picks are expanded:
    they span the image of e, so the echelon form is that of all columns.
    """
    if basis.dim == 0:
        return []
    rows = operator_matrix(basis, lambda f: hecke_tp(f, basis.weight, p))
    matrix = PadicMatrix.from_rows(rows, p, 1)
    columns, _ = independent_columns(ordinary_projector(matrix).idempotent)
    by_degree = list(zip(*(f.coeffs for f in basis.forms)))
    images = [
        [sum(c * a for c, a in zip(column, coeffs)) % p for coeffs in by_degree]
        for column in columns
    ]
    return echelon_mod_p(images, p)[0]


def control_check_h0(k: int, p: int, n: int) -> ControlReport:
    """Verify e(U_p) M_{k+n(p-1)}(F_p) sits inside the weight-k target as
    q-expansions, through the identity embedding of the Hasse tower.

    For k >= 3 (the control-theorem bound) the target is M_k(F_p).  At
    the k = 2 boundary the classical side allows one extra Hasse twist,
    so containment is tested in M_{2+(p-1)}(F_p).
    """
    _check_theory_prime(p)
    if k < 2:
        raise ConfigError(f"control check needs k >= 2, got {k}")
    if n < 0:
        raise ConfigError("n must be >= 0")
    twist = k == 2
    target_weight = k + (p - 1) if twist else k
    high_weight = k + n * (p - 1)
    qprec = default_qprec(high_weight, [p])
    high = mod_p_space(high_weight, p, qprec)
    low = mod_p_space(target_weight, p, qprec)
    image = _ordinary_image_qexpansions(high, p)
    low_ech, low_piv = echelon_mod_p([f.coeffs for f in low.forms], p) if low.dim else ([], [])
    contained = all(in_row_span_mod_p(v, low_ech, low_piv, p) for v in image)
    rank_low = len(_ordinary_image_qexpansions(low, p))
    return ControlReport(p, k, n, target_weight, len(image), rank_low, contained, twist)


def unit_root_of_stabilization(t_p: int, k: int, p: int, m: int) -> int:
    """Unit root of x^2 - t_p x + p^(k-1) mod p^m, by Hensel iteration.

    This is the U_p eigenvalue of the ordinary p-stabilization of an
    eigenform with T_p eigenvalue t_p (a unit).  A root congruent to
    t_p needs p | p^(k-1), so k >= 2 is required.
    """
    if k < 2:
        raise ValueError(f"the unit root needs weight k >= 2, got {k}")
    modulus = p**m
    if t_p % p == 0:
        raise ValueError("t_p must be a unit for an ordinary stabilization")
    c = pow(p, k - 1, modulus)
    x = t_p % modulus
    for _ in range(m.bit_length() + 2):
        fx = (x * x - t_p * x + c) % modulus
        if fx == 0:
            break
        dfx = (2 * x - t_p) % modulus
        x = (x - fx * pow(dfx, -1, modulus)) % modulus
    if (x * x - t_p * x + c) % modulus != 0:
        raise VerificationError("Hensel iteration for the unit root did not converge")
    return x


@dataclass(frozen=True)
class EigenSystem:
    """A rank-1 ordinary eigensystem over Z/p^m at one weight."""

    weight: int
    key: tuple  # mod-p eigenvalue tuple over the configured primes
    eigenvalues: dict  # prime -> eigenvalue mod p^m (a_p = U_p unit root)


@dataclass(frozen=True)
class OrdinaryFamily:
    """Ordinary eigen-data across a weight progression with fitted
    Iwasawa polynomials; rank is constant across the sample weights."""

    p: int
    component: int
    sample_weights: tuple
    rank: int
    eigen_data: dict  # weight -> {prime -> tuple of eigenvalues per system}
    keys: tuple  # canonical order of the matched eigensystem keys
    fitted: dict  # prime -> {key -> IwasawaTruncation}
    congruence_checks: tuple
    unsplit_blocks: tuple = ()
    m: int = 1


def _split_ordinary_systems(
    weight: int,
    op_mats: Dict[int, PadicMatrix],
    p: int,
    m: int,
    primes: Sequence[int],
):
    """Split the ordinary block into rank-1 eigensystems where mod-p
    eigenvalues separate; inseparable parts are reported unsplit.

    Every decomposition is a Fitting projector.  All operators are first
    restricted to the image of e(T_p); then each candidate operator S
    (T_p first, then the other primes) is tried in turn.  S splits the
    block when S - a is singular mod p for r = rank residues a: its r
    eigenvalues mod p are then distinct and in F_p, so each generalized
    a-eigenspace is a line.  That line is the summand on which S - a is
    nilpotent mod p, the kernel of e(S - a), so its idempotent is
    1 - e(S - a).  An idempotent commuting with S is fixed by its image
    and kernel, so the pieces do not depend on how they are found.
    """
    proj = ordinary_projector(op_mats[p])
    r = proj.rank
    if r == 0:
        return [], [], 0
    restricted = _restrict_operators_to_subblock(op_mats, proj.idempotent)

    if r == 1:
        return [_make_system(weight, restricted, p, m, primes)], [], 1

    one = PadicMatrix.identity(r, p, m)
    for ell in [p] + [q for q in primes if q != p]:
        shifts = [restricted[ell] - one.scale(a) for a in range(p)]
        singular = [s for s in shifts if rank_mod_p(s.rows, p) < r]
        if len(singular) == r:
            systems = []
            for shifted in singular:
                idem = one - ordinary_projector(shifted).idempotent
                sub = _restrict_operators_to_subblock(restricted, idem)
                systems.append(_make_system(weight, sub, p, m, primes))
            return systems, [], r
    # could not split into rank-1 pieces: report the block unsplit, with
    # det(1 - T.S) mod p, whose coefficients are the descending ones of det(x - S)
    block_info = {
        "weight": weight,
        "rank": r,
        "charpoly_mod_p": {
            ell: char_series(mat.reduce(1)).coeffs for ell, mat in restricted.items()
        },
    }
    return [], [block_info], r


def _restrict_operators_to_subblock(restricted, idem):
    chosen, pivot_rows = independent_columns(idem)
    return {ell: restrict_to_image(mat, chosen, pivot_rows) for ell, mat in restricted.items()}


def _make_system(weight, restricted, p, m, primes) -> EigenSystem:
    eigenvalues = {}
    for ell in primes:
        mat = restricted[ell]
        if mat.size != 1:
            raise VerificationError("eigensystem block is not one-dimensional")
        val = mat.rows[0][0]
        if ell == p:
            val = unit_root_of_stabilization(val, weight, p, m)
        eigenvalues[ell] = val
    key = tuple(eigenvalues[ell] % p for ell in primes)
    return EigenSystem(weight, key, eigenvalues)


def fit_family(
    p: int,
    component: int,
    sample_weights: Sequence[int],
    hecke_primes: Sequence[int],
    m: int,
) -> OrdinaryFamily:
    """Interpolate ordinary eigen-data across congruent sample weights.

    At each weight the T_p matrix on the Miller basis is lifted to
    Z/p^m, projected to its ordinary part, and split into eigensystems
    matched across weights by their mod-p eigenvalue tuples.  Each a_ell
    is then fitted as a polynomial in w by divided differences, and the
    interpolation congruences are recorded.  A rank change across
    weights contradicts the control theorem and is a hard failure.
    """
    _check_theory_prime(p)
    weights = sorted(set(sample_weights))
    if len(weights) < 1:
        raise ConfigError("need at least one sample weight")
    for k in weights:
        if k % (p - 1) != component % (p - 1):
            raise ConfigError(f"weight {k} not on component {component} mod {p - 1}")
        if k < 3:
            raise ConfigError("sample weights must be >= 3 for the control theorem")
    primes = list(dict.fromkeys(hecke_primes))
    for ell in primes:
        if not is_prime(ell):
            raise ConfigError(f"Hecke prime {ell} is not prime")

    per_weight_systems: Dict[int, List[EigenSystem]] = {}
    unsplit = []
    ranks = {}
    op_primes = list(dict.fromkeys(primes + [p]))
    for k in weights:
        qprec = default_qprec(k, op_primes)
        basis = miller_basis(k, qprec)
        if basis.dim == 0:
            ranks[k] = 0
            per_weight_systems[k] = []
            continue
        mats = {}
        for ell in op_primes:
            rows = operator_matrix(basis, lambda f, ell=ell: hecke_tp(f, k, ell))
            mats[ell] = PadicMatrix.from_rows(rows, p, m, basis_tag=f"miller:{k}")
        systems, blocks, rank = _split_ordinary_systems(k, mats, p, m, primes)
        per_weight_systems[k] = systems
        unsplit.extend(blocks)
        ranks[k] = rank

    rank_set = set(ranks.values())
    if len(rank_set) != 1:
        raise VerificationError(
            f"ordinary rank is not constant across weights: {ranks} "
            "(control theorem violation)"
        )
    rank = rank_set.pop()

    keys_per_weight = [
        tuple(sorted(s.key for s in per_weight_systems[k])) for k in weights
    ]
    if primes and len(set(keys_per_weight)) > 1:
        raise VerificationError(
            "eigensystem keys do not match across weights; family matching failed"
        )
    keys = keys_per_weight[0] if primes else ()

    eigen_data = {
        k: {
            ell: tuple(
                s.eigenvalues[ell]
                for s in sorted(per_weight_systems[k], key=lambda s: s.key)
            )
            for ell in primes
        }
        for k in weights
    }

    fitted: Dict[int, Dict[tuple, IwasawaTruncation]] = {}
    congruences = []
    for ell in primes:
        fitted[ell] = {}
        for idx, key in enumerate(keys):
            samples = [(k, eigen_data[k][ell][idx]) for k in weights]
            fitted[ell][key] = interpolate_iwasawa(samples, p, m, component % (p - 1))
            for entry in congruence_table(samples, p, m):
                entry = dict(entry)
                entry["prime"] = ell
                entry["system"] = idx
                congruences.append(entry)
                if not entry["holds"]:
                    raise VerificationError(
                        f"interpolation congruence fails for a_{ell}: {entry}"
                    )

    return OrdinaryFamily(
        p=p,
        component=component % (p - 1),
        sample_weights=tuple(weights),
        rank=rank,
        eigen_data=eigen_data,
        keys=keys,
        fitted=fitted,
        congruence_checks=tuple(congruences),
        unsplit_blocks=tuple(unsplit),
        m=m,
    )
