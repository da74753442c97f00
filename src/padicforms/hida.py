"""Ordinary (Hida-theoretic) structure of the classical spaces.

Mod-p spaces and their Hasse tower, ordinary ranks, the weight-raising
control check, and interpolation of ordinary eigen-data across the
sample weights of a ``weights.WeightDisc`` into an Iwasawa-polynomial
family.  Every space here is read from a ``forms.MillerPowers`` table,
one table per ring and q-precision for all the weights a caller needs
(the sample weights of a family, the levels of a tower), and
``operator_matrix`` applies a Hecke operator at the weight of the space
it acts on.  The Hasse tower (``build_hasse_tower``) is the one route
that builds the mod-p spaces and their ordinary projectors for the
control check and the ordinary rank: one table of E4, E6 and Delta mod
p per tower, every level at the top level's q-precision, each inclusion
checked and each e(T_p) computed once.  ``HasseTower.above`` reads from
it the tower over any of its levels, at the full tower's q-precision,
so one tower serves the control checks of every weight of a class
mod p - 1, each level built once.  Every decomposition, of a space
into its ordinary part and of that into eigensystems, is a
``linalg.ordinary_projector`` with a basis from ``independent_columns``,
and ``restrict_to_image`` gives the Hecke operators on that basis; rank
tests and image bases take ``linalg``'s pivots mod p, and restrictions
its unit-pivot elimination over Z/p^m.
Every span test, of the operator images on a basis, a Hasse tower
inclusion or an ordinary image in a control target, is one
``forms.SpaceBasis.contains_each`` call for all the series it tests: a
Miller basis is in echelon form, so nothing is re-echelonized.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence, Tuple

from .charseries import char_series
from .errors import ConfigError, VerificationError
from .forms import (
    MillerPowers,
    SpaceBasis,
    basis_dimension,
    check_level1_weight,
    check_theory_prime,
    miller_basis,
    miller_rows,
)
from .hecke import check_prime, hecke_tp
from .linalg import (
    independent_columns,
    ordinary_projector,
    rank_mod_p,
    restrict_to_image,
)
from .padic import PadicMatrix, _check_pm, unit_inverse
from .qexp import ModRing
from .weights import IwasawaTruncation, WeightDisc, congruence_table, interpolate_iwasawa


def default_qprec(k: int, operator_primes: Sequence[int]) -> int:
    """q-precision sufficient to write operator images in the basis."""
    d = basis_dimension(k)
    return max(operator_primes) * (d + 3) + 4


def operator_matrix(basis: SpaceBasis, op, ell: int) -> Tuple[Tuple[int, ...], ...]:
    """Matrix of ``op(f, k, ell)`` in an echelon basis (columns = images),
    k the basis' weight: a Hecke operator such as ``hecke.hecke_tp`` or
    ``hecke.up`` at the prime ell acts at the weight of the space it is
    applied to, so one ``MillerPowers`` table serves spaces of several
    weights with no per-weight wrapper.

    The coordinates of an image are its first dim coefficients, and one
    ``SpaceBasis.contains_each`` call checks those of every image against
    its whole available q-expansion, so an operator that does not
    preserve the space is caught rather than silently projected; an
    image known to fewer than dim coefficients raises ``PrecisionError``.
    """
    images = [op(f, basis.weight, ell) for f in basis.forms]
    for j, inside in enumerate(basis.contains_each(images)):
        if not inside:
            raise VerificationError(f"operator image of basis form {j} leaves the space")
    return tuple(zip(*(im.coeffs[: basis.dim] for im in images)))


def tp_matrix(k: int, p: int):
    """Matrix of T_p on the Miller basis of M_k, exact over Z; p is
    checked before any work."""
    check_prime(p)
    basis = miller_basis(k, default_qprec(k, [p]))
    return operator_matrix(basis, hecke_tp, p)


def ordinary_rank_mod_p(k: int, p: int) -> int:
    """Rank of e(T_p) on the mod-p weight-k space (T_p = U_p here, k >= 2),
    read from a Hasse tower of the one level it needs (n = 0)."""
    return build_hasse_tower(k, p, 0).projectors[0].rank


class ControlReport(NamedTuple):
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


def _target_level(k: int) -> int:
    """The level of the control target in a Hasse tower over weight k:
    level 1, one Hasse twist, at the k = 2 boundary, else level 0."""
    return 1 if k == 2 else 0


class HasseTower(NamedTuple):
    """Mod-p spaces at weights k, k+(p-1), ..., k+n(p-1), every level at
    the q-precision of the top level of the tower ``build_hasse_tower``
    built (a sub-tower from ``above`` keeps it), with e(T_p) on each
    level.

    Each level lies in the next as q-expansions, because the Hasse
    invariant E_{p-1} has q-expansion 1 mod p; ``build_hasse_tower``
    checks every inclusion before it returns the tower.
    """

    p: int
    base_weight: int
    levels: tuple  # the SpaceBasis of each level
    projectors: tuple  # the ProjectorResult of e(T_p) on each level

    def above(self, level: int) -> "HasseTower":
        """The tower from ``level`` up, with that level's weight as its
        base: its levels, inclusions and projectors are this tower's,
        already built and checked, so nothing is computed."""
        if not 0 <= level < len(self.levels):
            raise ConfigError(f"a tower of {len(self.levels)} levels has no level {level}")
        return HasseTower(
            self.p, self.levels[level].weight, self.levels[level:], self.projectors[level:]
        )

    def report(self, n: int) -> ControlReport:
        """The control check of level n: the image of its e(T_p), spanned
        by the columns that ``independent_columns`` picks (independent
        mod p, so their number is ``rank_high``), tested against the
        target level by one ``SpaceBasis.contains_each`` call.  The
        target is level 0, or level 1 at k = 2 (one Hasse twist), and
        ``rank_low`` is the rank of its e(T_p)."""
        target = _target_level(self.base_weight)
        if n < 0 or max(n, target) >= len(self.levels):
            raise ConfigError(f"a report of level {n} needs levels 0..{max(n, target)}")
        high, low = self.levels[n], self.levels[target]
        columns, _ = independent_columns(self.projectors[n].idempotent)
        contained = all(low.contains_each([high.combination(c) for c in columns]))
        rank_low = self.projectors[target].rank
        return ControlReport(
            self.p, self.base_weight, n, low.weight, len(columns), rank_low, contained, target == 1
        )


def build_hasse_tower(k: int, p: int, n: int) -> HasseTower:
    """The tower of levels 0..n over weight k at p; the one route that
    builds the mod-p spaces and ordinary projectors of the control check
    and the ordinary rank, and the one refusal of k < 2 and of n < 0.

    Every level is at the top level's q-precision, its Miller rows
    (``forms.miller_rows``) taken from one table of E4, E6 and Delta mod
    p; the inclusion of each level in the next is checked, and e(T_p) is
    computed once per level.  ``HasseTower.above(i)`` is then the tower
    over weight k + i(p-1) up to the same top, at the same q-precision,
    for no further work.
    """
    check_theory_prime(p)
    check_level1_weight(k)
    if k < 2:
        raise ConfigError(f"a Hasse tower needs k >= 2, got {k}")
    if n < 0:
        raise ConfigError("n must be >= 0")
    top = k + n * (p - 1)
    powers = MillerPowers(default_qprec(top, [p]), ModRing(p, 1))
    levels = [SpaceBasis(w, miller_rows(w, 0, powers)) for w in range(k, top + 1, p - 1)]
    for lower, upper in zip(levels, levels[1:]):
        if not all(upper.contains_each(lower.forms)):
            raise VerificationError(
                f"Hasse tower inclusion fails from weight {lower.weight} to {upper.weight}"
            )
    tp_rows = [operator_matrix(b, hecke_tp, p) for b in levels]
    projectors = tuple(ordinary_projector(PadicMatrix.from_rows(t, p, 1)) for t in tp_rows)
    return HasseTower(p, k, tuple(levels), projectors)


def control_check_h0(k: int, p: int, n: int) -> ControlReport:
    """Verify e(U_p) M_{k+n(p-1)}(F_p) sits inside the weight-k target as
    q-expansions, through the identity embedding of the Hasse tower.

    For k >= 3 (the control-theorem bound) the target is M_k(F_p).  At
    the k = 2 boundary the classical side allows one extra Hasse twist,
    so containment is tested in M_{2+(p-1)}(F_p).

    The report is ``HasseTower.report(n)`` of the tower up to level n,
    or up to the target's level 1 under the twist at n = 0: every level
    at the top level's q-precision, each inclusion checked.
    ``build_hasse_tower`` refuses the prime, an odd weight, k < 2 and
    n < 0 before any work.
    """
    # n or the target's level: the greater of the two when n >= 0, and a
    # negative n still reaches the tower's refusal
    return build_hasse_tower(k, p, n or _target_level(k)).report(n)


def unit_root_of_stabilization(t_p: int, k: int, p: int, m: int) -> int:
    """Unit root of x^2 - t_p x + p^(k-1) mod p^m, by Hensel iteration.

    This is the U_p eigenvalue of the ordinary p-stabilization of an
    eigenform with T_p eigenvalue t_p (a unit).  A root congruent to
    t_p needs p | p^(k-1), so k >= 2 is required.
    """
    _check_pm(p, m)
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
        x = (x - fx * unit_inverse(dfx, p, m)) % modulus
    if (x * x - t_p * x + c) % modulus != 0:
        raise VerificationError("Hensel iteration for the unit root did not converge")
    return x


class EigenSystem(NamedTuple):
    """A rank-1 ordinary eigensystem over Z/p^m at one weight."""

    key: tuple  # mod-p eigenvalue tuple over the configured primes
    eigenvalues: dict  # prime -> eigenvalue mod p^m (a_p = U_p unit root)


class OrdinaryFamily(NamedTuple):
    """Ordinary eigen-data at the sample weights of a disc, with fitted
    Iwasawa polynomials; rank is constant across the sample weights."""

    disc: WeightDisc
    rank: int
    eigen_data: dict  # weight -> {prime -> tuple of eigenvalues per system}
    keys: tuple  # canonical order of the matched eigensystem keys
    fitted: dict  # prime -> {key -> IwasawaTruncation}
    congruence_checks: tuple
    unsplit_blocks: tuple = ()


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
    and kernel, so the pieces do not depend on how they are found.  A
    block of rank 0 splits at once into no systems, as 0 singular shifts
    of T_p; ``fit_family`` never meets one, since E_k has the unit T_p
    eigenvalue 1 + p^(k-1).
    """
    proj = ordinary_projector(op_mats[p])
    r = proj.rank
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
    chosen, _ = independent_columns(idem)
    return {ell: restrict_to_image(mat, chosen) for ell, mat in restricted.items()}


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
    return EigenSystem(key, eigenvalues)


def fit_family(
    p: int,
    component: int,
    sample_weights: Sequence[int],
    hecke_primes: Sequence[int],
    m: int,
) -> OrdinaryFamily:
    """Interpolate ordinary eigen-data across congruent sample weights.

    The inputs are validated as a ``weights.WeightDisc``, plus the
    control-theorem bound k >= 3 on every sample weight.  Every sample
    space is read from one Miller table over Z at the highest sample
    weight's q-precision.  At each weight the T_p matrix on the Miller
    basis is lifted to Z/p^m, projected to its ordinary part, and split
    into eigensystems matched across weights by their mod-p eigenvalue
    tuples.  Each a_ell is then fitted as a
    polynomial in w by divided differences, and the interpolation
    congruences are recorded.  A rank change across weights contradicts
    the control theorem and is a hard failure.
    """
    disc = WeightDisc(p, component, sample_weights, m)
    weights = disc.sample_weights
    if weights[0] < 3:
        raise ConfigError("sample weights must be >= 3 for the control theorem")
    primes = list(dict.fromkeys(hecke_primes))
    for ell in primes:
        check_prime(ell)

    per_weight_systems: Dict[int, List[EigenSystem]] = {}
    unsplit = []
    ranks = {}
    op_primes = list(dict.fromkeys(primes + [p]))
    # one table at the highest weight's q-precision serves every weight
    powers = MillerPowers(default_qprec(max(weights), op_primes))
    for k in weights:
        basis = SpaceBasis(k, miller_rows(k, 0, powers))
        mats = {
            ell: PadicMatrix.from_rows(operator_matrix(basis, hecke_tp, ell), p, m)
            for ell in op_primes
        }
        systems, blocks, rank = _split_ordinary_systems(k, mats, p, m, primes)
        per_weight_systems[k] = sorted(systems, key=lambda s: s.key)
        unsplit.extend(blocks)
        ranks[k] = rank

    rank_set = set(ranks.values())
    if len(rank_set) != 1:
        raise VerificationError(
            f"ordinary rank is not constant across weights: {ranks} "
            "(control theorem violation)"
        )
    rank = rank_set.pop()

    keys_per_weight = [tuple(s.key for s in per_weight_systems[k]) for k in weights]
    if primes and len(set(keys_per_weight)) > 1:
        raise VerificationError(
            "eigensystem keys do not match across weights; family matching failed"
        )
    keys = keys_per_weight[0] if primes else ()

    eigen_data = {
        k: {ell: tuple(s.eigenvalues[ell] for s in per_weight_systems[k]) for ell in primes}
        for k in weights
    }

    fitted: Dict[int, Dict[tuple, IwasawaTruncation]] = {}
    congruences = []
    for ell in primes:
        fitted[ell] = {}
        for idx, key in enumerate(keys):
            samples = [(k, eigen_data[k][ell][idx]) for k in weights]
            fitted[ell][key] = interpolate_iwasawa(samples, p, m)
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
        disc=disc,
        rank=rank,
        eigen_data=eigen_data,
        keys=keys,
        fitted=fitted,
        congruence_checks=tuple(congruences),
        unsplit_blocks=tuple(unsplit),
    )
