"""The acceptance suite: ten independently checkable criteria.

Each criterion function returns a ``CriterionResult`` and never weakens
its stated tolerance: everything here is exact (zero tolerance), with
slope comparisons restricted to the certified range of the relevant
Newton polygons.  Randomized criteria draw from a seeded generator so
runs are reproducible byte for byte.
"""

from __future__ import annotations

import random
from fractions import Fraction
from operator import add
from typing import Callable, List, NamedTuple, Optional, Sequence

from .coleman import classicality_check, katz_basis, slope_spectrum, up_matrix
from .duality import (
    adjunction_check,
    rank_duality_check,
    theta_probe,
    transpose_charseries_equal,
)
from .eigencurve import local_piece_report, two_var_charseries
from .errors import ConfigError
from .forms import MillerPowers, SpaceBasis, delta, eisenstein, miller_rows
from .hecke import frobenius, hecke_tp, up
from .hida import build_hasse_tower, default_qprec, fit_family, operator_matrix
from .linalg import ordinary_projector, rank_mod_p
from .padic import PadicMatrix, power_from_base, product_rows
from .qexp import ModRing, QSeries, ZZ
from .weights import WeightDisc


class CriterionResult(NamedTuple):
    number: int
    name: str
    passed: bool
    details: List[str]

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number}: {self.name}"


def _random_matrix(rng, n, p, m):
    return PadicMatrix.from_rows(
        [[rng.getrandbits(40) % p**m for _ in range(n)] for _ in range(n)], p, m
    )


def _random_unimodular(rng, n, p, m):
    modulus = p**m
    lower = [
        [1 if i == j else (rng.getrandbits(40) % modulus if i > j else 0) for j in range(n)]
        for i in range(n)
    ]
    upper = [
        [1 if i == j else (rng.getrandbits(40) % modulus if i < j else 0) for j in range(n)]
        for i in range(n)
    ]
    return PadicMatrix.from_rows(lower, p, m) @ PadicMatrix.from_rows(upper, p, m)


# configurations shared by the slope criteria; I is the twist depth
SLOPE_CONFIGS = {
    (2, 5): {"I": 12, "m": 10},
    (4, 5): {"I": 12, "m": 10},
    (12, 5): {"I": 23, "m": 10},
    (4, 7): {"I": 10, "m": 10},
}

CLASSICALITY_CONFIGS = {
    (4, 5): {"I": 15, "m": 10},
    (12, 5): {"I": 30, "m": 10},
}


def _projector_algebra_holds(t: tuple, e: tuple, identity: tuple, p: int, m: int) -> bool:
    """Whether e passes criterion 1's four identities for T, both given by
    their rows over Z/p^m; ``identity`` is the rows of 1 of their size."""
    if e == identity:
        # all but T e + (1 - e) = T of rank n hold by definition
        return rank_mod_p(t, p) == len(t)
    n, modulus = len(t), p**m
    te = product_rows(t, e, n, modulus)
    # tuple + tuple joins rows: e [e | T] against [e | Te]
    if product_rows(e, list(map(add, e, t)), 2 * n, modulus) != tuple(map(add, e, te)):
        return False
    one_minus_e = [[(r == c) - x for c, x in enumerate(row)] for r, row in enumerate(e)]
    if rank_mod_p([list(map(add, a, b)) for a, b in zip(te, one_minus_e)], p) != n:
        return False
    # T - Te mod p, whose m-th power is T^m (1 - e) now that e passed
    kernel_part = [[(x - y) % p for x, y in zip(a, b)] for a, b in zip(t, te)]
    if any(map(any, kernel_part)):
        power = power_from_base(kernel_part, m, lambda a, b: product_rows(a, b, n, p))
        if any(map(any, power)):
            return False
    return True


def criterion_1(seed: int = 0) -> CriterionResult:
    """Projector algebra on 1000 random matrices per (p, m).

    Each sample T of size n over Z/p^m gets e = ``ordinary_projector(T)``,
    and ``_projector_algebra_holds`` checks four identities exactly, each
    by its cheapest route:

    - e^2 = e and eT = Te: one product e [e | T] by the matrix kernel
      ``padic.product_rows`` holds e^2 and eT side by side, and is
      compared with [e | Te], Te one more product;
    - T is invertible on im(e): T e + (1 - e) has rank n over F_p;
    - T is nilpotent on ker(e): T^m (1 - e) = 0 mod p, read as
      (T - Te)^m = 0 mod p.  T - Te = T (1 - e), and once e^2 = e and
      eT = Te have passed, 1 - e is an idempotent commuting with T, so
      (T - Te)^m = T^m (1 - e).  Reduction mod p is a ring map, so the
      power is taken over F_p, by ``power_from_base``; a T - Te that is
      0 mod p needs none, since 0^m = 0.

    e = 1, which ``ordinary_projector`` returns for every T invertible
    mod p, is recognized by comparison with the identity rows.  It
    satisfies e^2 = e, eT = Te and T^m (1 - e) = 0 by definition, the
    argument by which ``ordinary_projector`` skips its own checks for it,
    and T e + (1 - e) = T, so only the rank of T mod p is read.
    """
    rng = random.Random(seed)
    details = []
    ok = True
    for p, m in [(5, 4), (7, 3)]:
        sizes = list(range(2, m + 1))
        identities = {n: PadicMatrix.identity(n, p, m).rows for n in sizes}
        checked = 0
        for i in range(1000):
            n = sizes[i % len(sizes)]
            t = _random_matrix(rng, n, p, m)
            e = ordinary_projector(t).idempotent.rows
            if not _projector_algebra_holds(t.rows, e, identities[n], p, m):
                ok = False
                break
            checked += 1
        details.append(f"(p,m)=({p},{m}): {checked}/1000 random matrices, exact")
        if not ok:
            details.append(f"failure at sample {checked}")
            break
    return CriterionResult(1, "ordinary projector algebra", ok, details)


def _tp_branch_high(f: QSeries, k: int, p: int) -> QSeries:
    # sum a_{np} q^n + p^(k-1) sum a_n q^(np), written out independently
    q = f.qprec // p
    out = []
    for n in range(q):
        c = f.coeffs[n * p]
        if n % p == 0:
            c += p ** (k - 1) * f.coeffs[n // p]
        out.append(c)
    return QSeries(f.ring, tuple(out))


def _tp_branch_low(f: QSeries, k: int, p: int) -> QSeries:
    # p^(1-k) sum a_{np} q^n + sum a_n q^(np)
    q = f.qprec // p
    out = []
    for n in range(q):
        c = p ** (1 - k) * f.coeffs[n * p]
        if n % p == 0:
            c += f.coeffs[n // p]
        out.append(c)
    return QSeries(f.ring, tuple(out))


def criterion_2(seed: int = 0) -> CriterionResult:
    """Hecke normalization: eigenvalues of E_4 and Delta, k = 1 branches."""
    details = []
    e4 = eisenstein(4, 250)
    ok = hecke_tp(e4, 4, 5) == e4.scale(126).truncate(50)
    details.append(f"T_5 E_4 = 126 E_4 to q^50: {'ok' if ok else 'FAIL'}")
    d = delta(100)
    good = hecke_tp(d, 12, 2) == d.scale(-24).truncate(50)
    ok = ok and good
    details.append(f"T_2 Delta = -24 Delta to q^50: {'ok' if good else 'FAIL'}")
    rng = random.Random(seed)
    agree = 0
    for _ in range(100):
        f = QSeries.from_coeffs([rng.randrange(-999, 999) for _ in range(40)])
        if (
            _tp_branch_high(f, 1, 5)
            == _tp_branch_low(f, 1, 5)
            == hecke_tp(f, 1, 5)
        ):
            agree += 1
    ok = ok and agree == 100
    details.append(f"k=1 branch agreement on {agree}/100 random series")
    return CriterionResult(2, "Hecke normalization", ok, details)


def criterion_3(seed: int = 0) -> CriterionResult:
    """T_p = U_p mod p (k in [2,40]); T_p = U_p + p^(k-1) F over Z (k in [4,20])."""
    ok = True
    details = []
    for p in (5, 7):
        # one table of E4, E6 and Delta mod p per prime, for every weight
        powers = MillerPowers(default_qprec(40, [p]), ModRing(p, 1))
        for k in range(2, 42, 2):
            basis = SpaceBasis(k, miller_rows(k, 0, powers))
            if operator_matrix(basis, hecke_tp, p) != operator_matrix(basis, up, p):
                ok = False
                details.append(f"mod-p congruence FAILS at (k,p)=({k},{p})")
    if ok:
        details.append("matrix(T_p) = matrix(U_p) mod p for even k in [2,40], p in {5,7}")
    rng = random.Random(seed)
    exact = True
    for p in (5, 7):
        # E4, E6, Delta and their powers once per prime, for every weight
        powers = MillerPowers(20 * p, ZZ)
        for k in range(4, 21):
            tests = []
            if k % 2 == 0:
                tests.extend(miller_rows(k, 0, powers))
            tests.extend(
                QSeries.from_coeffs([rng.randrange(-999, 999) for _ in range(20 * p)])
                for _ in range(5)
            )
            for f in tests:
                lhs = hecke_tp(f, k, p)
                rhs = up(f, k, p) + frobenius(f, p).scale(p ** (k - 1)).truncate(
                    f.qprec // p
                )
                if lhs != rhs:
                    exact = False
                    details.append(f"decomposition FAILS at (k,p)=({k},{p})")
    if exact:
        details.append("T_p = U_p + p^(k-1) F exactly over Z for k in [4,20], p in {5,7}")
    ok = ok and exact
    return CriterionResult(3, "mod-p congruences and exact decomposition", ok, details)


def criterion_4(seed: int = 0) -> CriterionResult:
    """Hida control at H^0: rank stability and ordinary containment.

    The weights k of one class mod p - 1 share one Hasse tower, from the
    class's least weight to three levels above its greatest, and the
    reports of k are those of the tower above its level: 5 towers serve
    the 14 pairs (k, p), and each mod-p space and e(T_p) is built once.
    """
    ok = True
    details = []
    reports_at = {}
    weights = range(4, 18, 2)
    for p in (5, 7):
        classes = {}
        for k in weights:
            classes.setdefault(k % (p - 1), []).append(k)
        towers = {
            c: build_hasse_tower(ks[0], p, (ks[-1] - ks[0]) // (p - 1) + 3)
            for c, ks in classes.items()
        }
        for k in weights:
            # the ranks at k and at k + n(p-1), n = 1, 2, 3, from one tower
            tower = towers[k % (p - 1)]
            tower = tower.above((k - tower.base_weight) // (p - 1))
            reports = reports_at[k, p] = [tower.report(n) for n in (1, 2, 3)]
            ranks = [reports[0].rank_low] + [r.rank_high for r in reports]
            if len(set(ranks)) != 1:
                ok = False
                details.append(f"rank not constant at (k,p)=({k},{p}): {ranks}")
            for report in reports:
                if not report.passed:
                    ok = False
                    details.append(f"containment FAILS at (k,p,n)=({k},{p},{report.n})")
    if ok:
        details.append("ranks constant along k..k+3(p-1), containment holds, k in [4,16]")
    for n, label in [(1, "e(U_5)M_8(F_5) in M_4(F_5)"), (2, "e(U_5)M_12(F_5) in M_4(F_5)")]:
        report = reports_at[4, 5][n - 1]
        good = report.passed and report.rank_high == 1
        ok = ok and good
        details.append(f"{label}: {'ok' if good else 'FAIL'}")
    return CriterionResult(4, "Hida control at H^0", ok, details)


def criterion_5(seed: int = 0) -> CriterionResult:
    """Eisenstein family interpolation at p = 5, component 0."""
    ok = True
    details = []
    family = fit_family(5, 0, [4, 8, 12, 16], [2, 5], m=8)
    if family.rank < 1:
        ok = False
    weights = family.disc.sample_weights
    details.append(f"rank {family.rank} constant across weights {weights}")
    exact = True
    for k in weights:
        if family.eigen_data[k][5] != (1,):
            exact = False
            details.append(f"a_5 differs from 1 at weight {k}")
        if family.eigen_data[k][2] != ((1 + 2 ** (k - 1)) % 5**8,):
            exact = False
            details.append(f"a_2 differs from 1 + 2^(k-1) at weight {k}")
    ok = ok and exact
    if exact:
        details.append("a_5 = 1 and a_2 = 1 + 2^(k-1) exactly at every sample weight")
    # the fit's congruence a_2(k) = a_2(k') mod 5^m for k' = k + 4*5^(m-1):
    # it claims m digits at k' and agrees there with its value at k
    fit2 = family.fitted[2][family.keys[0]]
    congruent = True
    for m in (1, 2, 3):
        for k in weights:
            far = k + 4 * 5 ** (m - 1)
            if fit2.precision_at(far) < m or (fit2.specialize(far) - fit2.specialize(k)) % 5**m:
                congruent = False
                details.append(f"congruence fails at m={m}, k={k}")
    ok = ok and congruent
    if congruent:
        details.append("a_2 congruences hold mod 5^m for k = k' mod 4*5^(m-1), m <= 3")
    # the fitted polynomial predicts a held-out weight to the disc distance
    predicted = fit2.specialize(24)
    if (predicted - (1 + 2**23)) % 5**2 != 0:
        ok = False
        details.append("fitted a_2 fails the held-out weight 24")
    else:
        details.append("fitted a_2 predicts weight 24 mod 5^2")
    if not all(c["holds"] for c in family.congruence_checks):
        ok = False
        details.append("recorded interpolation congruences fail")
    return CriterionResult(5, "Eisenstein family interpolation", ok, details)


def criterion_6(seed: int = 0) -> CriterionResult:
    """Slope floors: normalized >= 0 and naive = normalized + 1 (k >= 2)."""
    ok = True
    details = []
    for (k, p), cfg in SLOPE_CONFIGS.items():
        bound = Fraction(min(cfg["m"] - 2, k))
        report = slope_spectrum(
            k, p, cfg["I"], cfg["m"], certify_below=bound, classical=False
        )
        slopes = report.slopes.slope_multiset()
        good = True
        if any(s < 0 for s in slopes):
            good = False
            details.append(f"negative normalized slope at (k,p)=({k},{p})")
        naive = report.naive_slopes.slope_multiset()
        shifted = [s + 1 for s in slopes]
        if naive[: len(shifted)] != shifted or not report.naive_shift_checked:
            good = False
            details.append(f"naive shift fails at (k,p)=({k},{p})")
        ok = ok and good
        if good:
            details.append(
                f"(k,p)=({k},{p}): certified slopes {[str(s) for s in slopes]} >= 0, naive = +1"
            )
    return CriterionResult(6, "slope floors and naive shift", ok, details)


def criterion_7(seed: int = 0) -> CriterionResult:
    """Classicality below min(k-1, m-2) at (4,5) and (12,5)."""
    expected = {
        (4, 5): [Fraction(0), Fraction(1)],
        (12, 5): [Fraction(0), Fraction(1), Fraction(5), Fraction(5), Fraction(5)],
    }
    ok = True
    details = []
    for (k, p), cfg in CLASSICALITY_CONFIGS.items():
        comparison = classicality_check(k, p, cfg["I"], cfg["m"]).comparison
        over = comparison.overconvergent
        want = expected[(k, p)]
        good = comparison.passed and list(over) == want and list(comparison.classical) == want
        ok = ok and good
        details.append(
            f"(k,p)=({k},{p}) below {comparison.bound}: overconvergent "
            f"{[str(s) for s in over]} vs classical "
            f"{[str(s) for s in comparison.classical]} -> {comparison.verdict}"
        )
    return CriterionResult(7, "classicality multiset equality", ok, details)


def criterion_8(seed: int = 0) -> CriterionResult:
    """Truncation stability: slopes below min(m-2, k) for I vs I+2."""
    ok = True
    details = []
    for (k, p), cfg in SLOPE_CONFIGS.items():
        bound = Fraction(min(cfg["m"] - 2, k))
        a = slope_spectrum(
            k, p, cfg["I"], cfg["m"], certify_below=bound, classical=False
        )
        b = slope_spectrum(
            k, p, cfg["I"] + 2, cfg["m"], certify_below=bound, classical=False
        )
        sa = a.slopes.slopes_below(bound)
        sb = b.slopes.slopes_below(bound)
        if sa != sb:
            ok = False
        details.append(
            f"(k,p)=({k},{p}) below {bound}: {[str(s) for s in sa]} "
            f"{'==' if sa == sb else '!='} {[str(s) for s in sb]}"
        )
    return CriterionResult(8, "truncation stability", ok, details)


DISC_SAMPLES = (4, 8, 12, 16, 20)
DISC_DEPTH = 10  # at the largest sample; top weight 60, D = 6


def criterion_9(seed: int = 0) -> CriterionResult:
    """Eigencurve disc: held-out specialization and flat ordinary degree.

    The full disc builds 5 Katz models, one per sample, all at top
    weight 60: weight k at depth (60 - k)/4, over Z/5^10.  Its sample
    series are the direct series at each held-out weight, and each
    held-out fit is ``full.refit`` of the other four samples, the
    four-sample disc of the same top weight, which builds no Katz model.
    """
    p, m = 5, 10
    ok = True
    details = []
    full = two_var_charseries(WeightDisc(p, 0, DISC_SAMPLES, m), DISC_DEPTH)
    for held_out, direct in full.samples:
        series = full.refit(tuple(k for k in DISC_SAMPLES if k != held_out))
        predicted = series.specialize(held_out)
        good = all(
            (a - b) % p**predicted.m == 0
            for a, b in zip(predicted.coeffs, direct.coeffs)
        )
        ok = ok and good
        details.append(
            f"held-out {held_out}: all {series.degree + 1} coefficients match "
            f"mod 5^{predicted.m}: {'ok' if good else 'FAIL'}"
        )
    report = local_piece_report(full, 0)
    good = report.constant and set(report.degrees.values()) == {1}
    ok = ok and good
    details.append(
        f"slope-0 factor degree across the disc: {dict(sorted(report.degrees.items()))} "
        f"constant: {report.constant}"
    )
    return CriterionResult(9, "eigencurve disc consistency", ok, details)


THETA_CONFIGS = ((2, 5), (4, 5), (4, 7))


def criterion_10(seed: int = 0) -> CriterionResult:
    """Duality: transpose equality, rank duality, adjunction, theta probe."""
    rng = random.Random(seed)
    ok = True
    details = []
    # each configured U_p matrix is built once, for parts (a) and (b)
    up_mats = {
        (k, p): up_matrix(katz_basis(k, p, cfg["I"]), cfg["m"])
        for (k, p), cfg in SLOPE_CONFIGS.items()
    }
    # (a) transpose char-series equality on every configured U_p matrix
    for (k, p), mat in up_mats.items():
        if not transpose_charseries_equal(mat):
            ok = False
            details.append(f"transpose equality FAILS at (k,p)=({k},{p})")
    if ok:
        details.append("char series of U_p and its transpose agree on all configured matrices")
    # (b) rank e(U_p) = rank e(F) at every weight
    dual = True
    for p in (5, 7):
        powers = MillerPowers(default_qprec(16, [p]), ModRing(p, 1))
        for k in range(4, 18, 2):
            basis = SpaceBasis(k, miller_rows(k, 0, powers))
            mat = PadicMatrix.from_rows(operator_matrix(basis, hecke_tp, p), p, 1)
            if not rank_duality_check(mat)["equal"]:
                dual = False
                details.append(f"rank duality FAILS at (k,p)=({k},{p})")
    for (k, p) in ((4, 5), (12, 5)):
        if not rank_duality_check(up_mats[(k, p)])["equal"]:
            dual = False
            details.append(f"Katz rank duality FAILS at (k,p)=({k},{p})")
    if dual:
        details.append("rank e(U_p) = rank e(F) at every configured weight")
    ok = ok and dual
    # (c) adjunction identity on 100 random gram/operator tuples
    good = 0
    for _ in range(100):
        n = rng.choice([2, 3])
        u = _random_matrix(rng, n, 5, 4)
        gram = _random_unimodular(rng, n, 5, 4)
        f = [rng.getrandbits(24) for _ in range(n)]
        g = [rng.getrandbits(24) for _ in range(n)]
        if adjunction_check(f, g, u, gram):
            good += 1
    if good != 100:
        ok = False
    details.append(f"adjunction <U_p f, g> = <f, F g> exact on {good}/100 random tuples")
    # (d) theta probe with negative control (shift by k must fail)
    for k, p in THETA_CONFIGS:
        probe = theta_probe(k, p, m=10)
        lifted = [c for c in probe.classes if c.present]
        kernel = [c for c in probe.classes if c.kernel_excluded]
        if not probe.passed:
            ok = False
        details.append(
            f"theta probe (k,p)=({k},{p}): {len(lifted)} classes shift by {k - 1}"
            + (f", {len(kernel)} theta-kernel class excluded" if kernel else "")
            + f"; control shift {k} fails: {not probe.control_contained}"
        )
    return CriterionResult(10, "duality", ok, details)


def run_all(seed: int = 0, numbers: Optional[Sequence[int]] = None) -> List[CriterionResult]:
    """The criteria numbered ``numbers`` (all ten when empty), in that
    order; an unknown number raises ``ConfigError`` before any runs."""
    criteria: List[Callable[[int], CriterionResult]] = [
        criterion_1,
        criterion_2,
        criterion_3,
        criterion_4,
        criterion_5,
        criterion_6,
        criterion_7,
        criterion_8,
        criterion_9,
        criterion_10,
    ]
    selected = numbers or range(1, len(criteria) + 1)
    bad = [n for n in selected if not 1 <= n <= len(criteria)]
    if bad:
        raise ConfigError(f"unknown acceptance criteria {bad}")
    return [criteria[n - 1](seed) for n in selected]
