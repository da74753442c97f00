"""The three benchmark workloads: seeded inputs, the job each input runs,
and the check each job's output must pass.

Jobs call the library only through module attributes (``pf.coleman.
slope_spectrum``), so the span wrappers of a traced run see every call.
Checks run outside the timed job: slope reports and acceptance details
against golden.json, projectors by the benchmark's own integer algebra.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def load_golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# slopes-deep: the computation behind `padicforms slopes`

SLOPE_PRIMES = (5, 7, 11)
SLOPE_MODULI = (8, 10, 12)
# Nine weights, so that the nine jobs of one prime in a three-round run
# take each weight once.
SLOPE_WEIGHTS = tuple(range(2, 20, 2))
# Target Katz dimension per prime, chosen so that jobs of every prime
# cost about 1 reference second at the seed commit and a run holds 27 of
# them; D = 20 already takes 5-8 s.  Equal costs keep the tail percentile
# inside one cluster of latencies rather than between two.
SLOPE_TARGET_D = {5: 13, 7: 11, 11: 9}


def basis_dimension(k: int) -> int:
    """dim M_k(SL_2(Z)), the level-1 dimension formula.

    The benchmark's own copy, so that drawing inputs does not run the
    code under test."""
    if k < 0 or k % 2:
        return 0
    return k // 12 if k % 12 == 2 else k // 12 + 1


def twist_depth_for(k: int, p: int, target: int) -> int:
    """Smallest twist depth I whose Katz dimension dim M_{k+I(p-1)} reaches target."""
    depth = 0
    while basis_dimension(k + depth * (p - 1)) < target:
        depth += 1
    return depth


def slope_config_key(k: int, p: int, depth: int, m: int) -> str:
    return f"k={k},p={p},I={depth},m={m}"


# Small configurations for the benchmark's own tests.
SMOKE_SLOPES = ((4, 5, 6, 8), (2, 7, 3, 10))


def all_slope_configs():
    """Every (k, p, I, m) a seed can draw, plus the smoke configurations;
    golden.json holds one digest each."""
    return [
        (k, p, twist_depth_for(k, p, SLOPE_TARGET_D[p]), m)
        for p in SLOPE_PRIMES
        for m in SLOPE_MODULI
        for k in SLOPE_WEIGHTS
    ] + list(SMOKE_SLOPES)


def slope_report_digest(pf, report) -> str:
    """Digest of the bytes `padicforms slopes` prints for this report."""
    payload = pf.serialize.slope_report_json(report)
    return sha256_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def run_slopes(pf, cfg):
    k, p, depth, m = cfg
    return pf.coleman.slope_spectrum(
        k,
        p,
        depth,
        m,
        certify_below=min(Fraction(k - 1), Fraction(m - 2)),
        classical=k >= 2,
    )


class SlopesDeep:
    """The computation behind `padicforms slopes`, one configuration per job."""

    name = "slopes-deep"
    # Rounds in a run at --seconds 35: 27 jobs, so that ten lie beyond
    # the tail percentile (p62).
    rounds = 3

    def __init__(self, golden: dict):
        self.golden = golden["slopes-deep"]

    def make_rounds(self, rng: random.Random, count: int):
        """One job per (p, m) stratum per round.  The seed orders the
        weights for each prime; that prime's strata take them in turn, so
        in a three-round run each (p, k) occurs once and the seed draws
        which modulus and round it meets.  Runs on different seeds then
        time nearly the same work."""
        orders = {p: rng.sample(SLOPE_WEIGHTS, len(SLOPE_WEIGHTS)) for p in SLOPE_PRIMES}
        return [
            [
                (k, p, twist_depth_for(k, p, SLOPE_TARGET_D[p]), m)
                for p in SLOPE_PRIMES
                for j, m in enumerate(SLOPE_MODULI)
                for k in [orders[p][(index * len(SLOPE_MODULI) + j) % len(SLOPE_WEIGHTS)]]
            ]
            for index in range(count)
        ]

    def run(self, pf, cfg):
        return run_slopes(pf, cfg)

    def digest(self, pf, cfg, report) -> str:
        return slope_report_digest(pf, report)

    def check(self, pf, cfg, report) -> bool:
        return self.digest(pf, cfg, report) == self.golden[slope_config_key(*cfg)]


# ---------------------------------------------------------------------------
# projector-random: one ordinary_projector call per job


def mat_mul(a, b, modulus):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % modulus for col in cols] for row in a]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def rank_mod_p(rows, p) -> int:
    work = [[x % p for x in row] for row in rows]
    rank = 0
    width = len(work[0]) if work else 0
    for c in range(width):
        pivot = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][c], -1, p)
        work[rank] = [(x * inv) % p for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][c]:
                f = work[i][c]
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


def unitriangular(rng, n, modulus, lower: bool):
    return [
        [1 if i == j else (rng.randrange(modulus) if (i > j) == lower and i != j else 0) for j in range(n)]
        for i in range(n)
    ]


def unitriangular_inverse(t, modulus, lower: bool):
    """Inverse of a unit lower (or upper) triangular matrix by substitution."""
    n = len(t)
    if not lower:
        tt = [list(r) for r in zip(*t)]
        return [list(r) for r in zip(*unitriangular_inverse(tt, modulus, True))]
    inv = identity(n)
    for i in range(n):
        for j in range(i):
            inv[i][j] = -sum(t[i][k] * inv[k][j] for k in range(j, i)) % modulus
    return inv


def random_conjugate(rng, n, r, p, m):
    """U (A + pB) U^-1 with A of size r in [1, n-1] and U unimodular, so
    the ordinary rank lies strictly between 0 and n (it is r when A is
    invertible mod p)."""
    modulus = p**m
    block = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i < r and j < r:
                block[i][j] = rng.randrange(modulus)
            elif i >= r and j >= r:
                block[i][j] = p * rng.randrange(modulus) % modulus
    lower = unitriangular(rng, n, modulus, True)
    upper = unitriangular(rng, n, modulus, False)
    u = mat_mul(lower, upper, modulus)
    u_inv = mat_mul(
        unitriangular_inverse(upper, modulus, False),
        unitriangular_inverse(lower, modulus, True),
        modulus,
    )
    return mat_mul(mat_mul(u, block, modulus), u_inv, modulus)


PROJECTOR_PRIMES = (5, 7)
PROJECTOR_SIZES = tuple(range(4, 17))
PROJECTOR_MODULI = tuple(range(4, 11))


class ProjectorRandom:
    """One ordinary_projector call per job, on a seeded matrix over Z/p^m."""

    name = "projector-random"
    # About 20 s at the seed commit, 208 jobs.
    rounds = 4
    # ordinary_projector's own cap on factorial steps, lowered from its
    # default of 4096: hitting that cap takes 6 s at n = 8 and over a
    # minute at n = 16, while 60 steps stop an n = 16 call after about
    # 0.3 s.  A call over the cap raises VerificationError and counts as
    # failed, traced or not.
    max_iterations = 60

    def __init__(self, golden: dict):
        pass

    def make_rounds(self, rng: random.Random, count: int):
        """One uniform and one conjugate matrix per (p, n) per round; the
        seed draws the entries.  m and the conjugates' rank r cycle
        through their ranges, so every round has the same mix of sizes."""
        rounds = []
        for index in range(count):
            jobs = []
            for p in PROJECTOR_PRIMES:
                for n in PROJECTOR_SIZES:
                    m = PROJECTOR_MODULI[(len(jobs) + index) % len(PROJECTOR_MODULI)]
                    rows = [[rng.randrange(p**m) for _ in range(n)] for _ in range(n)]
                    jobs.append((p, m, rows))
                    m = PROJECTOR_MODULI[(len(jobs) + index) % len(PROJECTOR_MODULI)]
                    r = 1 + (n + index) % (n - 1)
                    jobs.append((p, m, random_conjugate(rng, n, r, p, m)))
            rounds.append(jobs)
        return rounds

    def run(self, pf, job):
        p, m, rows = job
        return pf.linalg.ordinary_projector(
            pf.padic.PadicMatrix.from_rows(rows, p, m), max_iterations=self.max_iterations
        )

    def digest(self, pf, job, result) -> str:
        return sha256_text(repr((result.idempotent.rows, result.rank)))

    def check(self, pf, job, result) -> bool:
        """The algebra of acceptance criterion 1, in plain integers."""
        p, m, t = job
        modulus = p**m
        n = len(t)
        e = [list(r) for r in result.idempotent.rows]
        one = identity(n)
        if mat_mul(e, e, modulus) != e:
            return False
        te = mat_mul(t, e, modulus)
        if te != mat_mul(e, t, modulus):
            return False
        one_minus_e = [[(one[i][j] - e[i][j]) % modulus for j in range(n)] for i in range(n)]
        # T invertible mod p on im(e): T e + (1 - e) is unimodular
        if rank_mod_p([[x + y for x, y in zip(a, b)] for a, b in zip(te, one_minus_e)], p) != n:
            return False
        # T^n kills ker(e) mod p: T is nilpotent mod p there, of index at most n
        power = one
        for _ in range(n):
            power = mat_mul(power, t, modulus)
        if any(x % p for row in mat_mul(power, one_minus_e, modulus) for x in row):
            return False
        return result.rank == rank_mod_p(e, p)


# ---------------------------------------------------------------------------
# acceptance: one criterion per job


class Acceptance:
    """One acceptance criterion per job."""

    name = "acceptance"
    # The criteria differ in cost by up to 600x, so job latencies form
    # ten clusters of one sample per round.  With 30 jobs the tail (p66)
    # is the middle sample of the seventh-costliest criterion's three.
    rounds = 3

    def __init__(self, golden: dict):
        self.golden = golden["acceptance"]

    def make_rounds(self, rng: random.Random, count: int):
        """Criteria 1-10 per round, each round on a fresh seed."""
        rounds = []
        for _ in range(count):
            seed = rng.randrange(2**31)
            rounds.append([(number, seed) for number in range(1, 11)])
        return rounds

    def run(self, pf, job):
        number, seed = job
        return pf.acceptance.run_all(seed, [number])[0]

    def digest(self, pf, job, result) -> str:
        return sha256_text(repr((result.passed, result.details)))

    def check(self, pf, job, result) -> bool:
        number, _ = job
        return result.passed and result.details == self.golden[str(number)]


WORKLOADS = {w.name: w for w in (SlopesDeep, ProjectorRandom, Acceptance)}
