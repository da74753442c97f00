"""Exact linear algebra over Z/p^m: solving in a basis, image bases,
and the ordinary projector.

Precision ledger convention: the only place where p-adic digits are
lost is division by a non-unit pivot.  ``solve_in_basis`` records the
total pivot valuation L and returns its result over Z/p^(m-L); callers
must propagate the minimum effective precision through their pipelines.

The ordinary projector e(T) = lim T^(n!) is computed from the Fitting
decomposition of T rather than from the factorial powers: A = T^N with
N >= n*m kills the part where T is nilpotent mod p (there T^n lands in
p times that part, so T^(nm) is 0 mod p^m), and e is the projection
onto im(A) along ker(A).  ``independent_columns`` picks a basis of
im(A) and ``image_coordinates`` solves in it without precision loss;
``hida`` restricts Hecke operators to ordinary images with the same two
helpers.  The projector is also the eigenspace splitter: for a residue
a, 1 - e(T - a) projects onto the generalized a-eigenspace of T mod p,
where T - a is nilpotent mod p, and ``hida`` splits eigensystems so.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import List, Optional, Sequence, Tuple, Union

from .errors import PrecisionError, VerificationError
from .padic import PadicMatrix, val_p


@dataclass(frozen=True)
class SolveResult:
    """Coordinates of vectors in a basis, with the precision ledger.

    ``columns[j]`` are the coordinates of the j-th input vector, reduced
    to the lowered effective precision m_effective = m_in - precision_loss.
    """

    columns: tuple
    p: int
    m_effective: int
    precision_loss: int

    def as_matrix(self, basis_tag=None) -> PadicMatrix:
        n = len(self.columns[0])
        if len(self.columns) != n:
            raise ValueError("coordinate block is not square")
        rows = [[self.columns[j][i] for j in range(n)] for i in range(n)]
        return PadicMatrix.from_rows(rows, self.p, self.m_effective, basis_tag)


def _columns_to_lists(vectors, basis: PadicMatrix) -> List[List[int]]:
    n = basis.size
    if isinstance(vectors, PadicMatrix):
        basis._check_compatible(vectors)
        return [[vectors.rows[i][j] for i in range(n)] for j in range(n)]
    cols = [list(map(index, col)) for col in vectors]
    for col in cols:
        if len(col) != n:
            raise ValueError("vector length mismatch")
    return cols


def solve_in_basis(
    vectors: Union[PadicMatrix, Sequence[Sequence[int]]],
    basis: PadicMatrix,
    budget: Optional[int] = None,
) -> SolveResult:
    """Solve B x = v over Z/p^m for each column v, pivoting p-adically.

    Pivots are chosen with minimal valuation in their column (p-adic
    partial pivoting), which minimises the precision loss.  The result
    is exact modulo p^(m - L) where L is the sum of the pivot
    valuations; L beyond ``budget`` (default m-1) raises
    ``PrecisionError``.  Vectors given as a ``PadicMatrix`` (its columns)
    must live over the basis' ring and size, or ``ValueError`` is raised.
    """
    n = basis.size
    p, m = basis.p, basis.m
    modulus = p**m
    if budget is None:
        budget = m - 1
    cols = _columns_to_lists(vectors, basis)
    r = len(cols)

    a = [list(row) for row in basis.rows]
    rhs = [[cols[j][i] for j in range(r)] for i in range(n)]

    pivot_vals: List[int] = []
    loss = 0
    for c in range(n):
        best, best_v = None, m
        for i in range(c, n):
            v = val_p(a[i][c], p, saturate=m)
            if v < best_v:
                best, best_v = i, v
        if best is None or best_v >= m:
            raise PrecisionError(
                f"basis not echelonizable at precision {m}: column {c} has no pivot"
            )
        loss += best_v
        if loss > budget:
            raise PrecisionError(
                f"pivot valuation budget exceeded: loss {loss} > budget {budget}"
            )
        pivot_vals.append(best_v)
        if best != c:
            a[c], a[best] = a[best], a[c]
            rhs[c], rhs[best] = rhs[best], rhs[c]
        unit = a[c][c] // p**best_v
        inv = pow(unit, -1, modulus)
        a[c] = [(x * inv) % modulus for x in a[c]]
        rhs[c] = [(x * inv) % modulus for x in rhs[c]]
        pk = p**best_v
        for i in range(c + 1, n):
            e = a[i][c]
            if e == 0:
                continue
            # minimal-valuation pivot makes the multiplier integral
            mult = e // pk
            a[i] = [(x - mult * y) % modulus for x, y in zip(a[i], a[c])]
            rhs[i] = [(x - mult * y) % modulus for x, y in zip(rhs[i], rhs[c])]

    # Back substitution; each division by p^v is checked for exactness.
    x = [[0] * r for _ in range(n)]
    for row in range(n - 1, -1, -1):
        pk = p**pivot_vals[row]
        for j in range(r):
            s = rhs[row][j]
            for t in range(row + 1, n):
                s -= a[row][t] * x[t][j]
            s %= modulus
            if s % pk != 0:
                raise PrecisionError(
                    "solution is not integral at the available precision"
                )
            x[row][j] = (s // pk) % (modulus // pk)

    m_eff = m - loss
    reduced_modulus = p**m_eff
    cols_out = tuple(
        tuple(x[i][j] % reduced_modulus for i in range(n)) for j in range(r)
    )
    return SolveResult(cols_out, p, m_eff, loss)


def invert_unimodular(matrix: PadicMatrix) -> PadicMatrix:
    """Inverse of a matrix whose reduction mod p is invertible."""
    n = matrix.size
    res = solve_in_basis(PadicMatrix.identity(n, matrix.p, matrix.m), matrix, budget=0)
    return res.as_matrix()


def echelon_mod_p(rows: Sequence[Sequence[int]], p: int):
    """Reduced row echelon form over F_p.

    Returns (echelon_rows, pivot_columns); zero rows are dropped.
    """
    work = [[index(x) % p for x in row] for row in rows]
    pivots: List[int] = []
    out: List[List[int]] = []
    width = len(work[0]) if work else 0
    r = 0
    for c in range(width):
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][c] % p != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = pow(work[r][c], -1, p)
        work[r] = [(x * inv) % p for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] % p != 0:
                f = work[i][c]
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    out = [row for row in work[:r]]
    return out, pivots


def rank_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    return len(echelon_mod_p(rows, p)[0])


def in_row_span_mod_p(vector: Sequence[int], echelon_rows, pivots, p: int) -> bool:
    """Membership test against an echelonized row space over F_p."""
    v = [index(x) % p for x in vector]
    for row, c in zip(echelon_rows, pivots):
        if v[c] % p != 0:
            f = v[c]
            v = [(x - f * y) % p for x, y in zip(v, row)]
    return all(x % p == 0 for x in v)


def independent_columns(matrix: PadicMatrix) -> Tuple[List[Tuple[int, ...]], List[int]]:
    """Columns independent mod p, chosen greedily from the left, and the
    rows on which their restriction is unimodular.

    The columns are the pivot columns of the reduced row echelon form of
    the matrix mod p, which are exactly the columns independent of the
    ones before them; the rows are the pivot columns of the chosen
    columns' echelon form.  When the column span is a free direct summand
    whose rank is the mod-p rank (the image of an idempotent, or of T^N
    in ``ordinary_projector``), the chosen columns are a basis of it by
    Nakayama's lemma.
    """
    n, p = matrix.size, matrix.p
    _, pivots = echelon_mod_p(matrix.rows, p)
    columns = [tuple(matrix.rows[i][j] for i in range(n)) for j in pivots]
    _, pivot_rows = echelon_mod_p(columns, p)
    return columns, pivot_rows


def image_coordinates(
    vectors: Sequence[Sequence[int]],
    columns: Sequence[Sequence[int]],
    pivot_rows: Sequence[int],
    p: int,
    m: int,
) -> Tuple[Tuple[int, ...], ...]:
    """Coordinates over Z/p^m of vectors in the span of ``columns``.

    The restriction of ``columns`` to ``pivot_rows`` must be unimodular,
    as ``independent_columns`` returns it: the solve runs on those rows
    without precision loss and is then checked on every row, so a vector
    outside the span raises ``VerificationError``.
    """
    r = len(columns)
    modulus = p**m
    pivot_block = PadicMatrix.from_rows(
        [[columns[j][i] for j in range(r)] for i in pivot_rows], p, m
    )
    coords = solve_in_basis(
        [[v[i] for i in pivot_rows] for v in vectors], pivot_block, budget=0
    ).columns
    for v, x in zip(vectors, coords):
        for i in range(len(v)):
            if sum(x[t] * columns[t][i] for t in range(r)) % modulus != v[i] % modulus:
                raise VerificationError("vector lies outside the span of the image basis")
    return coords


def restrict_to_image(
    op_mat: PadicMatrix, columns: Sequence[Sequence[int]], pivot_rows: Sequence[int]
) -> PadicMatrix:
    """Matrix of an operator on the span of ``columns`` (a basis of the
    image of an idempotent, from ``independent_columns``); operators
    commuting with the idempotent preserve that span."""
    p, m = op_mat.p, op_mat.m
    try:
        coords = image_coordinates([op_mat.apply(c) for c in columns], columns, pivot_rows, p, m)
    except VerificationError:
        raise VerificationError("operator does not preserve the ordinary image") from None
    r = len(columns)
    return PadicMatrix.from_rows([[coords[j][i] for j in range(r)] for i in range(r)], p, m)


@dataclass(frozen=True)
class ProjectorResult:
    """The ordinary projector e(T) = lim T^(n!) and its rank.

    e is the idempotent onto the unit part of the Fitting decomposition
    of T (where T is invertible) along the part where T is topologically
    nilpotent; ``rank`` is the rank of its image, which is free.
    """

    idempotent: PadicMatrix
    rank: int


def ordinary_projector(matrix: PadicMatrix, max_iterations: Optional[int] = None) -> ProjectorResult:
    """Compute e(T) from the Fitting decomposition of T.

    Over Z/p^m, (Z/p^m)^n splits into the T-stable summands U, where T is
    invertible, and K, where T is nilpotent mod p.  On K, T mod p has
    nilpotency index at most n, so T^n K lies in pK and T^(nm) kills K.
    Hence A = T^N with N = 2^s >= n*m, built by s squarings, has image U
    and kernel K, and e is the projection onto im(A) along ker(A):

    - the pivot columns C of A mod p are a basis of the free module U;
    - A = C X is solved on the rows where C is unimodular and checked on
      every row;
    - S = X C is the matrix of A on U, invertible, and e = C S^-1 X.

    The cost is O(log(nm)) matrix products and a few O(n^3) solves,
    whatever the multiplicative order of T's unit part.  The result is
    checked: e^2 = e, eT = Te, and its trace equals its mod-p rank.

    ``max_iterations`` capped the factorial-power loop this replaced.  It
    is ignored, and kept only while callers (the benchmark's
    ``projector-random`` workload) still pass it.
    """
    n, p, m = matrix.size, matrix.p, matrix.m
    modulus = p**m
    power = matrix
    for _ in range((n * m - 1).bit_length()):
        power = power @ power
    columns, pivot_rows = independent_columns(power)
    r = len(columns)
    x = image_coordinates(power.transpose().rows, columns, pivot_rows, p, m)  # x[j] = X[:, j]
    s = PadicMatrix.from_rows(
        [[sum(x[j][a] * columns[b][j] for j in range(n)) for b in range(r)] for a in range(r)],
        p,
        m,
    )
    y = solve_in_basis(x, s, budget=0).columns  # y[j] = S^-1 X[:, j]
    idem = PadicMatrix.from_rows(
        [[sum(columns[b][i] * y[j][b] for b in range(r)) for j in range(n)] for i in range(n)],
        p,
        m,
        matrix.basis_tag,
    )
    if idem @ idem != idem or idem @ matrix != matrix @ idem:
        raise VerificationError("ordinary projector is not an idempotent commuting with T")
    # The image of an idempotent over the local ring Z/p^m is free, so
    # its trace is its rank, which is also its mod-p rank.
    if idem.trace() != r % modulus or rank_mod_p(idem.rows, p) != r:
        raise VerificationError("idempotent trace disagrees with mod-p rank")
    return ProjectorResult(idem, r)
