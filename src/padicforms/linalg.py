"""Exact linear algebra over Z/p^m: solving in a basis and the
ordinary projector.

Precision ledger convention: the only place where p-adic digits are
lost is division by a non-unit pivot.  ``solve_in_basis`` records the
total pivot valuation L and returns its result over Z/p^(m-L); callers
must propagate the minimum effective precision through their pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

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
    pivot_valuations: tuple

    def as_matrix(self, basis_tag=None) -> PadicMatrix:
        n = len(self.columns[0])
        if len(self.columns) != n:
            raise ValueError("coordinate block is not square")
        rows = [[self.columns[j][i] for j in range(n)] for i in range(n)]
        return PadicMatrix.from_rows(rows, self.p, self.m_effective, basis_tag)


def _columns_to_lists(vectors, n: int) -> List[List[int]]:
    if isinstance(vectors, PadicMatrix):
        if vectors.size != n:
            raise ValueError("vector matrix size mismatch")
        return [[vectors.rows[i][j] for i in range(n)] for j in range(n)]
    cols = [list(int(x) for x in col) for col in vectors]
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
    ``PrecisionError``.
    """
    n = basis.size
    p, m = basis.p, basis.m
    modulus = p**m
    if budget is None:
        budget = m - 1
    cols = _columns_to_lists(vectors, n)
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
    return SolveResult(cols_out, p, m_eff, loss, tuple(pivot_vals))


def invert_unimodular(matrix: PadicMatrix) -> PadicMatrix:
    """Inverse of a matrix whose reduction mod p is invertible."""
    n = matrix.size
    res = solve_in_basis(PadicMatrix.identity(n, matrix.p, matrix.m), matrix, budget=0)
    return res.as_matrix()


def echelon_mod_p(rows: Sequence[Sequence[int]], p: int):
    """Reduced row echelon form over F_p.

    Returns (echelon_rows, pivot_columns); zero rows are dropped.
    """
    work = [[int(x) % p for x in row] for row in rows]
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
    v = [int(x) % p for x in vector]
    for row, c in zip(echelon_rows, pivots):
        if v[c] % p != 0:
            f = v[c]
            v = [(x - f * y) % p for x, y in zip(v, row)]
    return all(x % p == 0 for x in v)


@dataclass(frozen=True)
class ProjectorResult:
    """The ordinary projector e(T) = lim T^(n!), with its rank and the
    factorial index at which the sequence stabilized."""

    idempotent: PadicMatrix
    rank: int
    iterations: int


def ordinary_projector(matrix: PadicMatrix, max_iterations: int = 4096) -> ProjectorResult:
    """Compute e(T) by the factorial-power iteration.

    T^(n!) is built incrementally as (previous)^n and the loop stops at
    the first exact repetition that is also idempotent.  Over the finite
    ring Z/p^m the sequence is eventually constant, so hitting the
    iteration cap signals a bug (or an absurdly large unit-group order
    for the matrix size), not a numerical failure.
    """
    if matrix.size == 0:
        return ProjectorResult(matrix, 0, 1)
    prev = matrix  # T^(1!)
    n = 1
    while n < max_iterations:
        n += 1
        cur = prev**n  # (T^((n-1)!))^n = T^(n!)
        if cur.rows == prev.rows and (cur @ cur).rows == cur.rows:
            idem = cur
            break
        prev = cur
    else:
        raise VerificationError(
            f"ordinary projector did not stabilize within {max_iterations} factorial steps"
        )
    rank = idem.trace()
    if rank > idem.size:
        raise VerificationError("idempotent trace exceeds matrix size")
    # The image of an idempotent over the local ring Z/p^m is free, so
    # the trace equals the rank; cross-check against the mod-p rank.
    if rank_mod_p(idem.rows, idem.p) != rank:
        raise VerificationError("idempotent trace disagrees with mod-p rank")
    return ProjectorResult(idem, rank, n)
