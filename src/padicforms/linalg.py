"""Exact linear algebra over Z/p^m: solving in a basis, image bases,
and the ordinary projector.

One forward elimination, ``_eliminate``, serves the solves.  It takes
in each column the first unused row whose entry is a unit mod p, swaps
nothing, and clears whole augmented rows, so right-hand sides ride
along.  ``_solve`` is the one solve over Z/p^m: it eliminates and
back-substitutes, for ``solve_in_basis`` on [B | v...], for the
projector's core and for ``restrict_to_image`` on [C | images], which
reads the span check off the rows left without a pivot.  A unit pivot
loses no digit, so every solve is exact over the Z/p^m its inputs live
in, and a basis that is not unimodular is refused.

``rank_mod_p`` and ``independent_columns`` ask only for the pivots of
that elimination over F_p.  For p < 16 ``_fp_pivots`` finds them on the
whole matrix held as one ``bytes``, one residue per byte, row-major
(packed small-field arithmetic, as in Dumas, Fousse and Salvy, J.
Symbolic Comput. 46, 2011): a pivot column is cleared from every row
at once by one big-integer multiply-add, matrix + F * pivot row with
the factors F one per row, and one ``bytes.translate`` mod p.  A byte
then holds at most (p-1) + (p-1)^2 < 256, so none carries.  The pivot
row is cleared with the rest and reads 0 after, so the next pivot is
the first nonzero entry of the next column; the pivot rule is that of
``_eliminate``, so are the pivots.  Larger p takes ``_eliminate``
itself.  ``rank_mod_p`` counts the pivots; ``independent_columns``
reads their columns and rows.

The ordinary projector e(T) = lim T^(n!) is computed from the Fitting
decomposition of T rather than from the factorial powers: A = T^N with
N >= k*m kills the part where T is nilpotent mod p, of index k <= n
(there T^k lands in p times that part, so T^(km) is 0 mod p^m), and e
is the projection onto im(A) along ker(A).  The mod-p ranks of the
squares of T show k: they stop falling once the nilpotent part is 0
mod p, and at k = 1 a single squaring shows it.  When T is invertible
mod p, that part is 0 and e is ``PadicMatrix.identity``: one rank test
over F_p detects it, and no power is taken.
Otherwise ``independent_columns`` picks a basis C of im(A) and the rows
P where it is unimodular, and e = C (A_P C)^-1 A_P costs one r x r
elimination; one product e [T^N | e | T] and one T e check it.
``hida`` restricts Hecke operators to ordinary images with
``independent_columns`` and ``restrict_to_image``.  The projector is
also the eigenspace splitter: for a residue a, 1 - e(T - a) projects
onto the generalized a-eigenspace of T mod p, where T - a is nilpotent
mod p, and ``hida`` splits eigensystems so.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from operator import index
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import PrecisionError, VerificationError
from .padic import PadicMatrix, product_rows, unit_inverse


class SolveResult(NamedTuple):
    """Coordinates of vectors in a basis over Z/p^m.

    ``columns[j]`` are the coordinates of the j-th input vector.  No
    solve loses a digit, so ``precision_loss`` is always 0; the traced
    benchmark reads it.
    """

    columns: tuple
    p: int
    m: int
    precision_loss: int = 0

    def as_matrix(self) -> PadicMatrix:
        n = len(self.columns)
        if any(len(column) != n for column in self.columns):
            raise ValueError("coordinate block is not square")
        rows = [[self.columns[j][i] for j in range(n)] for i in range(n)]
        return PadicMatrix.from_rows(rows, self.p, self.m)


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


def _eliminate(rows: List[List[int]], p: int, m: int, width: int) -> List[Tuple[int, int]]:
    """Forward elimination with unit pivots over Z/p^m, in place.

    In each of columns 0..width-1, the first row that is not yet a pivot
    row and whose entry is a unit mod p becomes the pivot row; nothing is
    swapped.  It is scaled to 1 and cleared from the other non-pivot
    rows along its whole length, so right-hand sides stored from column
    ``width`` on follow along.  Zero entries are skipped: rows that read
    0 in the column, and the pivot row's run of zeros after it, so on a
    lower unitriangular block only the right-hand sides are touched.
    Returns the (column, row) pivot pairs in column order.
    """
    modulus = p**m
    pivots = []
    free = list(range(len(rows)))
    for c in range(width):
        i = next((i for i in free if rows[i][c] % p), None)
        if i is None:
            continue
        free.remove(i)
        pivot = rows[i]
        if pivot[c] != 1:
            inv = unit_inverse(pivot[c], p, m)
            pivot = rows[i] = [(x * inv) % modulus for x in pivot]
        lo = c + 1
        while lo < len(pivot) and not pivot[lo]:
            lo += 1
        tail = pivot[lo:]
        for j in free:
            row = rows[j]
            e = row[c]
            if e:
                row[c] = 0
                row[lo:] = [(x - e * y) % modulus for x, y in zip(row[lo:], tail)]
        pivots.append((c, i))
    return pivots


def _solve(rows, p: int, m: int, width: int):
    """Solve the rows [B | v...] over Z/p^m in place: ``_eliminate``,
    then back substitution.  Returns the coordinates, entry [c][k] being
    coordinate c of vector k, and the (column, row) pivot pairs.  The
    first column of B with no unit pivot raises ``PrecisionError``."""
    modulus = p**m
    pivots = _eliminate(rows, p, m, width)
    missing = set(range(width)).difference(c for c, _ in pivots)
    if missing:
        raise PrecisionError(f"basis is not unimodular: column {min(missing)} has no unit pivot")
    coords: List[List[int]] = [[]] * width
    for c, i in reversed(pivots):
        row = rows[i]
        x = row[width:]
        for t in range(c + 1, width):
            e = row[t]
            if e:
                x = [(a - e * b) % modulus for a, b in zip(x, coords[t])]
        coords[c] = x
    return coords, pivots


def solve_in_basis(
    vectors: Union[PadicMatrix, Sequence[Sequence[int]]], basis: PadicMatrix
) -> SolveResult:
    """Solve B x = v over Z/p^m for each column v, B unimodular.

    ``_solve`` reduces [B | v...] with a unit pivot in every column,
    so no digit is lost, and back substitution reads off x; a column with
    no unit pivot (B not invertible mod p) raises ``PrecisionError``.
    Zero entries are skipped, so on a lower unitriangular B the solve is
    a single forward substitution on the vectors.  Vectors given as a
    ``PadicMatrix`` (its columns) must live over the basis' ring and
    size, or ``ValueError`` is raised.
    """
    n = basis.size
    p, m = basis.p, basis.m
    modulus = p**m
    cols = _columns_to_lists(vectors, basis)
    rows = [list(row) + [col[i] for col in cols] for i, row in enumerate(basis.rows)]
    coords, _ = _solve(rows, p, m, n)
    return SolveResult(
        tuple(tuple(x[j] % modulus for x in coords) for j in range(len(cols))), p, m
    )


def invert_unimodular(matrix: PadicMatrix) -> PadicMatrix:
    """Inverse of a matrix whose reduction mod p is invertible."""
    identity = PadicMatrix.identity(matrix.size, matrix.p, matrix.m)
    return solve_in_basis(identity, matrix).as_matrix()


@lru_cache(maxsize=None)
def _fp_tables(p: int) -> Tuple[bytes, Tuple[bytes, ...]]:
    """``bytes.translate`` tables for residues mod p < 16, one per byte:
    x -> x mod p, and for each unit v, e -> -e/v mod p (an empty table,
    which ``translate`` refuses, for a v that is not a unit)."""
    mod_p = bytes([x % p for x in range(256)])
    scale = tuple(
        bytes([-x * pow(v, -1, p) % p for x in range(256)]) if gcd(v, p) == 1 else b""
        for v in range(p)
    )
    return mod_p, scale


def _fp_pivots(mat: bytes, p: int, height: int, width: int) -> List[Tuple[int, int]]:
    """``_eliminate`` over F_p, p < 16, on a height x width matrix held
    row-major in one ``bytes``, one residue per byte.

    Each pivot column is cleared from every row by one multiply-add on
    the matrix read as a little-endian integer: the factors f_j = -e_j/v
    (e_j the column's entries, v the pivot) sit at the first byte of
    each row of F, so F * pivot row adds f_j * pivot row to row j, and a
    ``translate`` reduces mod p.  A byte then holds at most
    (p-1) + (p-1)^2 < 256, so none carries.  The pivot row's own factor
    is -1, so it becomes 0, and every row reads 0 in a column once that
    column is cleared or found empty.  So the first nonzero entry of a
    column lies in the first row that is not yet a pivot row and is
    nonzero there: the pivot ``_eliminate`` takes.
    """
    mod_p, scale = _fp_tables(p)
    size = height * width
    factors = bytearray(size)  # f_j at byte j * width, 0 elsewhere
    pivots = []
    for c in range(width):
        column = mat[c::width]
        i = height - len(column.lstrip(b"\0"))
        if i == height:
            continue
        factors[::width] = column.translate(scale[column[i]])
        pivot = int.from_bytes(mat[i * width : (i + 1) * width], "little")
        total = int.from_bytes(mat, "little") + int.from_bytes(factors, "little") * pivot
        mat = total.to_bytes(size, "little").translate(mod_p)
        pivots.append((c, i))
        if len(pivots) == height:
            break
    return pivots


def _pivots_mod_p(rows: Sequence[Sequence[int]], p: int) -> List[Tuple[int, int]]:
    """The (column, row) pivot pairs of ``_eliminate`` on the rows reduced
    mod p, by ``_fp_pivots`` for p < 16.  Rows of unequal length raise
    ``ValueError``, entries that are not integers ``TypeError``."""
    width = len(rows[0]) if rows else 0
    if any(len(row) != width for row in rows):
        raise ValueError("rows of unequal length")
    if p < 16:
        # bytes() takes only integers: a float or Fraction residue raises
        return _fp_pivots(bytes([x % p for row in rows for x in row]), p, len(rows), width)
    work = [[x % p for x in map(index, row)] for row in rows]
    return _eliminate(work, p, 1, width)


def rank_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank over F_p: the number of pivots of the rows reduced mod p."""
    return len(_pivots_mod_p(rows, p))


def independent_columns(matrix: PadicMatrix) -> Tuple[List[Tuple[int, ...]], List[int]]:
    """Columns independent mod p, chosen greedily from the left, and the
    rows on which their restriction is unimodular.

    One elimination of the matrix mod p gives both: its pivot columns are
    exactly the columns independent of the ones before them, and its
    pivot rows, sorted, are the rows independent of the ones above them
    in the chosen columns (a row is only ever cleared by pivot rows above
    it).  When the column span is a free direct summand whose rank is the
    mod-p rank (the image of an idempotent, or of T^N in
    ``ordinary_projector``), the chosen columns are a basis of it by
    Nakayama's lemma.
    """
    return _columns_at(matrix, _pivots_mod_p(matrix.rows, matrix.p))


def _columns_at(
    matrix: PadicMatrix, pivots: List[Tuple[int, int]]
) -> Tuple[List[Tuple[int, ...]], List[int]]:
    """``independent_columns`` from the (column, row) pivot pairs of the
    matrix mod p, ``_pivots_mod_p(matrix.rows, matrix.p)``."""
    n = matrix.size
    columns = [tuple(matrix.rows[i][j] for i in range(n)) for j, _ in pivots]
    return columns, sorted(i for _, i in pivots)


def restrict_to_image(op_mat: PadicMatrix, columns: Sequence[Sequence[int]]) -> PadicMatrix:
    """Matrix of an operator on the span of ``columns`` (a basis of the
    image of an idempotent, from ``independent_columns``); operators
    commuting with the idempotent preserve that span.

    ``_solve`` reduces [C | images] over Z/p^m with a unit pivot in
    each of the r columns of C, exactly.  The rows left without a pivot
    then read 0 in C, so an image that leaves a nonzero residue there is
    outside the span, and ``VerificationError`` is raised; otherwise back
    substitution gives the coordinates.
    """
    p, m = op_mat.p, op_mat.m
    modulus = p**m
    r = len(columns)
    images = [op_mat.apply(c) for c in columns]
    rows = [[v[i] for v in (*columns, *images)] for i in range(op_mat.size)]
    coords, pivots = _solve(rows, p, m, r)
    pivot_rows = {i for _, i in pivots}
    if any(x % modulus for i, row in enumerate(rows) if i not in pivot_rows for x in row[r:]):
        raise VerificationError("operator does not preserve the ordinary image")
    return PadicMatrix.from_rows(coords, p, m)


# the package's one dataclass: the benchmark's tests edit a result by
# dataclasses.replace
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
    invertible, and K, where T is nilpotent mod p.

    The rank of T mod p, one elimination over F_p, is read first.  If it is n,
    T lies in the finite group GL_n(Z/p^m), so T^(k!) = 1 as soon as k! is
    a multiple of its order, and e = lim T^(k!) = 1 (equally: K = 0).  The
    identity is returned at once, rank n; it satisfies the four checks
    below identically, so none is run.

    Otherwise K is not 0.  On K, T mod p is nilpotent, of index k <= n,
    so T^k K lies in pK and T^(km) kills K.  Hence A = T^N with
    N = 2^s >= k*m, built by s squarings, has image U and kernel K, and e
    is the projection onto im(A) along ker(A).

    k is read off the mod-p ranks of the squares.  K is a direct summand,
    so rank(T^j mod p) = dim(U mod p) + rank((T|K)^j mod p), and the
    second term falls strictly until (T|K)^j is 0 mod p and is 0 after.
    So the first t with rank(T^(2^t)) = rank(T^(2^(t+1))) mod p has
    T^(2^t) K in pK, and N = 2^s >= 2^t * m is enough.  The squaring stops
    there, or at 2^s >= n*m, whichever comes first; a rank is read after
    a squaring only while it can still save one.  At k = 1, the common
    case, that is max(1, ceil(log2 m)) squarings and at most one rank
    mod p beyond the first.

    The pivot columns C of A mod p are a basis of the free module U, and
    their rows P make C_P unimodular (``independent_columns``'s choice,
    read off the pivots of A mod p, which the rank check that ended the
    squaring has already found when it read A itself).  So
    A = C X with X = C_P^-1 A_P, and the matrix of A on U in the basis C
    is S = X C = C_P^-1 (A_P C), invertible.  Hence

        e = C S^-1 X = C (A_P C)^-1 A_P:

    the r x r core A_P C is built, ``_solve`` reduces [A_P C | A_P]
    over Z/p^m and reads off the rows of Y = (A_P C)^-1 A_P, and
    e = C Y.  The core and e are made by ``padic.product_rows``, the
    same kernel as every ``@``.

    The cost is one elimination mod p, then, when T is singular mod p,
    O(log(km)) matrix products, O(log k) more eliminations mod p and one
    r x r elimination, whatever the multiplicative order of T's unit
    part.  The result is checked: e A = A (every column of A lies in
    span C, since e C = C and im e lies in span C; a too small N would
    fail here), e^2 = e and eT = Te, where e A, e^2 and e T are the
    blocks of one product e [A | e | T] and T e is one more; and its
    trace equals its mod-p rank.

    ``max_iterations`` capped the factorial-power loop this replaced.  It
    is ignored, and kept only while callers (the benchmark's
    ``projector-random`` workload) still pass it.
    """
    n, p, m = matrix.size, matrix.p, matrix.m
    pivots = _pivots_mod_p(matrix.rows, p)  # of ``power``; None once it is squared
    rank = len(pivots)
    if rank == n:
        # T is invertible mod p: K = 0 and e = 1, so nothing is squared
        return ProjectorResult(PadicMatrix.identity(n, p, m), n)
    modulus = matrix.modulus
    cap = (n * m - 1).bit_length()  # 2^cap >= n m >= k m
    lift = max((m - 1).bit_length(), 1)  # 2^lift >= m; one squaring shows k = 1
    power, s, target = matrix, 0, cap
    while s < target:
        power, pivots = power @ power, None
        s += 1
        if s - 1 + lift < target:
            pivots = _pivots_mod_p(power.rows, p)
            previous, rank = rank, len(pivots)
            if rank == previous:
                # the mod-p rank stopped falling at T^(2^(s-1)), so
                # k <= 2^(s-1) and N = 2^(s-1+lift) >= k m
                target = s - 1 + lift
    # a rank read that ended the loop (lift = 1) was of T^N itself
    if pivots is None:
        pivots = _pivots_mod_p(power.rows, p)
    columns, pivot_rows = _columns_at(power, pivots)
    r = len(columns)
    head = [power.rows[i] for i in pivot_rows]  # A_P
    c_rows = [[c[i] for c in columns] for i in range(n)]  # C, n x r
    core = product_rows(head, c_rows, r, modulus)
    # solving [A_P C | A_P] gives the rows of Y = (A_P C)^-1 A_P, and e = C Y
    rows = [list(a) + list(b) for a, b in zip(core, head)]
    y, _ = _solve(rows, p, m, r)
    idem = PadicMatrix._reduced(product_rows(c_rows, y, n, modulus), p, m, modulus)
    # e T^N, e^2 and e T are the three blocks of one product e [T^N | e | T]
    wide = [a + e + t for a, e, t in zip(power.rows, idem.rows, matrix.rows)]
    checks = product_rows(idem.rows, wide, 3 * n, modulus)
    e_power, e_idem, e_matrix = (tuple(row[j * n : (j + 1) * n] for row in checks) for j in range(3))
    if e_power != power.rows:
        raise VerificationError("T^N has a column outside the span of its image basis")
    if e_idem != idem.rows or e_matrix != product_rows(matrix.rows, idem.rows, n, modulus):
        raise VerificationError("ordinary projector is not an idempotent commuting with T")
    # The image of an idempotent over the local ring Z/p^m is free, so
    # its trace is its rank, which is also its mod-p rank.
    if idem.trace() != r % modulus or rank_mod_p(idem.rows, p) != r:
        raise VerificationError("idempotent trace disagrees with mod-p rank")
    return ProjectorResult(idem, r)
