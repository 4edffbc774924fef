"""Reference vector arithmetic over F_q for the tests.

Vectors are coordinate tuples, added and scaled one vector per call through
the Field row operations, row-reduced by rref, and a subspace's vectors are
listed one at a time by enumerate_vectors; the library itself works on RREF
rows and packed ints and has no use for these.  tuple_span takes coordinate
tuples to the library's span, and full_space writes F_q^n's unit rows.
"""

from typing import Iterable, List, Sequence, Tuple

from qcover.fields import Field, FieldError, get_gf, vec_pack
from qcover.subspaces import AmbientMismatch, Subspace, check_vectors, span


def vec_add(gf: Field, u: Sequence[int], v: Sequence[int]) -> Tuple[int, ...]:
    if len(u) != len(v):
        raise FieldError("vector length mismatch")
    return tuple(gf.row_sub(u, gf.neg(1), v))


def vec_scale(gf: Field, c: int, v: Sequence[int]) -> Tuple[int, ...]:
    return tuple(gf.row_scale(c, v))


def enumerate_vectors(s: Subspace) -> List[Tuple[int, ...]]:
    """All q^dim vectors of the subspace, zero first, odometer order.

    Coefficient 0 varies slowest: the vector sum(c_i * rows[i]) sits at
    index sum(c_i * q^(dim-1-i)).  The list grows one row at a time.
    """
    gf = get_gf(s.q)
    check_vectors(s.q, s.dim)
    negatives = gf.negatives[1:]
    out = [(0,) * s.n]
    for row in s.rows:
        grown = []
        for u in out:
            grown.append(u)
            grown.extend(tuple(gf.row_sub(u, c, row)) for c in negatives)
        out = grown
    return out


def rref(gf: Field, rows: Iterable[Sequence[int]], n: int):
    """Reduced row echelon form over GF(q); returns (rows, pivots)."""
    mat = [list(r) for r in rows]
    pivots: List[int] = []
    r = 0
    for c in range(n):
        if r >= len(mat):
            break
        for pr in range(r, len(mat)):
            if mat[pr][c]:
                break
        else:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        if mat[r][c] != 1:
            mat[r] = gf.row_scale(gf.inv(mat[r][c]), mat[r])
        row_r = mat[r]
        for i, row in enumerate(mat):
            if i != r and row[c]:
                mat[i] = gf.row_sub(row, row[c], row_r)
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


def tuple_span(q: int, n: int, vectors: Iterable[Sequence[int]]) -> Subspace:
    """span of coordinate tuples, each packed by vec_pack; a tuple whose
    length is not n raises AmbientMismatch, as vec_pack would hide it."""
    vecs = [tuple(v) for v in vectors]
    for v in vecs:
        if len(v) != n:
            raise AmbientMismatch(f"vector of length {len(v)} in F_{q}^{n}")
    return span(q, n, [vec_pack(q, v) for v in vecs])


def full_space(q: int, n: int) -> Subspace:
    """F_q^n, its RREF rows the unit vectors."""
    return Subspace(q, n, tuple([q ** (n - 1 - c) for c in range(n)]),
                    tuple(range(n)))
