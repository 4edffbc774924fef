"""Reference vector arithmetic over F_q for the tests.

Vectors are coordinate tuples, added and scaled one vector per call through
the Field row operations, and a subspace's vectors are listed one at a time
by enumerate_vectors; the library itself works on RREF rows and packed ints
and has no use for these.
"""

from typing import List, Sequence, Tuple

from qcover.fields import Field, FieldError, get_gf
from qcover.subspaces import Subspace, check_vectors


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
