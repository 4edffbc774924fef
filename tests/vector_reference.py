"""Reference vector arithmetic over F_q for the tests.

Vectors are coordinate tuples, added and scaled one vector per call through
the Field row operations; the library itself works on RREF rows and packed
ints and has no use for these.
"""

from typing import Sequence, Tuple

from qcover.fields import Field, FieldError


def vec_add(gf: Field, u: Sequence[int], v: Sequence[int]) -> Tuple[int, ...]:
    if len(u) != len(v):
        raise FieldError("vector length mismatch")
    return tuple(gf.row_sub(u, gf.neg(1), v))


def vec_scale(gf: Field, c: int, v: Sequence[int]) -> Tuple[int, ...]:
    return tuple(gf.row_scale(c, v))
