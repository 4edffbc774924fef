"""Finite field arithmetic for GF(p^m) with log/antilog tables.

Elements are plain integers in [0, q) encoding the coefficient vector of the
polynomial representation in base p (digit j = coefficient of x^j).  All
multiplicative arithmetic goes through precomputed exp/log tables, so powers
of the designated primitive element alpha are cheap.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, List, Optional, Sequence, Tuple


class FieldError(ValueError):
    """Invalid field parameters, or a pinned modulus that x does not generate."""


MAX_FIELD_SIZE = 1 << 16

# Default modulus polynomials, coefficients c_0..c_m (constant term first,
# monic).  Each one is primitive with x as a generator; primitivity is
# re-verified every time a Field is built.  The GF(64) entry is pinned to
# x^6 + x + 1 so that alpha^6 = alpha + 1.
DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 0, 0, 1, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (3, 2): (2, 1, 1),
    (3, 3): (1, 2, 0, 1),
}


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _powers(q: int, step: Callable[[int], int]) -> Optional[List[int]]:
    """The powers 1, g, g^2, ... of the element g that step multiplies by,
    up to the first return to 1 or to 0; None unless they are q - 1 (then
    they are distinct and nonzero, so g generates the nonzero elements)."""
    exp = [1]
    x = step(1)
    for _ in range(q - 2):
        if x < 2:
            break
        exp.append(x)
        x = step(x)
    return exp if x == 1 and len(exp) == q - 1 else None


def _x_powers(p: int, m: int, modulus: Sequence[int]) -> Optional[List[int]]:
    """_powers of the class of x modulo a monic degree-m polynomial, as
    base-p ints.

    p = 2 shifts and XORs.  Odd p steps on a packed int with one w-bit field
    per digit: a shift, a lookup of -top*modulus, one add, and a carry-free
    `- p` in every field whose digit sum reached p.  Only an accepted walk
    is converted to base-p ints.
    """
    q = p ** m
    if p == 2:
        f, top = sum(c << j for j, c in enumerate(modulus)), q >> 1  # XOR drops x^m
        return _powers(q, lambda v: v << 1 ^ f if v & top else v << 1)
    w = p.bit_length() + 1  # p < 2^(w-1), and a sum of two digits fits
    shift = m * w
    ones = sum(1 << (j * w) for j in range(m))
    low, tops = (1 << shift) - 1, ones << (w - 1)
    bias = ones * ((1 << (w - 1)) - p)  # sets a field's top bit iff digit >= p
    neg = [sum((-t * c) % p << (j * w) for j, c in enumerate(modulus[:m]))
           for t in range(p)]

    def times_x(v: int) -> int:
        v <<= w
        s = (v & low) + neg[v >> shift]
        return s - (((s + bias) & tops) >> (w - 1)) * p

    exp = _powers(q, times_x)
    if exp is None:
        return None
    packed = [0]  # packed[i]: the digits of i, one per field
    for j in range(m):
        packed = [v + (d << (j * w)) for d in range(p) for v in packed]
    index = {v: i for i, v in enumerate(packed)}
    return [index[v] for v in exp]


class Field:
    """GF(p^m) with a primitive element alpha, its exp/log tables and the
    table of negatives.

    For m = 1 alpha is the smallest primitive root mod p.  For m > 1 it is
    the class of x modulo the DEFAULT_MODULI entry, or without one modulo
    the first monic polynomial with a nonzero constant term, in the order
    of its packed lower coefficients, of which x is a generator.  One walk
    over the powers of each candidate both tests it and builds the tables.
    x generating the q - 1 nonzero classes makes every nonzero class a unit,
    so the modulus is irreducible without a separate test.  A pinned
    modulus of which x is not a generator raises FieldError.
    """

    def __init__(self, p: int, m: int):
        if m < 1:
            raise FieldError(f"extension degree {m} must be positive")
        # p >= 2 makes p^m at least 2^m, so m bounds the size before p^m is
        # built, and the size bounds p before is_prime trial-divides it.
        if p > 1 and (m >= MAX_FIELD_SIZE.bit_length() or p ** m > MAX_FIELD_SIZE):
            raise FieldError(f"field size {p}^{m} exceeds {MAX_FIELD_SIZE}")
        if not is_prime(p):
            raise FieldError(f"characteristic {p} is not prime")
        q = p ** m
        self.p, self.m, self.q, self.modulus = p, m, q, None
        if m == 1:
            for g in range(1, p):  # g = 1 generates only when p = 2
                exp = _powers(q, lambda x: x * g % p)
                if exp:
                    self.alpha = g
                    break
        else:
            pinned = DEFAULT_MODULI.get((p, m))
            candidates = [pinned] if pinned else (
                coefficients(p, m, code) + (1,) for code in range(1, q) if code % p)
            for modulus in candidates:
                exp = _x_powers(p, m, modulus)
                if exp:
                    self.modulus = modulus
                    self.alpha = p  # the element x
                    break
            else:
                raise FieldError(f"x does not generate GF({p}^{m})* modulo "
                                 f"{modulus}")
        self.exp = exp
        self.log = [0] * q
        for i, x in enumerate(exp):
            self.log[x] = i
        self.negatives = tuple([self.neg(c) for c in range(q)])  # -c at c

    # element arithmetic ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.p
        out, pw = 0, 1
        for _ in range(self.m):
            out += ((a % self.p + b % self.p) % self.p) * pw
            a //= self.p
            b //= self.p
            pw *= self.p
        return out

    def neg(self, a: int) -> int:
        """-a; for odd q, a times alpha^((q-1)/2), the one element of order 2."""
        if self.p == 2 or a == 0:
            return a
        if self.m == 1:
            return self.p - a
        return self.exp[(self.log[a] + (self.q - 1) // 2) % (self.q - 1)]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self.exp[(-self.log[a]) % (self.q - 1)]

    def alpha_pow(self, j: int) -> int:
        return self.exp[j % (self.q - 1)]

    # row arithmetic: one call per row, plain int ops per entry for prime q ---

    def row_sub(self, u: Sequence[int], c: int, v: Sequence[int]) -> List[int]:
        """u - c*v entrywise.

        Prime fields use XOR (q = 2) or `% p` on plain ints; extension fields
        call sub and mul per entry.
        """
        p = self.p
        if self.m == 1:
            if p == 2:
                return [a ^ b for a, b in zip(u, v)] if c else list(u)
            return [(a - c * b) % p for a, b in zip(u, v)]
        return [self.sub(a, self.mul(c, b)) for a, b in zip(u, v)]

    def row_scale(self, c: int, v: Sequence[int]) -> List[int]:
        """c*v entrywise."""
        if self.m == 1:
            return [(c * a) % self.p for a in v]
        return [self.mul(c, a) for a in v]

    def __repr__(self):
        return f"Field(GF({self.p}^{self.m}))" if self.m > 1 else f"Field(GF({self.p}))"


@functools.lru_cache(maxsize=None)
def get_gf(q: int) -> Field:
    """GF(q) for a prime power q: the one cached Field of each size."""
    if q < 2:
        raise FieldError(f"{q} is not a prime power")
    if q > MAX_FIELD_SIZE:  # before the trial division, which is O(sqrt(q))
        raise FieldError(f"field size {q} exceeds {MAX_FIELD_SIZE}")
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    m = 1
    while p ** m < q:
        m += 1
    if p ** m != q:
        raise FieldError(f"{q} is not a prime power")
    return Field(p, m)


# vectors over F_q ---------------------------------------------------------

def vec_pack(q: int, v: Sequence[int]) -> int:
    """Integer encoding, coordinate 0 most significant: lexicographic order."""
    val = 0
    for c in v:
        val = val * q + c
    return val


def vec_unpack(q: int, n: int, val: int) -> Tuple[int, ...]:
    out = [0] * n
    for i in range(n - 1, -1, -1):
        val, out[i] = divmod(val, q)
    return tuple(out)


def coefficients(p: int, m: int, a: int) -> Tuple[int, ...]:
    """The coefficients (c_0, ..., c_(m-1)) of the element a of GF(p^m), c_j
    that of x^j: a's base-p digits lowest first, as vec_unpack's reversed."""
    return vec_unpack(p, m, a)[::-1]

