"""Finite field arithmetic for GF(p^m) with log/antilog tables.

Elements are plain integers in [0, q) encoding the coefficient vector of the
polynomial representation in base p (digit j = coefficient of x^j).  All
multiplicative arithmetic goes through precomputed exp/log tables, so powers
of the designated primitive element alpha are cheap.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Sequence, Tuple


class FieldError(ValueError):
    """Invalid field parameters, reducible modulus or non-primitive generator."""


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


def _poly_trim(poly: Sequence[int]) -> Tuple[int, ...]:
    coeffs = list(poly)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _poly_mod(num: Sequence[int], den: Sequence[int], p: int) -> Tuple[int, ...]:
    """Remainder of num / den over GF(p); den must be monic after trimming."""
    num = list(num)
    den = _poly_trim(den)
    d = len(den) - 1
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i] % p
        if c:
            for j in range(d + 1):
                num[i - d + j] = (num[i - d + j] - c * den[j]) % p
    return _poly_trim(num[:d])


def _is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    poly = _poly_trim(poly)
    m = len(poly) - 1
    if m < 1:
        return False
    for d in range(1, m // 2 + 1):
        for code in range(p ** d):
            div = []
            x = code
            for _ in range(d):
                div.append(x % p)
                x //= p
            div.append(1)
            if not _poly_mod(poly, div, p):
                return False
    return True


class Field:
    """GF(p^m) with a verified-primitive generator alpha.

    For m > 1 alpha is the class of x; for m = 1 it is the smallest primitive
    root mod p.  Construction fails on a reducible modulus or when x is not a
    generator of the multiplicative group.
    """

    def __init__(self, p: int, m: int, modulus: Optional[Sequence[int]] = None):
        if not is_prime(p):
            raise FieldError(f"characteristic {p} is not prime")
        if m < 1:
            raise FieldError(f"extension degree {m} must be positive")
        q = p ** m
        if q > MAX_FIELD_SIZE:
            raise FieldError(f"field size {q} exceeds {MAX_FIELD_SIZE}")
        self.p = p
        self.m = m
        self.q = q
        if m == 1:
            if modulus is not None and _poly_trim(modulus) not in ((0, 1),):
                raise FieldError("prime field takes no modulus")
            self.modulus = None
            self.alpha = self._find_primitive_root() if p > 2 else 1
        else:
            if modulus is None:
                modulus = DEFAULT_MODULI.get((p, m)) or self._search_modulus()
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != m + 1 or modulus[m] != 1:
                raise FieldError(f"modulus must be monic of degree {m}")
            if not _is_irreducible(modulus, p):
                raise FieldError(f"modulus {modulus} is reducible over GF({p})")
            self.modulus = modulus
            self.alpha = p  # the element x
        self._build_tables()

    def _find_primitive_root(self) -> int:
        for g in range(2, self.p):
            if self._multiplicative_order(g) == self.p - 1:
                return g
        return 1  # p == 2

    def _multiplicative_order(self, g: int) -> int:
        x, k = g % self.p, 1
        while x != 1:
            x = (x * g) % self.p
            k += 1
        return k

    def _search_modulus(self) -> Tuple[int, ...]:
        """Deterministic scan for a monic degree-m polynomial with x primitive."""
        p, m = self.p, self.m
        for code in range(1, p ** m):
            cand = []
            x = code
            for _ in range(m):
                cand.append(x % p)
                x //= p
            cand.append(1)
            if cand[0] == 0 or not _is_irreducible(cand, p):
                continue
            if self._x_order(tuple(cand)) == p ** m - 1:
                return tuple(cand)
        raise FieldError(f"no primitive polynomial found for GF({p}^{m})")

    def _x_order(self, modulus: Tuple[int, ...]) -> int:
        one = [1] + [0] * (self.m - 1)
        cur = list(one)
        for k in range(1, self.q):
            cur = self._shift_reduce(cur, modulus)
            if cur == one:
                return k
        return 0

    def _shift_reduce(self, digits: Sequence[int], modulus: Sequence[int]) -> list:
        p, m = self.p, self.m
        top = digits[m - 1]
        out = [0] + list(digits[:-1])
        if top:
            for j in range(m):
                out[j] = (out[j] - top * modulus[j]) % p
        return out[:m]

    def _build_tables(self):
        q = self.q
        exp = [0] * (q - 1)
        log = [0] * q
        if self.m == 1:
            x = 1
            for i in range(q - 1):
                exp[i] = x
                log[x] = i
                x = (x * self.alpha) % self.p
        else:
            digits = [1] + [0] * (self.m - 1)
            for i in range(q - 1):
                val = 0
                for j in reversed(range(self.m)):
                    val = val * self.p + digits[j]
                exp[i] = val
                log[val] = i
                digits = self._shift_reduce(digits, self.modulus)
        if len(set(exp)) != q - 1 or 0 in exp:
            raise FieldError("designated generator is not primitive")
        self.exp = exp
        self.log = log

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
        if self.p == 2:
            return a
        if self.m == 1:
            return (-a) % self.p
        out, pw = 0, 1
        for _ in range(self.m):
            out += ((self.p - a % self.p) % self.p) * pw
            a //= self.p
            pw *= self.p
        return out

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

    def to_vector(self, a: int) -> Tuple[int, ...]:
        """Coefficient vector of a over GF(p), length m, degree-0 first."""
        out = []
        for _ in range(self.m):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def from_vector(self, coeffs: Sequence[int]) -> int:
        if len(coeffs) != self.m:
            raise FieldError(f"expected {self.m} coefficients")
        val = 0
        for c in reversed(coeffs):
            val = val * self.p + c % self.p
        return val

    def __repr__(self):
        return f"Field(GF({self.p}^{self.m}))" if self.m > 1 else f"Field(GF({self.p}))"


@functools.lru_cache(maxsize=None)
def field_new(p: int, m: int, modulus: Optional[Tuple[int, ...]] = None) -> Field:
    return Field(p, m, modulus)


@functools.lru_cache(maxsize=None)
def get_gf(q: int) -> Field:
    """GF(q) for a prime power q, with default modulus."""
    if q < 2:  # below 2 the trial division reads q % 0 at q = 0
        raise FieldError(f"{q} is not a prime power")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        p = q
    m = 0
    t = q
    while t % p == 0 and t > 1:
        t //= p
        m += 1
    if t != 1 or m == 0:
        raise FieldError(f"{q} is not a prime power")
    return field_new(p, m)


# vectors over F_q ---------------------------------------------------------

def vec_pack(q: int, v: Sequence[int]) -> int:
    """Integer encoding of a vector, coordinate 0 least significant."""
    val = 0
    for c in reversed(v):
        val = val * q + c
    return val


def vec_unpack(q: int, n: int, val: int) -> Tuple[int, ...]:
    out = []
    for _ in range(n):
        out.append(val % q)
        val //= q
    return tuple(out)

