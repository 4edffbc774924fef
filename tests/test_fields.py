import hashlib
import itertools
import math
import re
import time

import pytest

from qcover.fields import (DEFAULT_MODULI, Field, FieldError, coefficients,
                           get_gf, vec_pack, vec_unpack)

from vector_reference import vec_add, vec_scale


def test_gf2_prime_field():
    f = get_gf(2)
    assert f.q == 2
    assert f.alpha == 1


def test_gf64_pinned_modulus():
    f = get_gf(64)
    assert f.modulus == (1, 1, 0, 0, 0, 0, 1)
    # alpha^6 = alpha + 1 under x^6 + x + 1
    assert f.alpha_pow(6) == f.add(f.alpha, 1)
    assert f.alpha_pow(63) == 1
    assert f.alpha_pow(0) == 1


def test_reducible_modulus_rejected(monkeypatch):
    monkeypatch.setitem(DEFAULT_MODULI, (2, 2), (0, 1, 1))  # x^2 + x = x(x+1)
    with pytest.raises(FieldError):
        Field(2, 2)


def test_nonprime_characteristic_rejected():
    with pytest.raises(FieldError):
        Field(4, 1)


def test_irreducible_but_imprimitive_rejected(monkeypatch):
    # x^4 + x^3 + x^2 + x + 1 is irreducible over GF(2) but x has order 5
    monkeypatch.setitem(DEFAULT_MODULI, (2, 4), (1, 1, 1, 1, 1))
    with pytest.raises(FieldError):
        Field(2, 4)


def poly_mod(num, den, p):
    """Remainder of num by the monic den over GF(p), as a list of deg(den)
    coefficients, constant term first."""
    num = list(num)
    d = len(den) - 1
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i] % p
        for j in range(d + 1):
            num[i - d + j] = (num[i - d + j] - c * den[j]) % p
    return num[:d]


def is_irreducible(f, p):
    """Trial division by every monic polynomial of degree 1..deg(f)/2."""
    return all(any(poly_mod(f, low + (1,), p))
               for d in range(1, (len(f) - 1) // 2 + 1)
               for low in itertools.product(range(p), repeat=d))


def x_order(f, p):
    """Order of x modulo f, or 0 when no power x^1..x^(q-1) is 1."""
    m = len(f) - 1
    one = [1] + [0] * (m - 1)
    power = one
    for k in range(1, p ** m):
        power = poly_mod([0] + power, f, p)
        if power == one:
            return k
    return 0


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
                                 (3, 2), (3, 3), (3, 4), (5, 2), (7, 2)])
def test_field_accepts_exactly_the_primitive_moduli(monkeypatch, p, m):
    """Every monic degree-m modulus with a nonzero constant term, pinned in
    turn: Field(p, m) builds on exactly those that are irreducible and of
    which x has order q - 1, the phi(q - 1)/m primitive ones."""
    q = p ** m
    accepted = 0
    for low in itertools.product(range(p), repeat=m):
        if low[0] == 0:
            continue
        f = low + (1,)
        monkeypatch.setitem(DEFAULT_MODULI, (p, m), f)
        if is_irreducible(f, p) and x_order(f, p) == q - 1:
            field = Field(p, m)
            assert field.modulus == f and field.alpha == p
            assert sorted(field.exp) == list(range(1, q))
            accepted += 1
        else:
            with pytest.raises(FieldError):
                Field(p, m)
    totient = sum(math.gcd(j, q - 1) == 1 for j in range(1, q))
    assert accepted == totient // m


def prime_powers(limit):
    """(p, m) of every prime power p^m in 2..limit, in order of p^m."""
    for q in range(2, limit + 1):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        m = round(math.log(q, p))
        if p ** m == q:
            yield p, m


# sha256 of repr((q, alpha, modulus, exp)) over the prime powers q <= 1024,
# in order of q, as the tables were built with a trial-division
# irreducibility test and a separate order walk.
FIELD_TABLES_SHA256 = ("4f3875c0f9b0b6eacae63e3104dc1060"
                       "d0a3871f5adba3fa466c6b2f17b149db")


def test_field_tables_pinned():
    digest = hashlib.sha256()
    count = 0
    for p, m in prime_powers(1024):
        f = Field(p, m)
        digest.update(repr((f.q, f.alpha, f.modulus, f.exp)).encode())
        count += 1
    assert count == 198
    assert digest.hexdigest() == FIELD_TABLES_SHA256


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (2, 6), (5, 1), (3, 3)])
def test_field_axioms_and_primitivity(p, m):
    f = get_gf(p ** m)
    q = f.q
    nonzero = set()
    for j in range(q - 1):
        nonzero.add(f.alpha_pow(j))
    assert nonzero == set(range(1, q))
    for a in range(1, q):
        assert f.mul(a, f.inv(a)) == 1
    # sampled associativity and distributivity
    elems = list(range(q))
    sample = elems if q <= 9 else elems[::7] + [1, q - 1]
    for a, b, c in itertools.product(sample, repeat=3):
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))




def test_vec_add_examples():
    gf2 = get_gf(2)
    assert vec_add(gf2, (1, 0, 1, 1), (1, 0, 1, 1)) == (0, 0, 0, 0)
    gf3 = get_gf(3)
    assert vec_add(gf3, (1, 2, 0), (0, 1, 1)) == (1, 0, 1)
    assert vec_scale(gf3, 0, (1, 2, 1)) == (0, 0, 0)


def test_vec_mismatch():
    gf2 = get_gf(2)
    with pytest.raises(FieldError):
        vec_add(gf2, (1, 0), (1, 0, 1))


def test_vec_pack_roundtrip():
    """vec_pack inverts vec_unpack, and int order is lexicographic order:
    coordinate 0 is the most significant digit."""
    for q, n in [(2, 5), (3, 4), (4, 3)]:
        vectors = [vec_unpack(q, n, val) for val in range(q ** n)]
        assert [vec_pack(q, v) for v in vectors] == list(range(q ** n))
        assert vectors == sorted(vectors) and len(set(vectors)) == q ** n


def test_field_to_vector_gf4_alpha():
    f = get_gf(4)
    assert coefficients(2, 2, f.alpha) == (0, 1)
    assert coefficients(2, 2, 0) == (0, 0)


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2)])
def test_field_to_vector_linear_bijection(p, m):
    f = get_gf(p ** m)
    gfp = get_gf(p)
    images = {coefficients(p, m, a) for a in range(f.q)}
    assert len(images) == f.q
    for a in range(f.q):
        for b in range(f.q):
            assert (coefficients(p, m, f.add(a, b))
                    == vec_add(gfp, coefficients(p, m, a), coefficients(p, m, b)))


def test_get_gf_prime_power():
    assert get_gf(9).q == 9
    assert get_gf(7).q == 7
    with pytest.raises(FieldError):
        get_gf(6)


def test_oversized_field_rejected():
    with pytest.raises(FieldError):
        Field(2, 17)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 25, 27])
def test_row_arithmetic_matches_element_arithmetic(q):
    gf = get_gf(q)
    u, v = zip(*itertools.product(range(q), repeat=2))  # every pair of entries
    for c in range(q):
        assert gf.row_sub(u, c, v) == [gf.sub(a, gf.mul(c, b))
                                       for a, b in zip(u, v)]
        assert gf.row_scale(c, v) == [gf.mul(c, b) for b in v]


# Each input guard of qcover.fields: a call, the exception it raises and a
# fragment of its message.  get_gf rejects a q past MAX_FIELD_SIZE before it
# trial-divides, so a prime near 10^18 fails at once, and a composite past
# it gets the size message too.  Field checks m and then the size before it
# trial-divides p or builds p^m, so each guard raises within 10 ms.
@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: Field(2, 0), FieldError,
                 "extension degree 0 must be positive", id="Field-m0"),
    pytest.param(lambda: Field(1, 1), FieldError, "characteristic 1 is not prime",
                 id="Field-p1"),
    pytest.param(lambda: get_gf(5).inv(0), ZeroDivisionError,
                 "zero has no inverse", id="inv-zero"),
    pytest.param(lambda: get_gf(1000000000000000003), FieldError,
                 "field size 1000000000000000003 exceeds 65536", id="get_gf-huge-prime"),
    pytest.param(lambda: get_gf(100000), FieldError,
                 "field size 100000 exceeds 65536", id="get_gf-large-composite"),
    pytest.param(lambda: Field(1000000000000000003, 1), FieldError,
                 "field size 1000000000000000003^1 exceeds 65536",
                 id="Field-huge-prime"),
    pytest.param(lambda: Field(2, 10 ** 8), FieldError,
                 "field size 2^100000000 exceeds 65536", id="Field-huge-m"),
    pytest.param(lambda: Field(2, 10 ** 9), FieldError,
                 "field size 2^1000000000 exceeds 65536", id="Field-huger-m"),
])
def test_input_guards(call, error, message):
    start = time.perf_counter()
    with pytest.raises(error, match=re.escape(message)):
        call()
    assert time.perf_counter() - start < 0.01
