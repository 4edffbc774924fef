import itertools

import pytest

from qcover.fields import (Field, FieldError, field_new, flatten_ext_vector, get_gf, vec_add, vec_pack,
                           vec_scale, vec_unpack)


def test_gf2_prime_field():
    f = field_new(2, 1)
    assert f.q == 2
    assert f.alpha == 1


def test_gf64_pinned_modulus():
    f = field_new(2, 6, (1, 1, 0, 0, 0, 0, 1))
    # alpha^6 = alpha + 1 under x^6 + x + 1
    assert f.alpha_pow(6) == f.add(f.alpha, 1)
    assert f.alpha_pow(63) == 1
    assert f.alpha_pow(0) == 1
    # default modulus for GF(64) is pinned to the same polynomial
    assert field_new(2, 6).modulus == (1, 1, 0, 0, 0, 0, 1)


def test_reducible_modulus_rejected():
    with pytest.raises(FieldError):
        Field(2, 2, (0, 1, 1))  # x^2 + x = x(x+1)


def test_nonprime_characteristic_rejected():
    with pytest.raises(FieldError):
        Field(4, 1)


def test_irreducible_but_imprimitive_rejected():
    # x^4 + x^3 + x^2 + x + 1 is irreducible over GF(2) but x has order 5
    with pytest.raises(FieldError):
        Field(2, 4, (1, 1, 1, 1, 1))


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (2, 6), (5, 1), (3, 3)])
def test_field_axioms_and_primitivity(p, m):
    f = field_new(p, m)
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


def test_elem_pow():
    f = field_new(2, 6)
    a = f.alpha
    assert f.pow(a, 63) == 1
    assert f.pow(a, 0) == 1
    assert f.pow(a, 6) == f.add(a, 1)
    assert f.pow(a, -1) == f.inv(a)
    assert f.pow(0, 5) == 0
    with pytest.raises(ZeroDivisionError):
        f.pow(0, -1)


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
    for q, n in [(2, 5), (3, 4)]:
        for val in range(q ** n):
            assert vec_pack(q, vec_unpack(q, n, val)) == val


def test_field_to_vector_gf4_alpha():
    f = field_new(2, 2)
    assert f.to_vector(f.alpha) == (0, 1)
    assert f.to_vector(0) == (0, 0)


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2)])
def test_field_to_vector_linear_bijection(p, m):
    f = field_new(p, m)
    gfp = get_gf(p)
    images = {f.to_vector(a) for a in f.elements()}
    assert len(images) == f.q
    for a in f.elements():
        for b in f.elements():
            assert (f.to_vector(f.add(a, b))
                    == vec_add(gfp, f.to_vector(a), f.to_vector(b)))


def test_flatten_ext_vector_additive():
    ext = field_new(2, 2)
    gf2 = get_gf(2)
    for u in itertools.product(ext.elements(), repeat=2):
        for v in itertools.product(ext.elements(), repeat=2):
            s = tuple(ext.add(a, b) for a, b in zip(u, v))
            assert flatten_ext_vector(ext, s) == vec_add(
                gf2, flatten_ext_vector(ext, u), flatten_ext_vector(ext, v))


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
