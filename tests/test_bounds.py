import itertools
import math
from fractions import Fraction

import pytest

from qcover.bounds import (BoundRecord, basic_lower, bound_table, decaen_lower,
                           exact_values, format_table, gaussian, schonheim_lower,
                           recursive_upper, turan_decaen_lower, turan_record,
                           turan_upper)
from qcover.subspaces import enumerate_grassmannian


def test_gaussian_known_values():
    assert gaussian(4, 2, 2) == 35
    assert gaussian(5, 2, 2) == 155
    assert gaussian(5, 3, 2) == 155
    assert gaussian(7, 2, 2) == 2667
    assert gaussian(7, 3, 2) == 11811
    assert gaussian(4, 2, 3) == 130
    assert gaussian(6, 3, 2) == 1395
    assert gaussian(13, 3, 2) == 3269560515
    assert gaussian(13, 12, 2) == gaussian(13, 1, 2) == 8191


def test_gaussian_conventions_and_symmetry():
    for n in range(8):
        assert gaussian(n, 0, 2) == 1
        assert gaussian(n, n, 2) == 1
        assert gaussian(n, -1, 2) == 0
        assert gaussian(n, n + 1, 2) == 0
        for l in range(n + 1):
            assert gaussian(n, l, 2) == gaussian(n, n - l, 2)
            assert gaussian(n, l, 3) == gaussian(n, n - l, 3)


def test_gaussian_counts_grassmannian():
    for q in (2, 3):
        for n in range(1, 5):
            for l in range(n + 1):
                count = sum(1 for _ in enumerate_grassmannian(q, n, l))
                assert gaussian(n, l, q) == count


def test_gaussian_pascal_recursion():
    for q in (2, 3, 4):
        for n in range(1, 10):
            for l in range(1, n):
                assert (gaussian(n, l, q)
                        == q ** l * gaussian(n - 1, l, q) + gaussian(n - 1, l - 1, q))


def test_basic_lower_examples():
    assert basic_lower(4, 2, 1, 2) == 5
    assert basic_lower(6, 3, 2, 2) == math.ceil(Fraction(gaussian(6, 2, 2), 7))
    assert basic_lower(5, 3, 2, 2) == 23
    with pytest.raises(ValueError):
        basic_lower(3, 4, 1, 2)


def test_schonheim_examples():
    # base case is the exact r = 1 value
    assert schonheim_lower(6, 2, 1, 2) == 21
    assert schonheim_lower(5, 3, 2, 2) == 23
    assert schonheim_lower(7, 3, 2, 2) == 381
    # the iterated ceiling can only strengthen the counting bound
    for n in range(2, 9):
        for k in range(1, n + 1):
            for r in range(1, k + 1):
                assert schonheim_lower(n, k, r, 2) >= basic_lower(n, k, r, 2)


def test_schonheim_n_minus_2_plateau():
    for n in range(6, 12):
        assert schonheim_lower(n, n - 2, 2, 2) == 21


def test_decaen_examples():
    assert turan_decaen_lower(4, 2, 2) == 5
    assert decaen_lower(5, 3, 2) == 25
    with pytest.raises(ValueError):
        decaen_lower(4, 4, 2)


def test_exact_values():
    assert exact_values(5, 5, 3, 2) == 1
    assert exact_values(5, 3, 3, 2) == gaussian(5, 3, 2)
    assert exact_values(7, 3, 1, 2) == 19
    assert exact_values(6, 5, 2, 2) == 7
    assert exact_values(6, 5, 3, 3) == (3 ** 4 - 1) // 2
    assert exact_values(5, 3, 2, 2) == 27
    assert exact_values(7, 3, 2, 2) is None


def test_upper_bounds():
    assert turan_upper(5, 3, 2, 2) == gaussian(4, 2, 2)
    assert turan_upper(7, 3, 2, 2) == gaussian(6, 2, 2) == 651
    table = {(4, 2, 1): 5, (4, 3, 2): 7}
    assert recursive_upper(5, 3, 2, 2, table) == 4 * 5 + 7
    with pytest.raises(KeyError):
        recursive_upper(6, 3, 2, 2, table)


def test_recursive_upper_closed_form_n_n_minus_2():
    # g(n) = 4 g(n-1) + 2^(n-2) - 1 with g(4) = 5 solves to
    # 9 * 4^(n-4) - 2^(n-2) - (4^(n-4) - 1) / 3
    g = {4: 5}
    for n in range(5, 13):
        g[n] = 4 * g[n - 1] + 2 ** (n - 2) - 1
    for n in range(4, 13):
        closed = 9 * 4 ** (n - 4) - 2 ** (n - 2) - (4 ** (n - 4) - 1) // 3
        assert g[n] == closed


def test_bound_record_rejects_inversion():
    with pytest.raises(ValueError):
        BoundRecord(2, 5, 3, 2, lower=30, lower_src="x", upper=27, upper_src="y")
    rec = BoundRecord(2, 5, 3, 2, 27, "x", 27, "y")
    assert rec.exact


def test_bound_table_q2():
    table = bound_table(2, n_max=8)
    rec = table[(7, 3, 2)]
    assert (rec.lower, rec.upper) == (381, 399)
    assert rec.upper_src == "gf64"
    assert not rec.exact
    rec = table[(5, 3, 2)]
    assert (rec.lower, rec.upper) == (27, 27) and rec.exact
    assert table[(8, 6, 2)].lower == 21
    assert table[(8, 6, 2)].upper == 27
    assert table[(6, 4, 2)].lower == 21
    assert table[(6, 4, 2)].upper == 27
    # every record is internally consistent and matches exact values where known
    for (n, k, r), rec in table.items():
        assert rec.lower <= rec.upper
        ev = exact_values(n, k, r, 2)
        if ev is not None:
            assert rec.lower == rec.upper == ev


def test_bound_table_q3():
    table = bound_table(3, n_max=6)
    for (n, k, r), rec in table.items():
        assert rec.lower <= rec.upper
        ev = exact_values(n, k, r, 3)
        if ev is not None:
            assert rec.lower == rec.upper == ev


def test_bound_table_fixed_point_stable():
    t1 = bound_table(2, n_max=7)
    t2 = bound_table(2, n_max=7)
    assert t1 == t2


def test_bound_table_extra_uppers():
    table = bound_table(2, n_max=7, include_constructions=False,
                        extra_uppers={(7, 3, 2): (399, "registered")})
    assert table[(7, 3, 2)].upper == 399
    assert table[(7, 3, 2)].upper_src == "registered"
    # a registered upper feeds the recursion at (8, 4, 3)
    t8 = bound_table(2, n_max=8, include_constructions=False,
                     extra_uppers={(7, 3, 2): (399, "registered")})
    assert t8[(8, 4, 3)].upper <= 2 ** 4 * 399 + t8[(7, 4, 3)].upper


def test_turan_record_duality():
    table = bound_table(2, n_max=7)
    rec = turan_record(table, 7, 5, 4)
    assert rec is table[(7, 3, 2)]
    assert turan_record(table, 6, 3, 2) is table[(6, 4, 3)]


def test_format_table():
    table = bound_table(2, n_max=4)
    text = format_table(table)
    assert text.splitlines()[0].split()[:3] == ["n", "k", "r"]
    csv = format_table(table, csv=True)
    assert csv.splitlines()[0] == "n,k,r,lower,lower_src,upper,upper_src,exact"
    assert len(csv.splitlines()) == len(table) + 1


def test_bound_table_rejects_bad_q():
    with pytest.raises(ValueError):
        bound_table(5)
