import math
import re
import time
from fractions import Fraction

import pytest

from qcover import bounds
from qcover.bounds import (BoundRecord, basic_lower, bound_table, decaen_lower,
                           exact_values, format_table, gaussian, schonheim_lower,
                           recursive_upper, turan_upper)
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


def reference_basic_lower(n, k, r, q):
    return math.ceil(Fraction(gaussian(n, r, q), gaussian(k, r, q)))


def reference_schonheim_lower(n, k, r, q):
    ratio = Fraction(q ** n - 1, q ** k - 1)
    if r == 1:
        return math.ceil(ratio)
    return math.ceil(ratio * reference_schonheim_lower(n - 1, k - 1, r - 1, q))


def reference_decaen_lower(n, k, q):
    return math.ceil(Fraction((q ** k - 1) * (q - 1), (q ** (n - k) - 1) ** 2)
                     * gaussian(n, k + 1, q))


def reference_exact(n, k, r, q):
    if r == 1 < k < n:
        return math.ceil(Fraction(q ** n - 1, q ** k - 1)), "exact:r=1"
    return bounds._exact_with_source(n, k, r, q)


def reference_bound_table(q, n_max):
    """(lower, lower_src, upper, upper_src) per row, from the Fraction
    helpers: each row's candidate lists, in source order, and the first
    minimal upper and maximal lower among them."""
    registered = {(7, 3, 2): (399, "gf64")} if q == 2 and n_max >= 7 else {}
    uppers, rows = {}, {}
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            for r in range(1, k + 1):
                up_cands = [(gaussian(n - k + r, r, q), "trivial")]
                if k < n:
                    inner = 1 if r == 1 else uppers[n - 1, k - 1, r - 1]
                    up_cands.append((q ** (n - k) * inner + uppers[n - 1, k, r],
                                     "recursive"))
                if (n, k, r) in registered:
                    up_cands.append(registered[n, k, r])
                lo_cands = [(reference_basic_lower(n, k, r, q), "basic"),
                            (reference_schonheim_lower(n, k, r, q), "schonheim")]
                if r == k - 1 and k < n:
                    lo_cands.append((reference_decaen_lower(n, k, q), "decaen"))
                exact = reference_exact(n, k, r, q)
                if exact:
                    up_cands.append(exact)
                    lo_cands.append(exact)
                up = min(up_cands, key=lambda t: t[0])
                lo = max(lo_cands, key=lambda t: t[0])
                uppers[n, k, r] = up[0]
                rows[n, k, r] = (*lo, *up)
    return rows


@pytest.mark.parametrize("q", [2, 3])
def test_bound_table_equals_fraction_reference(q):
    """The integer ceilings equal ceilings of exact Fractions, bound by
    bound, and every table up to n_max = 12, values and sources, equals
    the reference table built from them row by row."""
    params = [(n, k, r) for n in range(1, 13) for k in range(1, n + 1)
              for r in range(1, k + 1)]
    for n, k, r in params:
        assert basic_lower(n, k, r, q) == reference_basic_lower(n, k, r, q)
        assert schonheim_lower(n, k, r, q) == reference_schonheim_lower(n, k, r, q)
        if k < n:
            assert decaen_lower(n, k, q) == reference_decaen_lower(n, k, q)
    for n_max in range(1, 13):
        table = bound_table(q, n_max)
        assert {key: (rec.lower, rec.lower_src, rec.upper, rec.upper_src)
                for key, rec in table.items()} == reference_bound_table(q, n_max)
    assert len(table) == len(params)


def test_bound_table_fixed_point_stable():
    t1 = bound_table(2, n_max=7)
    t2 = bound_table(2, n_max=7)
    assert t1 == t2


def test_bound_table_gf64_upper_feeds_recursion():
    # the gf64 upper at (7, 3, 2) is the recursion's first term at (8, 4, 3)
    t8 = bound_table(2, n_max=8)
    assert t8[(7, 3, 2)].upper == 399
    assert t8[(8, 4, 3)].upper_src == "recursive"
    assert t8[(8, 4, 3)].upper == 2 ** 4 * 399 + t8[(7, 4, 3)].upper == 7427


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


# Each input guard of qcover.bounds: a call, the exception it raises and a
# fragment of its message; each raises within 0.1 s.
@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: schonheim_lower(4, 2, 0, 2), ValueError,
                 "need 1 <= r <= k <= n, got (4,2,0)", id="schonheim-r0"),
    pytest.param(lambda: bound_table(2, 13), ValueError, "n_max capped at 12",
                 id="bound_table-n_max"),
    pytest.param(lambda: bound_table(2, 0), ValueError,
                 "need n_max >= 1, got 0", id="bound_table-n_max0"),
    pytest.param(lambda: bound_table(2, -5), ValueError,
                 "need n_max >= 1, got -5", id="bound_table-n_max-negative"),
    pytest.param(lambda: gaussian(3, 1, 1), ValueError, "need q >= 2, got q=1",
                 id="gaussian-q1"),
])
def test_input_guards(call, error, message):
    start = time.perf_counter()
    with pytest.raises(error, match=re.escape(message)):
        call()
    assert time.perf_counter() - start < 0.1
