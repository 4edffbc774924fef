"""Differential tests of the census and subspace generators against span.

The oracle below is the original census: a Counter[Subspace] filled from the
span-based reference generators reference_subspaces_of (covering) and
reference_superspaces_containing (Turan), where every target is row-reduced
by span.  Every report of verify_covering and verify_turan, for both
strategies, must equal the oracle's in full: total, histogram, extremes and
the witnesses in enumeration order.  The library's subspaces_of and
superspaces_containing build each RREF directly and must yield exactly what
the references yield, in the same order.  packed_vectors must equal vec_pack
of every enumerate_vectors vector, in order.
"""

import itertools
import random
from collections import Counter

import pytest

from qcover.bounds import gaussian
from qcover.designs import (WITNESS_CAP, CoverageReport, SubspaceDesign,
                            verify_covering, verify_turan)
from qcover.fields import get_gf, vec_add, vec_pack, vec_scale
from qcover.subspaces import (BudgetError, enumerate_grassmannian,
                              enumerate_vectors, full_space,
                              grassmannian_pivot_freedom, local_patterns,
                              packed_vectors, point_key, span, subspaces_of,
                              superspaces_containing)

# Ambient sizes per q, small enough that the scan strategy stays cheap.
MAX_N = {2: 6, 3: 5, 4: 4}
DESIGNS = 160


def reference_subspaces_of(s, r):
    """Every r-subspace of s: L*S for each local L, row-reduced by span."""
    gf = get_gf(s.q)
    for local in enumerate_grassmannian(s.q, s.dim, r):
        rows = []
        for lrow in local.rows:
            v = tuple([0] * s.n)
            for c, srow in zip(lrow, s.rows):
                if c:
                    v = vec_add(gf, v, vec_scale(gf, c, srow))
            rows.append(v)
        yield span(s.q, s.n, rows)


def reference_superspaces_containing(s, k):
    """Every k-subspace containing s: s + L for each L on the non-pivot
    coordinates, row-reduced by span."""
    comp_cols = [c for c in range(s.n) if c not in set(s.pivots)]
    for local in enumerate_grassmannian(s.q, s.n - s.dim, k - s.dim):
        rows = list(s.rows)
        for lrow in local.rows:
            v = [0] * s.n
            for c, col in zip(lrow, comp_cols):
                v[col] = c
            rows.append(tuple(v))
        yield span(s.q, s.n, rows)


def oracle_report(q, n, dim, counts):
    total = gaussian(n, dim, q)
    histogram = Counter(counts.values())
    uncovered = total - len(counts)
    if uncovered:
        histogram[0] = uncovered
    witnesses = tuple(itertools.islice(
        (t for t in enumerate_grassmannian(q, n, dim) if t not in counts),
        WITNESS_CAP))
    return CoverageReport(total, dict(histogram), min(histogram), max(histogram),
                          witnesses)


def oracle_covering(design, r):
    counts = Counter(t for block in design.blocks
                     for t in reference_subspaces_of(block, r))
    return oracle_report(design.q, design.n, r, counts)


def oracle_turan(design, k):
    counts = Counter(t for block in design.blocks
                     for t in reference_superspaces_containing(block, k))
    return oracle_report(design.q, design.n, k, counts)


def random_design(rng):
    q = rng.choice(sorted(MAX_N))
    n = rng.randint(1, MAX_N[q])
    k = rng.randint(0, n)
    available = gaussian(n, k, q)
    wanted = rng.randint(0, min(available, 10))
    if available <= 10 and rng.random() < 0.3:
        blocks = list(enumerate_grassmannian(q, n, k))
    else:
        blocks = set()
        while len(blocks) < wanted:
            vectors = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
            block = span(q, n, vectors)
            if block.dim == k:
                blocks.add(block)
    return SubspaceDesign.from_blocks(blocks, q=q, n=n, k=k)


@pytest.mark.parametrize("chunk", range(4))
def test_reports_equal_oracle_on_random_designs(chunk):
    rng = random.Random(2011 + chunk)
    for _ in range(DESIGNS // 4):
        design = random_design(rng)
        for r in range(design.k + 1):
            expected = oracle_covering(design, r)
            for strategy in ("expand", "scan"):
                assert verify_covering(design, r, strategy) == expected, (
                    design, r, strategy)
        for k in range(design.k, design.n + 1):
            expected = oracle_turan(design, k)
            for strategy in ("expand", "scan"):
                assert verify_turan(design, k, strategy) == expected, (
                    design, k, strategy)


# Largest ambient dimension per q for the generator comparison.
GENERATOR_MAX_N = {2: 6, 3: 4, 4: 4, 5: 4, 8: 4, 9: 4}


def random_rref(rng, q, n, pivots):
    """A subspace with the given pivots and random free entries."""
    rows = [[1 if c == p else 0 for c in range(n)] for p in pivots]
    for i, c in grassmannian_pivot_freedom(n, pivots):
        rows[i][c] = rng.randrange(q)
    s = span(q, n, rows)
    assert s.pivots == tuple(pivots)
    return s


@pytest.mark.parametrize("q", sorted(GENERATOR_MAX_N))
def test_generators_equal_span_reference(q):
    """Same subspaces, order and pivots as the span route, for one random
    subspace per pivot set of every dimension, every k and every r."""
    rng = random.Random(q)
    for n in range(GENERATOR_MAX_N[q] + 1):
        for d in range(n + 1):
            for pivots in itertools.combinations(range(n), d):
                s = random_rref(rng, q, n, pivots)
                for k in range(d, n + 1):
                    got = list(superspaces_containing(s, k))
                    expected = list(reference_superspaces_containing(s, k))
                    assert got == expected, (s, k)
                    assert [t.pivots for t in got] == [t.pivots for t in expected]
                for r in range(d + 1):
                    got = list(subspaces_of(s, r))
                    expected = list(reference_subspaces_of(s, r))
                    assert got == expected, (s, r)
                    assert [t.pivots for t in got] == [t.pivots for t in expected]


# Largest ambient dimension per q for the packed_vectors comparison.
PACKED_MAX_N = {2: 6, 3: 5, 4: 4, 5: 4, 7: 4, 8: 4, 9: 4}


@pytest.mark.parametrize("q", sorted(PACKED_MAX_N))
def test_packed_vectors_equal_vec_pack_of_enumerate_vectors(q):
    """Same packed ints in the same order as packing each enumerated vector,
    for one random subspace per pivot set of every dimension, from the zero
    subspace to the full space."""
    rng = random.Random(1000 + q)
    for n in range(PACKED_MAX_N[q] + 1):
        for d in range(n + 1):
            for pivots in itertools.combinations(range(n), d):
                s = random_rref(rng, q, n, pivots)
                expected = [vec_pack(q, v) for v in enumerate_vectors(s)]
                assert packed_vectors(s) == expected, s


@pytest.mark.parametrize("q,n", [(2, 25), (3, 16)])
def test_packed_vectors_budget(q, n):
    with pytest.raises(BudgetError):
        packed_vectors(full_space(q, n))


def normalised_points(s):
    """Packed vectors of s scaled so the first nonzero entry is 1."""
    gf = get_gf(s.q)
    points = set()
    for v in enumerate_vectors(s):
        lead = next((x for x in v if x), 0)
        if lead:
            inv = gf.inv(lead)
            points.add(vec_pack(s.q, [gf.mul(inv, x) for x in v]))
    return tuple(sorted(points))


@pytest.mark.parametrize("q,n,r", [(2, 5, 2), (3, 4, 2)])
def test_point_key_identifies_subspaces(q, n, r):
    grassmannian = list(enumerate_grassmannian(q, n, r))
    keys = [point_key(s) for s in grassmannian]
    assert len(set(keys)) == len(grassmannian) == gaussian(n, r, q)
    rng = random.Random(q * 100 + n)
    for s, key in zip(grassmannian, keys):
        assert key == normalised_points(s)
        # another basis of the same subspace gives the same key
        vectors = enumerate_vectors(s)
        basis = rng.sample(vectors, len(vectors))
        assert point_key(span(q, n, basis)) == key
    for a, b in itertools.combinations(range(len(grassmannian)), 2):
        assert (keys[a] == keys[b]) == (grassmannian[a] == grassmannian[b])


@pytest.mark.parametrize("q,k", [(2, 4), (3, 3), (4, 3)])
def test_local_patterns_shape(q, k):
    for r in range(k + 1):
        patterns = local_patterns(q, k, r)
        assert len(patterns) == gaussian(k, r, q)
        assert len(set(patterns)) == len(patterns)
        for pattern in patterns:
            assert len(set(pattern)) == len(pattern) == gaussian(r, 1, q)
            assert all(0 < i < q ** k for i in pattern)
