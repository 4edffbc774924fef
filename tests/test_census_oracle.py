"""Differential tests of the point-key census against a per-target span census.

The oracle below is the original census: a Counter[Subspace] filled from
subspaces_of (covering) or superspaces_containing (Turan), where every target
is row-reduced by span.  Every report of verify_covering and verify_turan,
for both strategies, must equal the oracle's in full: total, histogram,
extremes and the witnesses in enumeration order.
"""

import itertools
import random
from collections import Counter

import pytest

from qcover.bounds import gaussian
from qcover.designs import (WITNESS_CAP, CoverageReport, SubspaceDesign,
                            verify_covering, verify_turan)
from qcover.fields import get_gf, vec_pack
from qcover.subspaces import (enumerate_grassmannian, enumerate_vectors,
                              local_patterns, point_key, span, subspaces_of,
                              superspaces_containing)

# Ambient sizes per q, small enough that the scan strategy stays cheap.
MAX_N = {2: 6, 3: 5, 4: 4}
DESIGNS = 160


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
    counts = Counter(t for block in design.blocks for t in subspaces_of(block, r))
    return oracle_report(design.q, design.n, r, counts)


def oracle_turan(design, k):
    counts = Counter(t for block in design.blocks
                     for t in superspaces_containing(block, k))
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
