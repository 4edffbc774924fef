"""Differential tests of the census and subspace generators against span.

The oracle below is the original census: a Counter[Subspace] filled from the
span-based reference generators reference_subspaces_of (covering) and
reference_superspaces_containing (Turan), where every target is row-reduced
by span.  Every report of verify_covering and verify_turan, for both
strategies, must equal the oracle's in full: total, histogram, extremes and
the witnesses in enumeration order.  The library's subspaces_of and
superspaces_containing build their keys directly and must yield exactly what
the references yield, in the same order: subspaces_of the same subspaces,
superspaces_containing the packed complement basis of each superspace, L*G
for each local L over the brute-force complement basis G, as it builds no
Subspace.  packed_vectors must equal vec_pack
of every enumerate_vectors vector, in order.  enumerate_grassmannian must
equal the template odometer kept here, and local_row_indices the positions
of RREF rows among enumerate_vectors.  complement_vectors must list what the
generator-based construction kept here lists, in the same order.  The Turan
scan is the covering scan of the block complements, counted on the
(n - k)-subspaces, so its reports pin the duality t -> t-perp as well: the
same histogram, and the witnesses in the order of the k-subspaces.
verify_orbits, the census of a design invariant under a GroupAction taken
on its base blocks only, must equal expand and scan on the expanded design.
"""

import functools
import itertools
import operator
import random
import time
from collections import Counter

import pytest

from qcover import constructions, designs, subspaces
from qcover.bounds import bound_table, gaussian
from qcover.constructions import (GF64_QUADS, ConstructionError,
                                  gf64_covering_design, gf64_orbits)
from qcover.designs import (WITNESS_CAP, CoverageReport, SubspaceDesign,
                            verify_covering, verify_orbits, verify_turan)
from qcover.fields import get_gf, vec_pack, vec_unpack
from qcover.subspaces import (AmbientMismatch, BudgetError, GroupAction,
                              Subspace, complement_generators,
                              complement_vectors,
                              enumerate_grassmannian, grassmannian_choices,
                              grassmannian_rows,
                              local_row_indices, orthogonal_complement,
                              packed_vectors, span, subspaces_of,
                              superspaces_containing)

from vector_reference import (enumerate_vectors, full_space, tuple_span,
                              vec_add, vec_scale)

# Ambient sizes per q, small enough that the scan strategy stays cheap.
MAX_N = {2: 6, 3: 5, 4: 4}
DESIGNS = 160
# Random designs per q under a ROW_CHUNK of 2.
SPLIT_DESIGNS = 20


def grassmannian_pivot_freedom(n, pivots):
    """Free entry positions (row, col) of the RREF template for a pivot set."""
    pivset = set(pivots)
    return [(i, c) for i, p in enumerate(pivots)
            for c in range(p + 1, n) if c not in pivset]


def reference_enumerate_grassmannian(q, n, k):
    """The template odometer: per pivot set, fill the free entries of one
    RREF template, in row-major order, with every value tuple in turn."""
    for pivots in itertools.combinations(range(n), k):
        freedom = grassmannian_pivot_freedom(n, pivots)
        template = [[0] * n for _ in range(k)]
        for i, p in enumerate(pivots):
            template[i][p] = 1
        for values in itertools.product(range(q), repeat=len(freedom)):
            for (i, c), v in zip(freedom, values):
                template[i][c] = v
            yield Subspace(q, n, tuple(vec_pack(q, r) for r in template),
                           tuple(pivots))


def reference_local_row_indices(q, k, r):
    """local_row_indices built from enumerate_vectors: the position of each
    RREF row of every local subspace among the vectors of F_q^k."""
    vectors = enumerate_vectors(full_space(q, k))
    return tuple(tuple(vectors.index(row) for row in local.rows)
                 for local in enumerate_grassmannian(q, k, r))


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
        yield tuple_span(s.q, s.n, rows)


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
        yield tuple_span(s.q, s.n, rows)


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


def random_design(rng, q=None):
    if q is None:
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
            block = tuple_span(q, n, vectors)
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


@pytest.mark.parametrize("q", sorted(MAX_N))
def test_scan_under_split_first_rows_equals_oracle(q, monkeypatch):
    """With ROW_CHUNK = 2 nearly every first row is split over several
    grassmannian_choices entries.  Both scans, the Turan one on the
    (n - k)-subspaces of the block complements, must count every part once,
    and the witness walks must cross the parts in enumeration order."""
    monkeypatch.setattr(subspaces, "ROW_CHUNK", 2)
    rng = random.Random(4100 + q)
    for _ in range(SPLIT_DESIGNS):
        design = random_design(rng, q)
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


@pytest.mark.parametrize("q", sorted(MAX_N))
def test_scan_counts_popcounts_in_chunks(q, monkeypatch):
    """_scan counts its popcounts once per XOR_CHUNK of them.  With the
    chunk cut to 3 it counts them after nearly every grassmannian_choices
    entry, and both scans still count every target once."""
    monkeypatch.setattr(designs, "XOR_CHUNK", 3)
    rng = random.Random(4200 + q)
    for _ in range(SPLIT_DESIGNS):
        design = random_design(rng, q)
        for r in range(design.k + 1):
            assert verify_covering(design, r, "scan") == oracle_covering(
                design, r), (design, r)
        for k in range(design.k, design.n + 1):
            assert verify_turan(design, k, "scan") == oracle_turan(
                design, k), (design, k)


def reference_count_product(start, factors):
    """Multiplicity histogram of start & m_1 & ... & m_f over every choice
    of one mask m_i per factor: one AND per product, no sharing."""
    return Counter(functools.reduce(operator.and_, masks, start).bit_count()
                   for masks in itertools.product(*factors))


def random_factors(rng, width):
    """0 to 4 mask lists of 1 to 5 masks of width bits, about a third of
    the masks zero and the rest sparse, so whole subtrees AND to zero."""
    factors = []
    for _ in range(rng.randint(0, 4)):
        factors.append([0 if rng.random() < 0.3 else
                        rng.getrandbits(width) & rng.getrandbits(width)
                        for _ in range(rng.choice([1, 1, 2, 3, 4, 5]))])
    return factors


@pytest.mark.parametrize("seed", range(4))
def test_count_product_equals_brute_force(seed):
    """What _count_product adds to found, plus the popcounts it lists, is
    the histogram of one AND per product: with zero masks at every level a
    prefix that drops to zero must add its whole subtree, the product of
    the factors below it, to multiplicity 0.  Single-mask factors fold into
    start, and a zero start or no factor adds every product at once."""
    rng = random.Random(4300 + seed)
    cases = [(0, [[3, 1], [2, 2, 7]]), (7, []), (0, []), (5, [[0]]),
             (7, [[0, 0], [1, 2, 3]]), (7, [[1, 2], [0, 0, 0], [4, 7]])]
    for _ in range(300):
        width = rng.randint(1, 10)
        start = rng.choice([0, (1 << width) - 1, rng.getrandbits(width)])
        cases.append((start, random_factors(rng, width)))
    for start, factors in cases:
        found, popcounts = Counter({0: 2, 3: 1}), []
        designs._count_product(start, factors, found, popcounts)
        found.update(popcounts)
        expected = reference_count_product(start, factors)
        expected.update({0: 2, 3: 1})
        assert +found == expected, (start, factors)


def test_scans_at_large_q_build_no_table_of_the_space():
    """F_65521^2 has over 4 * 10^9 vectors, so a scan that kept one slot per
    vector of the space would fail or take minutes.  The scans key their
    masks by the blocks' vectors only: both equal expand, witnesses
    included, and each takes well under a second."""
    q = 65521
    get_gf(q)  # the field's tables, built once per process
    # the points (0, 1), (1, 5) and (1, 77), by their packed RREF rows
    design = SubspaceDesign.from_rows(q, 2, 1, [(1,), (q + 5,), (q + 77,)])
    for census, dim in ((verify_covering, 1), (verify_turan, 1),
                        (verify_turan, 2)):
        started = time.perf_counter()
        scan = census(design, dim, "scan")
        elapsed = time.perf_counter() - started
        assert scan == census(design, dim, "expand"), (census, dim)
        assert elapsed < 1, (census, dim, elapsed)
    assert scan.histogram == {3: 1}
    points = verify_covering(design, 1, "scan")
    assert points.histogram == {0: q + 1 - 3, 1: 3}
    assert len(points.witnesses) == WITNESS_CAP


def test_turan_witnesses_after_the_complement_tables_are_warm(monkeypatch):
    """complement_generators keeps the tables of small families of RREFs,
    keyed on their pivots and row choices.  Split first rows give several
    families with the same pivots, so with the tables warm from unsplit
    censuses, then from censuses under ROW_CHUNK = 2, then unsplit again,
    each interleaved over (q, n), both Turan routes must still give
    oracle_turan's witnesses."""
    rng = random.Random(4400)
    cases = []
    while len(cases) < 12:
        design = random_design(rng, (2, 3, 4)[len(cases) % 3])
        for k in range(design.k, design.n + 1):
            expected = oracle_turan(design, k)
            if expected.witnesses:
                cases.append((design, k, expected))
    assert len({(design.q, design.n) for design, _, _ in cases}) > 3
    for row_chunk in (subspaces.ROW_CHUNK, 2, subspaces.ROW_CHUNK):
        monkeypatch.setattr(subspaces, "ROW_CHUNK", row_chunk)
        for design, k, expected in cases:
            for strategy in ("expand", "scan"):
                assert verify_turan(design, k, strategy) == expected, (
                    design, k, strategy, row_chunk)


def test_scan_splits_the_first_row_at_the_real_row_chunk():
    """The points of F_2^14 with pivot 0 are 2^13 first-row choices, split
    over two entries of ROW_CHUNK each.  Uncovered points in both parts must
    come out of both scans as they come out of expand."""
    first, second = itertools.islice(grassmannian_choices(2, 14, 1), 2)
    assert first[0] == second[0] == (0,)
    assert len(first[1][0]) == len(second[1][0]) == subspaces.ROW_CHUNK
    dropped = {5, 700, 4000}
    points = [Subspace(2, 14, (row,), (0,)) for i, row in enumerate(first[1][0])
              if i not in dropped]
    points += [Subspace(2, 14, (row,), (0,)) for row in second[1][0][2:9]]
    design = SubspaceDesign.from_blocks(points, q=2, n=14, k=1)
    scan = verify_covering(design, 1, "scan")
    assert scan == verify_covering(design, 1, "expand")
    assert scan.histogram == {0: gaussian(14, 1, 2) - len(points), 1: len(points)}
    assert [w.packed[0] for w in scan.witnesses] == (
        [first[1][0][i] for i in sorted(dropped)] + list(second[1][0][:2])
        + list(second[1][0][9:20]))
    few = SubspaceDesign.from_blocks(points[::400] + points[-3:], q=2, n=14, k=1)
    scan = verify_turan(few, 1, "scan")
    assert scan == verify_turan(few, 1, "expand")
    assert scan.histogram == {0: gaussian(14, 1, 2) - len(few), 1: len(few)}


def all_blocks(q, n, k):
    return SubspaceDesign.from_blocks(enumerate_grassmannian(q, n, k), q=q, n=n, k=k)


def sampled_blocks(q, n, k, count, seed):
    rng = random.Random(seed)
    return SubspaceDesign.from_blocks(
        rng.sample(list(enumerate_grassmannian(q, n, k)), count), q=q, n=n, k=k)


# name -> (design, covering r values, Turan k values)
SCAN_EDGE_CASES = {
    # r = 0: every block contains the zero subspace
    "r0-q2": (sampled_blocks(2, 4, 2, 5, 1), [0], []),
    "r0-q3": (sampled_blocks(3, 3, 1, 4, 2), [0], []),
    # Turan k = n: the full space contains every block
    "k=n-q2": (sampled_blocks(2, 5, 2, 7, 3), [], [5]),
    "k=n-q3": (sampled_blocks(3, 3, 2, 3, 4), [], [3]),
    "no-blocks-q2": (SubspaceDesign.from_blocks([], q=2, n=4, k=2),
                     [0, 1, 2], [2, 3, 4]),
    "no-blocks-q3-k0": (SubspaceDesign.from_blocks([], q=3, n=3, k=0),
                        [0], [0, 1, 2, 3]),
    "many-uncovered-q2": (sampled_blocks(2, 6, 3, 2, 5), [1, 2, 3], [3, 4, 5]),
    "many-uncovered-q3": (sampled_blocks(3, 4, 1, 3, 6), [1], [1, 2, 3]),
    "q8-k1": (sampled_blocks(8, 3, 1, 20, 7), [1], [1, 2, 3]),
    "q8-k2": (sampled_blocks(8, 3, 2, 30, 8), [1, 2], [2, 3]),
    "q9-k2": (sampled_blocks(9, 3, 2, 40, 9), [1, 2], [2, 3]),
    "q9-all-points": (all_blocks(9, 2, 1), [0, 1], [1, 2]),
    # more than 64 blocks: the block bitmasks span several machine words
    "q2-all-points-n7": (all_blocks(2, 7, 1), [0, 1], [1, 2, 6, 7]),
    "q3-all-planes": (all_blocks(3, 4, 2), [0, 1, 2], [2, 3, 4]),
    "q2-100-lines": (sampled_blocks(2, 6, 2, 100, 10), [1, 2], [2, 3, 5]),
}


@pytest.mark.parametrize("name", sorted(SCAN_EDGE_CASES))
def test_scan_edge_cases_equal_oracle(name):
    design, covering_r, turan_k = SCAN_EDGE_CASES[name]
    uncovered = 0
    for r in covering_r:
        expected = oracle_covering(design, r)
        uncovered = max(uncovered, expected.histogram.get(0, 0))
        for strategy in ("expand", "scan"):
            assert verify_covering(design, r, strategy) == expected, (r, strategy)
    for k in turan_k:
        expected = oracle_turan(design, k)
        uncovered = max(uncovered, expected.histogram.get(0, 0))
        for strategy in ("expand", "scan"):
            assert verify_turan(design, k, strategy) == expected, (k, strategy)
    if name.startswith("many-uncovered"):
        assert uncovered > WITNESS_CAP


def test_scan_uses_no_expand_kernel(monkeypatch):
    """Scan stays a route independent of expand."""
    def forbidden(*args):
        raise AssertionError("called by scan")
    for module in (designs, subspaces):
        for name in ("_local_rows", "local_row_indices", "subspaces_of",
                     "superspaces_containing"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    for q, n, k in [(2, 5, 2), (3, 4, 2), (4, 3, 1)]:
        design = sampled_blocks(q, n, k, 3, q)
        for r in range(k + 1):
            assert verify_covering(design, r, "scan").total == gaussian(n, r, q)
        for t in range(k, n + 1):
            assert verify_turan(design, t, "scan").total == gaussian(n, t, q)


@pytest.mark.parametrize("n, k", [(5, 2), (5, 3), (6, 5)])
def test_turan_expand_builds_no_subspace(subspace_builds, n, k):
    """Turan expand counts the complement keys superspaces_containing
    yields and builds no Subspace, by any route, on the q=3 Turan point
    designs, here rebuilt from their packed rows so that no blocks view is
    at hand; its report equals scan's.  A k below the blocks' dimension
    raises by the first next, before any key."""
    points = constructions.turan_point_design(3, n, k, verify=False)
    design = SubspaceDesign.from_rows(3, n, 1, points.packed)
    scan = verify_turan(design, k, "scan")
    subspace_builds.clear()
    assert verify_turan(design, k, "expand") == scan
    keys = superspaces_containing(design, 0)
    with pytest.raises(ValueError, match="need dim <= k <= n, got k=0"):
        next(keys)
    assert subspace_builds == []
    assert "blocks" not in vars(design)


def with_duplicates_and_twins(rng, blocks):
    """blocks, some of them twice, shuffled, then a twin of some with the
    same rows and wrong pivots after them: equal to its block, as Subspace
    equality reads the rows alone."""
    listed = blocks + rng.sample(blocks, len(blocks) // 2)
    rng.shuffle(listed)
    twins = [Subspace(b.q, b.n, b.packed, tuple(p + 1 for p in b.pivots[::2]))
             for b in rng.sample(blocks, (len(blocks) + 2) // 3)]
    return listed + twins


@pytest.mark.parametrize("q", [2, 3, 4])
def test_from_rows_equals_from_blocks(q):
    """SubspaceDesign.from_rows of the blocks' packed rows against
    from_blocks of the blocks, on the census-oracle corpus with duplicated,
    shuffled and wrong-pivot twin blocks: equal designs, hashes, files, rows
    and pivots.  The blocks view of each is the eager tuple from_blocks
    built before designs held rows (the unique blocks sorted by
    Subspace.sort_key, with their pivots), the same object on every read.
    Rows given in sorted order take from_rows' fast path to the same
    design.  At k = 0, [()] is the one zero block and [] no block."""
    rng = random.Random(3000 + q)
    tested = zeros = 0
    while tested < DESIGNS // 4:
        corpus = random_design(rng, q)
        q, n, k = corpus.q, corpus.n, corpus.k
        zeros += not k
        given = with_duplicates_and_twins(rng, list(corpus.blocks))
        eager = tuple(sorted(dict.fromkeys(given), key=Subspace.sort_key))
        by_blocks = SubspaceDesign.from_blocks(given, q=q, n=n, k=k)
        by_rows = SubspaceDesign.from_rows(q, n, k, [b.packed for b in given])
        in_order = SubspaceDesign.from_rows(q, n, k, [b.packed for b in eager])
        for design in (by_rows, in_order, by_blocks):
            assert design == by_blocks == corpus, design
            assert hash(design) == hash(by_blocks)
            assert designs.design_to_text(design) == designs.design_to_text(corpus)
            assert design.packed == tuple(b.packed for b in eager)
            assert design.pivots == tuple(b.pivots for b in eager)
            view = design.blocks
            assert view == eager and design.blocks is view
            assert [b.pivots for b in view] == [b.pivots for b in eager]
        tested += 1
    assert zeros
    zero = Subspace(q, 3, (), ())
    assert SubspaceDesign.from_rows(q, 3, 0, [()]) == SubspaceDesign.from_blocks(
        [zero], q=q, n=3, k=0)
    assert SubspaceDesign.from_rows(q, 3, 0, [(), ()]).blocks == (zero,)
    assert len(SubspaceDesign.from_rows(q, 3, 0, [])) == 0


@pytest.mark.parametrize("k, blocks, message", [
    (-1, [], "need 0 <= k <= n, got n=3 k=-1"),
    (4, [(8, 4, 2, 1)], "need 0 <= k <= n, got n=3 k=4"),
    (2, [(4, 2), (4, 2, 1)], "a block has no 2 rows"),
    (1, [(4,), ()], "a block has no 1 rows"),
])
def test_from_rows_refuses_bad_shapes(k, blocks, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SubspaceDesign.from_rows(2, 3, k, blocks)


# Largest ambient dimension per q for the generator comparison.
GENERATOR_MAX_N = {2: 6, 3: 5, 4: 4, 5: 4, 8: 4, 9: 4}


def random_rref(rng, q, n, pivots):
    """A subspace with the given pivots and random free entries."""
    rows = [[1 if c == p else 0 for c in range(n)] for p in pivots]
    for i, c in grassmannian_pivot_freedom(n, pivots):
        rows[i][c] = rng.randrange(q)
    s = tuple_span(q, n, rows)
    assert s.pivots == tuple(pivots)
    return s


def generator_inputs(q):
    """One random subspace per pivot set of every dimension up to
    GENERATOR_MAX_N[q]; for q = 3 also the points of T_3[6,5,1], whose
    superspaces the q=3 Turan census counts."""
    rng = random.Random(q)
    for n in range(GENERATOR_MAX_N[q] + 1):
        for d in range(n + 1):
            for pivots in itertools.combinations(range(n), d):
                yield random_rref(rng, q, n, pivots)
    if q == 3:
        yield from constructions.turan_point_design(3, 6, 5, verify=False).blocks


def reference_complement_basis(s):
    """s-perp's generators by descending column, by brute force over the null
    space: its RREF with the coordinates reversed.  The pivots are the last
    nonzero coordinates of the null vectors, and the row at pivot c is the
    one null vector with last nonzero coordinate c, equal to 1, that is zero
    at every other pivot."""
    null = [vec_unpack(s.q, s.n, v) for v in null_space(s) if v]
    last = {v: max(i for i, x in enumerate(v) if x) for v in null}
    pivots = sorted(set(last.values()), reverse=True)
    basis = []
    for c in pivots:
        (row,) = [v for v in null if last[v] == c and v[c] == 1
                  and not any(v[p] for p in pivots if p != c)]
        basis.append(row)
    return basis


def reference_superspace_keys(s, k):
    """The packed rows of L*G for each (n - k)-subspace L of F_q^(n - dim),
    in enumerate_grassmannian order, G the reference complement basis."""
    gf = get_gf(s.q)
    basis = reference_complement_basis(s)
    for local in enumerate_grassmannian(s.q, s.n - s.dim, s.n - k):
        keys = []
        for lrow in local.rows:
            v = tuple([0] * s.n)
            for c, g in zip(lrow, basis):
                if c:
                    v = vec_add(gf, v, vec_scale(gf, c, g))
            keys.append(vec_pack(s.q, v))
        yield tuple(keys)


@pytest.mark.parametrize("q", sorted(GENERATOR_MAX_N))
def test_generators_equal_span_reference(q):
    """Same subspaces, order and pivots as the span route, for every input
    subspace, every k and every r.  superspaces_containing yields, in
    order, L*G over the brute-force complement basis G, and its keys are
    the complement generators of the span reference's superspaces."""
    for s in generator_inputs(q):
        for k in range(s.dim, s.n + 1):
            got = list(superspaces_containing(SubspaceDesign.from_blocks([s]), k))
            assert got == list(reference_superspace_keys(s, k)), (s, k)
            assert Counter(got) == Counter(
                next(complement_generators(q, s.n, t.pivots, zip(t.packed)))
                for t in reference_superspaces_containing(s, k)), (s, k)
        for r in range(s.dim + 1):
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
    subspace to the full space.  For q = 2 and 3 and n <= 4, every subspace
    lists its vectors strictly ascending: packed int order is the
    lexicographic order, which the odometer order of RREF combinations
    follows."""
    rng = random.Random(1000 + q)
    for n in range(PACKED_MAX_N[q] + 1):
        for d in range(n + 1):
            for pivots in itertools.combinations(range(n), d):
                s = random_rref(rng, q, n, pivots)
                expected = [vec_pack(q, v) for v in enumerate_vectors(s)]
                assert packed_vectors(s) == expected, s
            if q in (2, 3) and n <= 4:
                for s in enumerate_grassmannian(q, n, d):
                    vectors = packed_vectors(s)
                    assert all(map(operator.lt, vectors, vectors[1:])), s


@pytest.mark.parametrize("q,n", [(2, 25), (3, 16)])
def test_packed_vectors_budget(q, n):
    with pytest.raises(BudgetError):
        packed_vectors(full_space(q, n))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_local_row_indices_equal_reference(q):
    for k in range(5):
        for r in range(k + 1):
            expected = reference_local_row_indices(q, k, r)
            assert local_row_indices(q, k, r) == expected, (k, r)


@pytest.mark.parametrize("q,n,k", [(2, 5, 2), (2, 5, 3), (3, 4, 2), (4, 3, 2)])
def test_row_keys_are_packed_rows_of_subspaces_of(q, n, k):
    """A block's packed vectors read at local_row_indices give the packed
    RREF rows of its r-subspaces, in the order of the span reference."""
    for s in enumerate_grassmannian(q, n, k):
        vectors = packed_vectors(s)
        for r in range(k + 1):
            keys = [tuple(vectors[i] for i in rows)
                    for rows in local_row_indices(q, k, r)]
            assert keys == [tuple(vec_pack(q, row) for row in t.rows)
                            for t in reference_subspaces_of(s, r)], (s, r)


def null_space(s):
    """Packed vectors of F_q^n orthogonal to every row of s, by brute force:
    each row's dot product with every vector of F_q^n is tabled, first
    coordinate slowest as itertools.product lists them, from GF(q)'s
    addition and multiplication tables."""
    gf = get_gf(s.q)
    add = [[gf.add(a, b) for b in range(s.q)] for a in range(s.q)]
    tables = []
    for row in s.rows:
        table = [0]
        for x in row:
            terms = [gf.mul(c, x) for c in range(s.q)]
            table = [add[u][t] for u in table for t in terms]
        tables.append(table)
    vectors = itertools.product(range(s.q), repeat=s.n)
    return {vec_pack(s.q, v) for v, *dots in zip(vectors, *tables) if not any(dots)}


def complement_list(s):
    """complement_vectors of s alone, as a list."""
    (vectors,) = complement_vectors(s.q, s.n, s.dim, [s.packed], [s.pivots])
    return list(vectors)


# Largest ambient dimension per q for the complement comparison.
COMPLEMENT_MAX_N = {2: 6, 3: 4, 4: 3, 9: 3}


@pytest.mark.parametrize("q", sorted(COMPLEMENT_MAX_N))
def test_complement_generators_span_the_null_space(q):
    """For one random subspace per pivot set, the generators are n - dim
    independent vectors spanning the brute-force null space, which is
    orthogonal_complement; a family of RREFs gives each one's generators in
    product order."""
    rng = random.Random(3000 + q)
    for n in range(COMPLEMENT_MAX_N[q] + 1):
        for d in range(n + 1):
            for pivots in itertools.combinations(range(n), d):
                s = random_rref(rng, q, n, pivots)
                (generators,) = complement_generators(q, n, s.pivots,
                                                      zip(s.packed))
                expected = null_space(s)
                assert span(q, n, generators).dim == len(generators) == n - d, s
                assert set(complement_list(s)) == expected, s
                assert len(complement_list(s)) == len(expected)
                assert orthogonal_complement(s) == span(q, n, generators)
            for pivots, packed in grassmannian_choices(q, n, d):
                assert list(complement_generators(q, n, pivots, packed)) == [
                    next(complement_generators(q, n, pivots, zip(t)))
                    for t in itertools.product(*packed)]


def reference_span(q, n, rows):
    """vec_pack of every combination of rows of F_q^n, in odometer order,
    first coefficient slowest, each one summed by field arithmetic, with
    neither span kernel of the library."""
    gf = get_gf(q)
    out = []
    for coefficients in itertools.product(range(q), repeat=len(rows)):
        v = (0,) * n
        for c, row in zip(coefficients, rows):
            v = vec_add(gf, v, vec_scale(gf, c, row))
        out.append(vec_pack(q, v))
    return out


def reference_complement_vectors(s):
    """The combinations of s's complement_generators, taken as packed_vectors
    takes RREF rows, by reference_span."""
    (generators,) = complement_generators(s.q, s.n, s.pivots, zip(s.packed))
    return reference_span(s.q, s.n, [vec_unpack(s.q, s.n, g) for g in generators])


@pytest.mark.parametrize("q", sorted(COMPLEMENT_MAX_N))
def test_complement_vectors_equal_generator_reference(q):
    """Every subspace of F_q^n up to COMPLEMENT_MAX_N, dim 0 and dim n
    included: the same packed vectors in the same order."""
    for n in range(COMPLEMENT_MAX_N[q] + 1):
        for d in range(n + 1):
            for s in enumerate_grassmannian(q, n, d):
                got = complement_list(s)
                assert got == reference_complement_vectors(s), s
                assert len(got) == q ** (n - d)


@pytest.mark.parametrize("q", [3, 4, 5, 9])
def test_horner_span_of_arbitrary_rows(q):
    """_horner_span folds the unit columns of any rows into one table: row
    lists that are not RREF, with one unit column at several places, zero
    columns and unit columns that are no pivot, list what field arithmetic
    lists.  So do packed_vectors and complement_vectors of their spans,
    whose RREF rows and complement rows have such columns too."""
    rng = random.Random(4100 + q)
    seen = set()
    for k, n in itertools.product(range(1, 4), range(1, 6)):
        units = [tuple([int(i == c) for c in range(k)]) for i in range(k)]
        for _ in range(4):
            columns = [rng.choice(units + [(0,) * k, tuple(
                rng.randrange(q) for _ in range(k))]) for _ in range(n)]
            rows = list(zip(*columns))
            assert subspaces._horner_span(q, rows) == reference_span(q, n, rows)
            s = tuple_span(q, n, rows)
            if (0,) * k in columns:
                seen.add("zero column")
            if any(columns.count(e) > 1 for e in units):
                seen.add("repeated unit")
            if s.rows != tuple(rows):
                seen.add("non-RREF")
            assert packed_vectors(s) == reference_span(q, n, s.rows)
            if q ** (n - s.dim) <= 729:
                assert complement_list(s) == reference_complement_vectors(s)
    assert seen == {"zero column", "repeated unit", "non-RREF"}


@pytest.mark.parametrize("q", [3, 4, 9])
def test_span_tables_keyed_by_place(q):
    """The rows (1,0,1,1), (0,1,1,1) have the unit columns e_0 and e_1 at
    coordinates 0 and 1, which fold into one _unit_table, and repeat the
    column (1,1) at places 1 and 0; their complement rows (-1,-1,0,1),
    (-1,-1,1,0) repeat (-1,-1) at places 3 and 2.  Each place of a repeated
    column gets its own column table, and unit columns get none.  After
    both caches have turned over, the same subspace lists the same
    vectors."""
    s = Subspace(q, 4, (vec_pack(q, (1, 0, 1, 1)), vec_pack(q, (0, 1, 1, 1))),
                 (0, 1))
    expected = [vec_pack(q, v) for v in enumerate_vectors(s)]
    expected_complement = reference_complement_vectors(s)
    table, units = subspaces._column_table, subspaces._unit_table
    table.cache_clear()
    units.cache_clear()
    assert packed_vectors(s) == expected
    assert (table.cache_info().misses, units.cache_info().misses) == (2, 1)
    assert complement_list(s) == expected_complement
    assert (table.cache_info().misses, units.cache_info().misses) == (4, 2)
    for j in range(table.cache_parameters()["maxsize"] + 1):
        table(q, (1,), j)
    for j in range(units.cache_parameters()["maxsize"] + 1):
        units(q, (j,))
    for cache in (table, units):
        assert cache.cache_info().currsize == cache.cache_parameters()["maxsize"]
    assert packed_vectors(s) == expected
    assert complement_list(s) == expected_complement


@pytest.mark.parametrize("q,n", [(2, 25), (3, 16), (9, 8)])
def test_complement_vectors_budget(q, n):
    """Past MAX_VECTOR_ENUM vectors the complement raises before building
    anything."""
    assert q ** n > subspaces.MAX_VECTOR_ENUM
    start = time.perf_counter()
    with pytest.raises(BudgetError):
        complement_vectors(q, n, 0, [()], [()])
    assert time.perf_counter() - start < 0.5


def test_turan_scan_budget_is_the_block_complement():
    """A zero-dimensional block's complement is all of F_2^25: 2^25 vectors,
    past the budget, even though the one target has no generators."""
    design = SubspaceDesign.from_blocks([Subspace(2, 25, (), ())], q=2, n=25, k=0)
    start = time.perf_counter()
    with pytest.raises(BudgetError):
        verify_turan(design, 0, "scan")
    assert time.perf_counter() - start < 0.5
    assert verify_turan(design, 0, "expand").histogram == {1: 1}


# Largest ambient dimension per q for the enumeration order comparison.
ENUMERATION_MAX_N = {2: 7, 3: 4, 4: 4, 5: 4, 8: 4, 9: 4}


@pytest.mark.parametrize("row_chunk", [subspaces.ROW_CHUNK, 2])
@pytest.mark.parametrize("q", sorted(ENUMERATION_MAX_N))
def test_enumerate_grassmannian_equals_template_odometer(q, row_chunk,
                                                         monkeypatch):
    """Same rows and pivots in the same order as the template odometer, for
    every n and k; so are the products of the packed choices of every
    grassmannian_choices entry, and grassmannian_rows.  A row_chunk of 2
    splits nearly every first row."""
    monkeypatch.setattr(subspaces, "ROW_CHUNK", row_chunk)
    for n in range(ENUMERATION_MAX_N[q] + 1):
        for k in range(n + 1):
            expected = [(s.rows, s.pivots)
                        for s in reference_enumerate_grassmannian(q, n, k)]
            got = [(s.rows, s.pivots) for s in enumerate_grassmannian(q, n, k)]
            assert got == expected, (n, k)
            listed = []
            for pivots, packed in grassmannian_choices(q, n, k):
                assert all(len(choices) <= row_chunk for choices in packed[:1])
                listed += [(t, pivots) for t in itertools.product(*packed)]
            expected = [(s.packed, s.pivots)
                        for s in reference_enumerate_grassmannian(q, n, k)]
            assert listed == expected, (n, k)
            assert list(grassmannian_rows(q, n, k)) == [t for t, _ in expected]


@pytest.mark.parametrize("q", [5, 7])
def test_a_column_past_row_chunk_splits_into_runs(q, monkeypatch):
    """With ROW_CHUNK = 4 < q the last fixed column of a split first row
    takes its q values in runs of at most 4, in odometer order: the
    entries' products and grassmannian_rows equal the unsplit enumeration
    for every n <= 4 and k, each first row lists at most 4 choices, and a
    pivot set with f free first-row columns takes q^(f-1) * ceil(q / 4)
    entries, one per run."""
    unsplit = {(n, k): list(grassmannian_rows(q, n, k))
               for n in range(5) for k in range(n + 1)}
    monkeypatch.setattr(subspaces, "ROW_CHUNK", 4)
    for (n, k), expected in unsplit.items():
        entries = list(grassmannian_choices(q, n, k))
        assert [t for _, packed in entries
                for t in itertools.product(*packed)] == expected, (n, k)
        assert list(grassmannian_rows(q, n, k)) == expected, (n, k)
        assert all(len(packed[0]) <= 4 for _, packed in entries if packed)
        for pivots, count in Counter(pivots for pivots, _ in entries).items():
            free = n - k - pivots[0] if pivots else 0
            assert count == (q ** (free - 1) * -(-q // 4) if free else 1)


def test_point_scan_of_a_field_past_row_chunk_takes_runs():
    """At q = 65521 > ROW_CHUNK the one free column of the points of F_q^2
    with pivot 0 comes in runs of ROW_CHUNK values, at most
    ceil(65521 / ROW_CHUNK) entries, not one entry per value; the scan of
    a seeded point design equals expand, witnesses included."""
    q = 65521
    first = [packed for pivots, packed in grassmannian_choices(q, 2, 1)
             if pivots == (0,)]
    assert len(first) <= -(-q // subspaces.ROW_CHUNK)
    assert list(itertools.chain.from_iterable(p[0] for p in first)) == \
        list(range(q, 2 * q))
    rng = random.Random(96)
    rows = {(1,)} | {(q + rng.randrange(q),) for _ in range(3)}
    design = SubspaceDesign.from_rows(q, 2, 1, sorted(rows))
    scan = verify_covering(design, 1, "scan")
    assert scan == verify_covering(design, 1, "expand")
    assert scan.histogram == {0: q + 1 - len(rows), 1: len(rows)}


def test_witnesses_in_a_large_ambient_space():
    """The first uncovered points of F_2^20 come from the first part of a
    split first row, and match the template odometer's."""
    pivots, packed = next(grassmannian_choices(2, 20, 1))
    assert pivots == (0,) and len(packed[0]) == subspaces.ROW_CHUNK
    design = SubspaceDesign.from_blocks(
        [tuple_span(2, 20, [[1] + [0] * 19, [0] * 19 + [1]])], q=2, n=20, k=2)
    covered = set(reference_subspaces_of(design.blocks[0], 1))
    expected = tuple(itertools.islice(
        (t for t in reference_enumerate_grassmannian(2, 20, 1)
         if t not in covered), WITNESS_CAP))
    assert verify_covering(design, 1, "expand").witnesses == expected


@pytest.mark.parametrize("q,n,k,missed", [(2, 6, 3, (1200, 1390)),
                                          (3, 5, 2, (1100,))])
def test_turan_witnesses_after_many_covered_targets(q, n, k, missed):
    """The points outside some k-subspaces lie in every other k-subspace, as
    a k-subspace inside a union of k-subspaces is one of them.  With the
    missed targets late in enumeration order, the witness walk passes over
    more than 1000 covered targets before the first one."""
    targets = list(enumerate_grassmannian(q, n, k))
    inside = {p for i in missed for p in subspaces_of(targets[i], 1)}
    points = [p for p in enumerate_grassmannian(q, n, 1) if p not in inside]
    design = SubspaceDesign.from_blocks(points, q=q, n=n, k=1)
    expected = oracle_turan(design, k)
    assert expected.witnesses == tuple(targets[i] for i in missed)
    assert expected.histogram[0] == len(missed) and missed[0] >= 1000
    for strategy in ("expand", "scan"):
        assert verify_turan(design, k, strategy) == expected, strategy


@pytest.mark.parametrize("q,n,k", [(2, 6, 3), (3, 4, 1)])
def test_scans_build_a_subspace_only_for_a_witness(q, n, k, monkeypatch):
    """Both scans count on packed rows and test each walked target on its
    masks, so with more uncovered targets than WITNESS_CAP each builds
    exactly WITNESS_CAP subspaces, its witnesses."""
    design = sampled_blocks(q, n, k, 2, 11)
    built = []

    def counted(*args):
        built.append(Subspace(*args))
        return built[-1]
    monkeypatch.setattr(designs, "Subspace", counted)
    censuses = [(verify_covering, r) for r in range(1, k + 1)]
    censuses += [(verify_turan, t) for t in range(k, n)]
    for census, dim in censuses:
        built.clear()
        report = census(design, dim, "scan")
        assert report.histogram[0] > WITNESS_CAP, (census, dim)
        assert built == list(report.witnesses), (census, dim)
        assert len(built) == WITNESS_CAP


# orbit census -----------------------------------------------------------------

# The images of e_0..e_(n-1), packed with e_i at bit n - 1 - i.
# Multiplication by x in GF(128) = F_2[x]/(x^7 + x + 1), a Singer cycle of
# F_2^7: e_i -> e_(i+1), and x^7 = x + 1.
SINGER_128 = [1 << (5 - i) for i in range(6)] + [0b1100000]
# The cyclic shift of the 7 coordinates: many small orbits and stabilisers.
SHIFT_7 = [1 << (6 - (i + 1) % 7) for i in range(7)]
# Singer cycles of F_2^3 (x^3 + x + 1) and F_2^2 (x^2 + x + 1) side by side
# on F_2^5, of order 21: vector orbits of 7 and 3 below the order, so a label
# must try every element that sends an anchor to its representative.
SUM_7_3 = [0b01000, 0b00100, 0b11000, 0b00001, 0b00011]


def actions():
    return {"singer128": GroupAction(7, SINGER_128), "gf64": gf64_orbits()[0],
            "shift7": GroupAction(7, SHIFT_7), "sum7x3": GroupAction(5, SUM_7_3)}


def expand_orbits(action, bases):
    """The design of every image of every block of the base design, by
    brute force over the whole group."""
    blocks = [span(2, action.n, action.image(packed_vectors(b), m))
              for b in bases.blocks for m in range(action.order)]
    return SubspaceDesign.from_blocks(blocks, q=2, n=action.n, k=bases.k)


def random_orbit_bases(rng, action, k, count):
    """The design of up to count random k-subspaces of F_2^n from different
    orbits, in at most 200 draws (F_2^5 has only 3 orbits of hyperplanes
    under SUM_7_3)."""
    bases, labels = [], set()
    for _ in range(200):
        if len(bases) == count:
            break
        block = span(2, action.n, [rng.randrange(1, 1 << action.n)
                                   for _ in range(k)])
        label = action.orbit(packed_vectors(block))[0]
        if block.dim == k and label not in labels:
            labels.add(label)
            bases.append(block)
    return SubspaceDesign.from_blocks(bases, q=2, n=action.n, k=k)


def image_walk(action, base):
    """span of the images of the base's vectors under g^1, g^2, ... up to
    the base: its orbit, the base last."""
    vectors = packed_vectors(base)
    walk = [span(2, action.n, action.image(vectors, 1))]
    while walk[-1] != base:
        walk.append(span(2, action.n, action.image(vectors, len(walk) + 1)))
    return walk


def test_orbit_blocks_equal_image_walk():
    """GroupAction.orbit_blocks against image_walk, on every action and
    base designs of dimension 1..4: the same packed rows, a k-tuple per
    block, with the same pivots, in the same order, for as many blocks as
    the orbit's size, for a design of one base and for a design of up to
    three in one call, base after base in the design's order.  The zero
    block is its own orbit, one block with no rows, a design of no block
    has none, and a design outside F_2^n is refused."""
    rng = random.Random(20261020)
    for name, action in actions().items():
        for k in range(1, 5):
            bases = random_orbit_bases(rng, action, k, 3)
            walks = []
            for base in bases.blocks:
                walk = image_walk(action, base)
                blocks = action.orbit_blocks(SubspaceDesign.from_blocks([base]))
                assert blocks == [b.packed for b in walk], (name, base)
                assert [tuple(subspaces._pivot_reader(2, action.n)(rows))
                        for rows in blocks] == [b.pivots for b in walk]
                assert len(blocks) == action.orbit(packed_vectors(base))[1]
                walks += walk
            assert action.orbit_blocks(bases) == [
                b.packed for b in walks], (name, k)
        n = action.n
        assert action.orbit_blocks(SubspaceDesign.from_rows(2, n, 0, [()])) == [()]
        assert action.orbit_blocks(SubspaceDesign.from_rows(2, n, 1, [])) == []
        for q, m in [(2, n + 1), (3, n)]:
            with pytest.raises(AmbientMismatch,
                               match=f"base blocks in F_{q}\\^{m} under"):
                action.orbit_blocks(SubspaceDesign.from_rows(q, m, 0, [()]))


def column_power_order(n, columns):
    """The least m >= 1 with g^m = I, without GroupAction's tables: the
    columns of g^m are g^m(e_i), raised once more by g per step until they
    are the unit vectors again."""
    units = tuple([1 << (n - 1 - i) for i in range(n)])
    image = [apply_columns(columns, v) for v in range(1 << n)]
    powers, order = tuple(columns), 1
    while powers != units:
        powers = tuple([image[c] for c in powers])
        order += 1
    return order


def test_group_action_order_is_the_least_power_returning_to_the_identity():
    """GroupAction.order, the lcm of its cycle lengths, against
    column_power_order on all 168 maps of GL(3,2), whose element orders are
    1, 2, 3, 4 and 7, and on 40 seeded random invertible maps each of
    F_2^4, F_2^5 and F_2^6; every cycle's length divides the order."""
    gl3 = [(3, cols) for cols in itertools.product(range(1, 8), repeat=3)
           if span(2, 3, cols).dim == 3]
    assert len(gl3) == 168
    rng = random.Random("group-orders")
    maps = list(gl3)
    for n in (4, 5, 6):
        drawn = 0
        while drawn < 40:
            cols = tuple(rng.randrange(1, 1 << n) for _ in range(n))
            if span(2, n, cols).dim == n:
                maps.append((n, cols))
                drawn += 1
    orders = {}
    for n, cols in maps:
        action = GroupAction(n, cols)
        assert action.order == column_power_order(n, cols), (n, cols)
        lengths = set(map(len, action.cycles.values()))
        assert {action.order % length for length in lengths} == {0}
        assert set(action.size) == lengths
        orders.setdefault(n, set()).add(action.order)
    assert orders[3] == {1, 2, 3, 4, 7}
    assert all(len(orders[n]) > 3 for n in (4, 5, 6))


def test_group_action_orders_and_orbits_equal_brute_force():
    """Order, orbit sizes and labels against the whole group, on single
    vectors and random vector sets."""
    rng = random.Random(20261018)
    orders = {"singer128": 127, "gf64": 63, "shift7": 7, "sum7x3": 21}
    for name, action in actions().items():
        assert action.order == orders[name]
        for _ in range(60):
            vectors = {rng.randrange(1 << action.n)
                       for _ in range(rng.randint(1, 6))}
            orbit = {tuple(sorted(action.image(vectors, m)))
                     for m in range(action.order)}
            label, size = action.orbit(vectors)
            assert size == len(orbit)
            labels = {action.orbit(image)[0] for image in orbit}
            assert labels == {label} and labels <= orbit


def apply_columns(columns, v):
    """g(v) for the linear map with these column images: the XOR of the
    columns at v's nonzero coordinates, coordinate i at bit n - 1 - i,
    without GroupAction's tables."""
    out = 0
    for i, column in enumerate(columns):
        if v >> (len(columns) - 1 - i) & 1:
            out ^= column
    return out


def brute_force_orbit(columns, order, vectors):
    """Every distinct sorted image of the set under g^m, m in 0..order-1,
    with g applied column by column; g^order must fix the set."""
    images, image = set(), sorted(set(vectors))
    for _ in range(order):
        images.add(tuple(image))
        image = sorted(apply_columns(columns, v) for v in image)
    assert tuple(image) == tuple(sorted(set(vectors)))
    return images


def test_group_action_orbit_equals_brute_force_with_stabilisers():
    """GroupAction.orbit against the brute-force orbit under the gf64 Singer
    action, its subgroups generated by g^3, g^7 and g^9, the shift and
    SUM_7_3 (vector orbits below the order): the size is the orbit's
    length, every image gets the set's label, and different orbits get
    different labels.  The sets on F_2^7 include the gf64 bases, among them
    the diagonal block (an orbit of 21 under gf64), and {0, GF64_BIT}
    (fixed by the Singer action); on every space they include every single
    vector and unions of 1-3 vector orbits, so many have nontrivial
    stabilisers."""
    singer, bases, _ = gf64_orbits()
    units = [1 << (6 - i) for i in range(7)]
    columns = {"gf64": singer.image(units, 1), "shift7": SHIFT_7,
               "sum7x3": SUM_7_3}
    for d in (3, 7, 9):
        columns[f"gf64^{d}"] = singer.image(units, d)
    groups = {name: GroupAction(len(cols), cols)
              for name, cols in columns.items()}
    orders = {"gf64": 63, "gf64^3": 21, "gf64^7": 9, "gf64^9": 7,
              "shift7": 7, "sum7x3": 21}
    assert {name: g.order for name, g in groups.items()} == orders
    rng = random.Random("orbit-stabilisers")
    sizes = {}
    for name, action in groups.items():
        n = action.n
        sets = []
        if n == 7:
            base_lists = [packed_vectors(base) for base in bases.blocks]
            (diagonal,) = [v for v in base_lists if constructions.GF64_BIT in v]
            sets = [diagonal, [0, constructions.GF64_BIT]] + base_lists
        sources = [other for other in groups if groups[other].n == n]
        for _ in range(40):
            source = rng.choice(sources)
            union = set()
            for v in rng.sample(range(1 << n), rng.randint(1, 3)):
                union.update(image[0] for image in brute_force_orbit(
                    columns[source], orders[source], [v]))
            sets.append(sorted(union))
        sets += [rng.sample(range(1 << n), rng.randint(1, 6)) for _ in range(20)]
        sets += [[v] for v in range(1 << n)]  # every vector orbit
        orbit_of = {}  # label -> the orbit it names
        for vectors in sets:
            label, size = action.orbit(vectors)
            orbit = brute_force_orbit(columns[name], action.order, vectors)
            assert size == len(orbit) and label in orbit
            for image in orbit:
                assert action.orbit(image) == (label, size)
            assert orbit_of.setdefault(label, orbit) == orbit
            sizes.setdefault(name, []).append(size)
        assert len(orbit_of) > 20
        # every stabiliser order occurs
        order = orders[name]
        assert set(sizes[name]) == {d for d in range(1, order + 1)
                                    if order % d == 0}
    on_f7 = [name for name in orders if name != "sum7x3"]
    assert [sizes[name][0] for name in on_f7] == [21, 7, 3, 7, 7]
    assert [sizes[name][1] for name in on_f7] == [1, 1, 1, 1, 7]


def test_orbits_equal_orbit_and_brute_force():
    """GroupAction.orbits, many sets in one call, against orbit of each set
    and the brute-force orbit, on every action of this module and the
    gf64 subgroups: sets with fixed points (0, and GF64_BIT or the
    all-ones vector under the shift), sets inside orbits shorter than the
    order (SUM_7_3's orbits of 7 and 3, the shift's of 7 under g^9 ...),
    random sets and the r-subspaces of the gf64 bases, as verify_orbits
    lists them.  The sizes are the brute-force orbit's, and the labels
    the brute-force reference_label."""
    singer, bases, _ = gf64_orbits()
    units = [1 << (6 - i) for i in range(7)]
    columns = {"gf64": singer.image(units, 1), "singer128": SINGER_128,
               "shift7": SHIFT_7, "sum7x3": SUM_7_3}
    for d in (3, 7, 9):
        columns[f"gf64^{d}"] = singer.image(units, d)
    rng = random.Random("orbits-batch")
    for name, cols in columns.items():
        action = GroupAction(len(cols), cols)
        n = action.n
        sets = [[0], [0, (1 << n) - 1], [(1 << n) - 1]]
        if n == 7:
            sets += [[0, constructions.GF64_BIT]]
            sets += [packed_vectors(b) for b in bases.blocks]
            sets += [list(t) for t in subspaces._xor_chunk(list(
                subspaces._local_rows(2, 3, 2)(map(packed_vectors, bases.blocks))),
                2)]
        else:  # inside the orbits of 7 and of 3 of SUM_7_3
            sets += [[0b01000, 0b10000], [0b00001, 0b00010, 0b00011],
                     [0b00100, 0b01100, 0b00001]]
        sets += [sorted(set(rng.sample(range(1 << n), rng.randint(1, 9))))
                 for _ in range(60)]
        labels = action.orbits(sets)
        assert labels == [action.orbit(vectors) for vectors in sets], name
        for vectors, (label, size) in zip(sets, labels):
            orbit = brute_force_orbit(cols, action.order, vectors)
            assert size == len(orbit), (name, vectors)
            assert label == reference_label(cols, action.order, vectors)
        assert action.orbits([]) == []


def reference_label(columns, order, vectors):
    """The label orbit gives, by brute force: of the images of the set
    that hold the representative (least vector) of its largest vector
    orbit, least representative on ties, the least."""
    vector_orbits = [{image[0] for image in brute_force_orbit(
        columns, order, [v])} for v in vectors]
    head = min(max(vector_orbits, key=lambda o: (len(o), -min(o))))
    return min(image for image in brute_force_orbit(columns, order, vectors)
               if head in image)


def test_orbit_census_with_a_fixed_block():
    """The cyclic [7,3] code spanned by the shifts of 1 + x^2 + x^3 + x^4 is
    fixed by the shift: an orbit of one block, whose 2-subspaces lie in
    orbits of 7."""
    shift = GroupAction(7, SHIFT_7)
    code = span(2, 7, [shift.image([0b1011100], m)[0] for m in range(7)])
    code_label, code_size = shift.orbit(packed_vectors(code))
    assert code.dim == 3 and code_size == 1
    rng = random.Random(7)
    for other in random_orbit_bases(rng, shift, 3, 6).blocks:
        if shift.orbit(packed_vectors(other))[0] == code_label:
            continue
        bases = SubspaceDesign.from_blocks([code, other])
        design = expand_orbits(shift, bases)
        for r in range(4):
            count, report = verify_orbits(shift, bases, r)
            assert count == len(design)
            assert report == verify_covering(design, r, "expand")
            assert report == verify_covering(design, r, "scan")


@pytest.mark.parametrize("r", [1, 2, 3])
def test_gf64_orbit_census_equals_expand_and_scan(r):
    singer, bases, _ = gf64_orbits()
    design = gf64_covering_design()
    count, report = verify_orbits(singer, bases, r)
    assert count == len(design) == 399
    assert report == verify_covering(design, r, "expand")
    assert report == verify_covering(design, r, "scan")
    assert (report.witnesses != ()) == (r == 3)


@pytest.mark.parametrize("name, designs", [("singer128", 30), ("gf64", 12),
                                           ("shift7", 12), ("sum7x3", 12)])
def test_orbit_census_equals_expand_and_scan_on_random_designs(name, designs):
    """Unions of 1-4 orbits of random k-subspaces of F_2^n, every r <= k."""
    action = actions()[name]
    rng = random.Random(f"orbits-{name}")
    verdicts = set()
    for _ in range(designs):
        k = rng.choice([2, 3, 4])
        bases = random_orbit_bases(rng, action, k, rng.randint(1, 4))
        design = expand_orbits(action, bases)
        for r in range(k + 1):
            count, report = verify_orbits(action, bases, r)
            assert count == len(design)
            assert report == verify_covering(design, r, "expand")
            assert report == verify_covering(design, r, "scan")
            verdicts.add(report.is_covering)
    assert verdicts == {True, False}


def test_orbit_path_reads_a_streamed_base_listing_once(monkeypatch):
    """A design past XOR_CHUNK vectors keeps no vector_lists: each read
    lists its blocks again, as a stream that can be read once.  With the
    design's XOR_CHUNK at 2 every base design here streams, and with the
    lister's at 8 its blocks go in several chunks.  verify_orbits, at every
    r, and orbit_blocks must still equal expand and scan of the expanded
    design and the image walk, and each lists the bases once."""
    rng = random.Random("streamed-bases")
    cases = []
    for name, action in actions().items():
        for k in (2, 3):
            bases = random_orbit_bases(rng, action, k, rng.randint(2, 4))
            walk = [b.packed for base in bases.blocks
                    for b in image_walk(action, base)]
            cases.append((action, bases, expand_orbits(action, bases), walk))
    monkeypatch.setattr(designs, "XOR_CHUNK", 2)
    monkeypatch.setattr(subspaces, "XOR_CHUNK", 8)
    calls = []
    lister = designs.span_vector_lists

    def counted(q, n, k, row_lists):
        calls.append(k)
        return lister(q, n, k, row_lists)
    monkeypatch.setattr(designs, "span_vector_lists", counted)
    for action, bases, design, walk in cases:
        k = bases.k
        streamed = SubspaceDesign.from_rows(2, action.n, k, bases.packed)
        for r in range(k + 1):
            calls.clear()
            count, report = verify_orbits(action, streamed, r)
            assert calls == [k]
            assert count == len(design)
            assert report == verify_covering(design, r, "expand")
            assert report == verify_covering(design, r, "scan")
        calls.clear()
        assert action.orbit_blocks(streamed) == walk
        assert calls == [k]
        assert "vector_lists" not in vars(streamed)


def test_orbit_census_rejects_bad_input():
    """Two distinct bases in one orbit are refused, named by their places
    in the base design's order; a base given twice is one block of the
    design, so its orbit counts once."""
    singer, bases, _ = gf64_orbits()
    shifted = span(2, 7, singer.image(packed_vectors(bases.blocks[0]), 5))
    with pytest.raises(ValueError, match="base blocks 0 and 5 lie in one orbit"):
        verify_orbits(singer, SubspaceDesign.from_blocks(
            bases.blocks + (shifted,)), 2)
    twice = SubspaceDesign.from_blocks(bases.blocks * 2)
    assert twice == bases
    assert verify_orbits(singer, twice, 2) == verify_orbits(singer, bases, 2)
    with pytest.raises(ValueError, match="rank 2 < 3: not invertible"):
        GroupAction(3, [0b001, 0b010, 0b011])
    with pytest.raises(ValueError, match="need 3 column images"):
        GroupAction(3, [0b001, 0b010])
    with pytest.raises(ValueError, match="at least one base"):
        verify_orbits(singer, SubspaceDesign.from_rows(2, 7, 3, []), 2)
    with pytest.raises(ValueError, match="need 0 <= r <= k"):
        verify_orbits(singer, bases, 4)


def test_orbit_census_runs_once_per_call_without_expand(monkeypatch):
    """construct and bound_table each run one orbit census per call, no
    expand census, and bound_table builds none of the 399 blocks."""
    calls = []

    def counted(*args):
        calls.append(args[2])
        return verify_orbits(*args)

    def refused(*args, **kwargs):
        raise AssertionError("no census of the 399 blocks")
    monkeypatch.setattr(constructions, "verify_orbits", counted)
    monkeypatch.setattr(constructions, "verify_covering", refused)
    for _ in range(2):
        assert len(gf64_covering_design()) == 399
    assert calls == [2, 2]
    monkeypatch.setattr(constructions, "gf64_covering_design", refused)
    for _ in range(2):
        assert bound_table(2, 7)[(7, 3, 2)].upper == 399
    assert calls == [2, 2, 2, 2]


def test_bound_table_raises_on_bad_gf64_input(monkeypatch):
    """The checks of gf64_covering_design, under the patches of
    test_gf64_unclosed_block_raises and test_gf64_bad_line_pattern_raises,
    guard bound_table's gf64 upper bound too."""
    def raises(message, error=ConstructionError):
        with pytest.raises(error, match=message):
            bound_table(2, 7)
        with pytest.raises(error, match=message):
            gf64_covering_design()
    with monkeypatch.context() as patch:
        patch.setattr(constructions, "GF64_QUADS",
                      ((0, 1, 1, 16),) + GF64_QUADS[1:])
        raises("difference set")
        patch.setattr(constructions, "_check_gf64_quads", lambda gf64: None)
        raises("not closed under addition")
        patch.setattr(constructions, "GF64_QUADS",
                      ((0, 1, 4, 17),) + GF64_QUADS[1:])
        raises("spans dim 4, not 3")
        # one quadruple twice, in place of the second: the base design
        # holds it once, so its six orbits hold 5 * 63 + 21 blocks.  The
        # shipped constants never do this; only patching GF64_QUADS
        # reaches it.
        patch.setattr(constructions, "GF64_QUADS",
                      GF64_QUADS[:1] * 2 + GF64_QUADS[2:])
        raises("gf64 block count 336 != 399")
    for exponents, message in [((0, 1, 2), "not closed under addition"),
                               ((0, 9, 18, 27, 36, 45, 54),
                                "gf64 block count 345 != 399")]:
        with monkeypatch.context() as patch:
            patch.setattr(constructions, "GF64_LINE_EXPONENTS", exponents)
            raises(message)


def test_single_superspace_dimensions_list_no_complement():
    """k = dim and k = n have one superspace each, s and F_q^n, whose key is
    read without listing s-perp: 2^39 vectors in F_2^40 and 2^29 in F_2^30,
    past the budget.  In F_2^5, where s-perp could be listed and kept, the
    design's complement_lists are never built for either k."""
    point = SubspaceDesign.from_blocks([Subspace(2, 40, (1 << 39,), (0,))])
    calls = [
        (lambda: list(superspaces_containing(point, 1)),
         [tuple(1 << (39 - c) for c in range(39, 0, -1))]),
        (lambda: list(superspaces_containing(point, 40)), [()]),
        (lambda: verify_turan(SubspaceDesign.from_blocks(
            [Subspace(2, 30, (1 << 29,), (0,))], q=2, n=30, k=1),
            30, "expand").histogram, {1: 1}),
    ]
    for call, expected in calls:
        start = time.perf_counter()
        assert call() == expected
        assert time.perf_counter() - start < 0.01
    small = SubspaceDesign.from_blocks([tuple_span(2, 5, [(1, 1, 0, 0, 0)]),
                                        tuple_span(2, 5, [(0, 0, 1, 0, 1)])])
    for k in (1, 5):
        assert len(list(superspaces_containing(small, k))) == 2
        assert verify_turan(small, k).total == gaussian(5, k, 2)
        assert "complement_lists" not in vars(small), k
