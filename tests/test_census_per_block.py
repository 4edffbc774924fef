"""Differential tests of the censuses against a per-block loop.

Both expand censuses count every block's keys in one pass: the _local_rows
reader reads them off the vector lists that span_vector_lists (covering)
or complement_vectors (Turan) builds for the whole design, for q = 2 a
chunk of XOR_CHUNK >> dim lists at a time, column-wise when the chunk holds
2^dim lists or more.  The reference here is the loop that pass replaced:
block by block, its packed_vectors (covering) or the complement_vectors of
the one-block list (Turan) read at local_row_indices into a Counter, with
the witnesses the first uncovered targets of enumerate_grassmannian.  Every
report of both strategies of both censuses must equal the reference's,
field by field, witnesses included.
"""

import dataclasses
import itertools
import random
from collections import Counter

import pytest

from qcover import subspaces
from qcover.bounds import gaussian
from qcover.designs import (WITNESS_CAP, CoverageReport, SubspaceDesign,
                            verify_covering, verify_turan)
from qcover.fields import vec_pack
from qcover.subspaces import (complement_generators, complement_vectors,
                              enumerate_grassmannian, local_row_indices,
                              packed_vectors)

from vector_reference import full_space, tuple_span

# Largest ambient dimension per q; every 0 <= r <= k <= n up to it.
MAX_N = {2: 6, 3: 6, 4: 6}
# Largest census checked there: the 3-subspaces of F_4^6, 1 082 565 of them,
# would take most of the suite's time, and only they pass it.
MAX_TARGETS = 10 ** 5


def covering_key(t):
    """The covering censuses' key: t's packed RREF rows."""
    return tuple([vec_pack(t.q, row) for row in t.rows])


def turan_key(t):
    """The Turan censuses' key: t's packed complement generators."""
    (key,) = complement_generators(t.q, t.n, t.pivots, zip(t.packed))
    return key


def per_block_counts(design, dim, turan):
    """Multiplicity of every covered target, counted one block at a time."""
    q, n, d = design.q, design.n, design.k
    counts = Counter()
    for block in design.blocks:
        if not turan:
            vectors, local = packed_vectors(block), local_row_indices(q, d, dim)
        elif d < dim < n:
            (vectors,) = complement_vectors(q, n, d, [block.packed],
                                            [block.pivots])
            local = local_row_indices(q, n - d, n - dim)
        else:  # one superspace: the block itself or F_q^n
            counts[turan_key(block if dim == d else full_space(q, n))] += 1
            continue
        counts.update(tuple([vectors[i] for i in rows]) for rows in local)
    return counts


def per_block_report(design, dim, turan):
    q, n = design.q, design.n
    counts = per_block_counts(design, dim, turan)
    total = gaussian(n, dim, q)
    histogram = Counter(counts.values())
    witnesses = ()
    if total > len(counts):
        histogram[0] = total - len(counts)
        key = turan_key if turan else covering_key
        witnesses = tuple(itertools.islice(
            (t for t in enumerate_grassmannian(q, n, dim) if key(t) not in counts),
            WITNESS_CAP))
    return CoverageReport(total, dict(sorted(histogram.items())),
                          min(histogram), max(histogram), witnesses)


def assert_all_reports_equal_reference(design):
    """Covering at every r <= k and Turan at every k <= dim <= n, each with
    at most MAX_TARGETS targets, expand and scan, each field against the
    per-block reference."""
    censuses = [(verify_covering, r, False) for r in range(design.k + 1)]
    censuses += [(verify_turan, dim, True) for dim in range(design.k, design.n + 1)]
    for verify, dim, turan in censuses:
        if gaussian(design.n, dim, design.q) > MAX_TARGETS:
            continue
        expected = per_block_report(design, dim, turan)
        for strategy in ("expand", "scan"):
            report = verify(design, dim, strategy)
            for field in dataclasses.fields(CoverageReport):
                assert getattr(report, field.name) == getattr(expected, field.name), (
                    design.q, design.n, design.k, len(design), verify.__name__,
                    dim, strategy, field.name)


def random_blocks(rng, q, n, k, count):
    """count distinct random k-subspaces of F_q^n, or all of them if fewer."""
    if gaussian(n, k, q) <= count:
        return list(enumerate_grassmannian(q, n, k))
    blocks = set()
    while len(blocks) < count:
        block = tuple_span(q, n, [[rng.randrange(q) for _ in range(n)] for _ in range(k)])
        if block.dim == k:
            blocks.add(block)
    return list(blocks)


@pytest.mark.parametrize("q,n", [(q, n) for q in sorted(MAX_N)
                                 for n in range(MAX_N[q] + 1)])
def test_expand_equals_per_block_loop(q, n):
    """Every k <= n: no blocks, one block, and a few blocks (more for q = 2,
    where blocks with one pivot set are common and many are not)."""
    rng = random.Random(q * 100 + n)
    for k in range(n + 1):
        blocks = random_blocks(rng, q, n, k, 12 if q == 2 else 5)
        for chosen in ([], blocks[:1], blocks):
            assert_all_reports_equal_reference(
                SubspaceDesign.from_blocks(chosen, q=q, n=n, k=k))


@pytest.mark.parametrize("n", [11, 12])
def test_expand_equals_per_block_loop_past_bit_tables(n):
    """Past DIGIT_TABLE_MAX vectors q = 2 rows are packed by vec_pack and
    unpacked by vec_unpack, without the cached tables.  Covering at r <= 1
    and Turan at n - 1 and n keep the censuses small."""
    assert 2 ** n > subspaces.DIGIT_TABLE_MAX
    rng = random.Random(n)
    for k in (0, 2, n - 2):
        design = SubspaceDesign.from_blocks(random_blocks(rng, 2, n, k, 6),
                                            q=2, n=n, k=k)
        for verify, dim, turan in [(verify_covering, 0, False),
                                   (verify_covering, 1, False),
                                   (verify_turan, n - 1, True),
                                   (verify_turan, n, True)]:
            if dim > design.k and not turan:
                continue
            expected = per_block_report(design, dim, turan)
            for strategy in ("expand", "scan"):
                assert verify(design, dim, strategy) == expected, (
                    k, verify.__name__, dim, strategy)


def spanned_one_by_one(monkeypatch):
    """Patches subspaces._xor_span to count its calls: the q = 2 chunks
    spanned block by block call it once per block, column-wise ones never."""
    calls = []
    xor_span = subspaces._xor_span

    def counted(rows):
        calls.append(len(rows))
        return xor_span(rows)
    monkeypatch.setattr(subspaces, "_xor_span", counted)
    return calls


def test_expand_equals_per_block_loop_over_several_chunks(monkeypatch):
    """With XOR_CHUNK at 32, chunks hold 8 lists of dimension 2: a 19-block
    design of F_2^6 has its dimension-2 lists spanned column-wise in two
    chunks of 8 and list by list in a last chunk of 3, fewer than 2^2.  For
    k = 2 those are the blocks' packed vectors, which the covering censuses
    read; for k = 4 they are the complements' vectors, which both Turan
    censuses read.  The reports must not change at the seams."""
    monkeypatch.setattr(subspaces, "XOR_CHUNK", 32)
    calls = spanned_one_by_one(monkeypatch)
    listers = [
        (2, lambda rows, pivots: subspaces.span_vector_lists(2, 6, 2, rows)),
        (4, lambda rows, pivots: complement_vectors(2, 6, 4, rows, pivots))]
    for k, lists in listers:
        design = SubspaceDesign.from_blocks(
            random_blocks(random.Random(9), 2, 6, k, 19), q=2, n=6, k=k)
        expected = [list(vectors)
                    for rows, pivots in zip(design.packed, design.pivots)
                    for vectors in lists([rows], [pivots])]
        calls.clear()
        assert list(map(list, lists(design.packed, design.pivots))) == expected
        assert calls == [2, 2, 2]
        assert_all_reports_equal_reference(design)


def test_few_long_blocks_are_spanned_one_by_one(monkeypatch):
    """Fewer q = 2 blocks than each has vectors are spanned one at a time,
    holding one list per block, as packed_vectors does: here 3 blocks of
    F_2^12 of dimension 10, whose 3 * 2^10 vectors the design keeps, so
    its two censuses span them once.  399 blocks of dimension 3 go
    column-wise."""
    rng = random.Random(12)
    few = SubspaceDesign.from_blocks(random_blocks(rng, 2, 12, 10, 3),
                                     q=2, n=12, k=10)
    many = SubspaceDesign.from_blocks(random_blocks(rng, 2, 6, 3, 399),
                                      q=2, n=6, k=3)
    expected = [per_block_report(design, r, False)
                for design, r in [(few, 0), (few, 1), (many, 2)]]
    calls = spanned_one_by_one(monkeypatch)
    assert [verify_covering(few, 0), verify_covering(few, 1)] == expected[:2]
    assert calls == [10] * 3
    calls.clear()
    assert verify_covering(many, 2) == expected[2]
    assert calls == []


def test_turan_expand_reads_the_whole_design_in_one_pass(monkeypatch):
    """For dim < k < n the Turan expand hands every block's complement list
    to one call of one _local_rows reader, as the covering expand does with
    the blocks' own lists."""
    calls = []
    local_rows = subspaces._local_rows

    def counted(q, k, r):
        read = local_rows(q, k, r)

        def rows_of(vector_lists):
            calls.append((q, k, r))
            return read(vector_lists)
        return rows_of
    monkeypatch.setattr(subspaces, "_local_rows", counted)
    for q in (2, 3):
        design = SubspaceDesign.from_blocks(
            random_blocks(random.Random(q), q, 5, 2, 20), q=q, n=5, k=2)
        calls.clear()
        assert verify_turan(design, 3) == per_block_report(design, 3, True)
        assert calls == [(q, 3, 2)]
