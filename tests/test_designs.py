import gc
import os
import random
import re
import subprocess
import sys

import pytest

from qcover import cli, designs, subspaces
from qcover.bounds import basic_lower, gaussian
from qcover.designs import (DESIGN_MAGIC, CoverageReport, FormatError, SetSystem,
                            SubspaceDesign,
                            design_from_text, design_to_text, dualize,
                            point_indexing, to_point_set_system,
                            verify_covering, verify_orbits,
                            verify_steiner_system, verify_turan)
from qcover.constructions import (gf64_covering_design, spread, trivial_steiner,
                                  turan_point_design)
from qcover.fields import FieldError, get_gf, vec_pack, vec_unpack
from qcover.subspaces import (AmbientMismatch, BudgetError, GroupAction,
                              Subspace, enumerate_grassmannian,
                              grassmannian_rows, local_row_indices, span)

from vector_reference import full_space, tuple_span


def random_design(rng, q, n, k, size):
    blocks = []
    while len(blocks) < size:
        vecs = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(k)]
        s = tuple_span(q, n, vecs)
        if s.dim == k and s not in blocks:
            blocks.append(s)
    return SubspaceDesign.from_blocks(blocks, q=q, n=n, k=k)


def corpus():
    rng = random.Random(99)
    designs = [
        trivial_steiner(2, 4, 2),
        spread(2, 2, 4),
        turan_point_design(2, 4, 3, verify=False),
        random_design(rng, 2, 5, 3, 12),
        random_design(rng, 2, 5, 2, 9),
        random_design(rng, 3, 4, 2, 6),
    ]
    return designs


def test_design_dedup_and_mismatch():
    b = tuple_span(2, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    d = SubspaceDesign.from_blocks([b, b, tuple_span(2, 4, b.rows)])
    assert len(d.blocks) == 1
    with pytest.raises(Exception):
        SubspaceDesign.from_blocks([b, tuple_span(2, 4, [(1, 0, 0, 0)])])


@pytest.mark.parametrize("other, message", [
    ((0, 0, 1), r"^block \(2,3,dim 2\) in design \(2,3,k=1\)$"),
    ((0, 1, 0), r"^block \(3,3,dim 1\) in design \(2,3,k=1\)$"),
])
def test_from_blocks_mismatch_names_first_block_in_sort_order(other, message):
    """Of two mismatched blocks, the message names the one that sorts
    first, whatever the input order: pivots (1, 2) sort after (0, 1, 0)'s
    (1,) and before (0, 0, 1)'s (2,)."""
    a = tuple_span(2, 3, [(1, 0, 0)])
    b = tuple_span(2, 3, [(0, 1, 0), (0, 0, 1)])
    c = tuple_span(3, 3, [other])
    for blocks in ([a, b, c], [c, b, a], [b, a, c]):
        with pytest.raises(AmbientMismatch, match=message):
            SubspaceDesign.from_blocks(blocks)


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (3, 3, 1)])
def test_from_blocks_ignores_input_order_and_duplicates(q, n, k):
    rng = random.Random(q * 100 + n)
    blocks = list(enumerate_grassmannian(q, n, k))
    design = SubspaceDesign.from_blocks(blocks)
    assert list(design.blocks) == sorted(blocks, key=Subspace.sort_key)
    for _ in range(5):
        shuffled = blocks + rng.sample(blocks, 5)
        rng.shuffle(shuffled)
        assert SubspaceDesign.from_blocks(shuffled).blocks == design.blocks


def test_from_blocks_mixed_q_raises_the_same_mismatch():
    """The first block in sort order fixes the ambient space, whatever the
    input order, and the mismatch names the first block outside it."""
    a, b = tuple_span(2, 3, [(1, 0, 0)]), tuple_span(3, 3, [(0, 1, 0)])
    for blocks in ([a, b], [b, a], [b, a, b, a]):
        with pytest.raises(AmbientMismatch,
                           match=r"^block \(3,3,dim 1\) in design \(2,3,k=1\)$"):
            SubspaceDesign.from_blocks(blocks)
        with pytest.raises(AmbientMismatch,
                           match=r"^block \(2,3,dim 1\) in design \(3,3,k=1\)$"):
            SubspaceDesign.from_blocks(blocks, q=3)


def test_covering_full_grassmannian_constant_multiplicity():
    d = trivial_steiner(2, 4, 3)
    report = verify_covering(d, 2)
    # every 2-subspace of F_2^4 lies in [2 1]_2 + 1 = 3 of the 3-subspaces
    assert report.is_covering
    assert report.min_multiplicity == report.max_multiplicity == 3
    assert report.histogram == {3: 35}


def test_covering_single_block():
    d = SubspaceDesign.from_blocks([full_space(2, 3)])
    assert verify_covering(d, 3).is_covering
    b = tuple_span(2, 4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    d = SubspaceDesign.from_blocks([b])
    assert not verify_covering(d, 3).is_covering


def test_covering_strategies_agree():
    for d in corpus():
        for r in range(0, d.k + 1):
            expand = verify_covering(d, r, strategy="expand")
            scan = verify_covering(d, r, strategy="scan")
            assert expand == scan


@pytest.mark.parametrize("strategy", ["auto", "Expand", "bitmask"])
@pytest.mark.parametrize("verify", [verify_covering, verify_turan])
def test_unknown_strategy_raises(verify, strategy):
    d = spread(2, 2, 4)
    with pytest.raises(ValueError, match="unknown strategy"):
        verify(d, 2, strategy=strategy)


def test_turan_strategies_agree():
    rng = random.Random(31)
    for d in [random_design(rng, 2, 5, 2, 7), random_design(rng, 3, 4, 1, 4)]:
        for k in range(d.k, d.n + 1):
            expand = verify_turan(d, k, strategy="expand")
            scan = verify_turan(d, k, strategy="scan")
            assert expand == scan


def test_coverage_conservation():
    for d in corpus():
        for r in range(1, d.k + 1):
            report = verify_covering(d, r)
            incidences = sum(m * c for m, c in report.histogram.items())
            assert incidences == len(d.blocks) * gaussian(d.k, r, d.q)


def test_turan_examples():
    d = turan_point_design(2, 5, 3, verify=False)
    assert verify_turan(d, 3).is_covering
    empty = SubspaceDesign.from_blocks([], q=2, n=4, k=2)
    assert not verify_turan(empty, 3).is_covering


def test_steiner_examples():
    s = spread(2, 2, 4)
    assert verify_covering(s, 1).is_steiner
    t = trivial_steiner(2, 4, 2)
    assert verify_covering(t, 2).is_steiner
    # doubled coverage is a covering but not Steiner
    blocks = list(enumerate_grassmannian(2, 3, 2))
    d = SubspaceDesign.from_blocks(blocks)
    rep = verify_covering(d, 1)
    assert rep.is_covering and not rep.is_steiner


def test_dualize_covering_turan_duality():
    rng = random.Random(7)
    for _ in range(25):
        k = rng.choice([2, 3])
        d = random_design(rng, 2, 5, k, rng.randint(3, 12))
        dd = dualize(d)
        assert dd.k == 5 - k
        assert len(dd.blocks) == len(d.blocks)
        assert dualize(dd) == d
        for r in range(1, k + 1):
            covering = verify_covering(d, r).is_covering
            turan = verify_turan(dd, 5 - r).is_covering
            assert covering == turan


def test_line_covering_size_bound_and_steiner_equality():
    for d in [spread(2, 2, 4), spread(2, 2, 6), spread(3, 2, 4)]:
        report = verify_covering(d, 1)
        assert report.is_covering
        bound = basic_lower(d.n, d.k, 1, d.q)
        assert len(d.blocks) >= bound
        if len(d.blocks) == bound:
            assert report.is_steiner


def test_uncovered_witnesses():
    b = tuple_span(2, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    d = SubspaceDesign.from_blocks([b])
    report = verify_covering(d, 1)
    assert not report.is_covering
    assert 0 < len(report.witnesses) <= 16
    assert report.histogram[0] == gaussian(4, 1, 2) - gaussian(2, 1, 2)


def test_point_set_system_fano():
    d = trivial_steiner(2, 3, 2)
    system = to_point_set_system(d)
    assert system.v == 7
    assert len(system.blocks) == 7
    assert system.block_size == 3
    assert verify_steiner_system(system, 2).is_steiner


def test_point_set_system_small():
    d = SubspaceDesign.from_blocks([tuple_span(2, 3, [(1, 0, 0)])])
    assert to_point_set_system(d).block_size == 1
    d3 = trivial_steiner(3, 3, 2)
    assert to_point_set_system(d3).block_size == 4


def test_point_indexing_deterministic():
    idx1 = point_indexing(2, 4)
    idx2 = point_indexing(2, 4)
    assert idx1 == idx2 and len(idx1) == 15


def test_steiner_system_block_removed():
    d = trivial_steiner(2, 3, 2)
    system = to_point_set_system(d)
    broken = SetSystem.from_blocks(7, system.blocks[1:])
    report = verify_steiner_system(broken, 2)
    assert isinstance(report, CoverageReport)
    assert not report.is_steiner
    assert report.witnesses


def test_design_text_roundtrip():
    for d in corpus():
        text = design_to_text(d)
        back = design_from_text(text)
        assert back.blocks == d.blocks
        assert design_to_text(back) == text


@pytest.mark.parametrize("q", [2, 3])
def test_zero_dimensional_design_text_round_trips(q):
    """A k = 0 design holds at most one block, the zero subspace, which the
    design file writes as an empty line and reads back."""
    for blocks in ([], [Subspace(q, 3, (), ())]):
        d = SubspaceDesign.from_blocks(blocks, q=q, n=3, k=0)
        text = design_to_text(d)
        assert text == f"{DESIGN_MAGIC}\nq={q} n=3 k=0\n" + "\n" * len(blocks)
        back = design_from_text(text)
        assert back == d
        assert design_to_text(back) == text


def test_design_text_canonicalizes_and_dedups():
    text = ("qcover-design v1\n"
            "q=2 n=3 k=2\n"
            "# a comment\n"
            "110 011\n"
            "101 011\n")
    d = design_from_text(text)
    assert len(d.blocks) == 1
    assert d.blocks[0] == tuple_span(2, 3, [(1, 1, 0), (0, 1, 1)])


@pytest.mark.parametrize("text", [
    "not-a-design\nq=2 n=3 k=2\n",
    "qcover-design v1\nq=two n=3 k=2\n",
    "qcover-design v1\nq=2 n=3 k=2\n11 011\n",
    "qcover-design v1\nq=2 n=3 k=2\n110 210\n",
    "qcover-design v1\nq=2 n=3 k=2\n110 110\n",
])
def test_design_text_malformed(text):
    with pytest.raises(FormatError):
        design_from_text(text)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("word,message", [
    ("\u06610", "bad vector"),        # ARABIC-INDIC DIGIT ONE
    ("0\u00b2", "bad vector"),        # SUPERSCRIPT TWO
    ("\uff11\uff10", "bad vector"),  # FULLWIDTH DIGITS
    ("+1", "bad vector"),
    ("31", "coordinate out of GF"),
])
def test_design_text_accepts_ascii_digits_only(q, word, message):
    """str.isdigit and int() accept non-ASCII digits; the loader must not,
    and its message names the word."""
    if message == "coordinate out of GF" and q == 3:
        word = "41"
    text = f"qcover-design v1\nq={q} n=2 k=1\n{word}\n"
    with pytest.raises(FormatError, match=message) as info:
        design_from_text(text)
    assert repr(word) in str(info.value)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_design_from_text_equals_span_of_its_words(q):
    """Each block is the span of its words, packed and reduced by span for
    every q, and a dependent line is refused with its rank."""
    rng = random.Random(500 + q)
    for _ in range(150):
        n = rng.randint(1, 7)
        k = rng.randint(1, n)
        words = ["".join(str(rng.randrange(q)) for _ in range(n)) for _ in range(k)]
        text = f"qcover-design v1\nq={q} n={n} k={k}\n{' '.join(words)}\n"
        block = tuple_span(q, n, [tuple(map(int, w)) for w in words])
        if block.dim == k:
            design = design_from_text(text)
            assert design.blocks == (block,)
            assert design.blocks[0].pivots == block.pivots
        else:
            with pytest.raises(FormatError, match=f"block rank {block.dim} < k={k}"):
                design_from_text(text)


@pytest.mark.parametrize("q", [11, 37])
def test_design_from_text_past_ten_reads_digit_words(q):
    """Past q = 10 a word's coordinates are still one digit each: int reads
    the word in base q up to 36, and vec_pack of its digits past it."""
    text = f"qcover-design v1\nq={q} n=3 k=2\n110 013\n091 100\n"
    assert design_from_text(text).blocks == SubspaceDesign.from_blocks([
        tuple_span(q, 3, [(1, 1, 0), (0, 1, 3)]),
        tuple_span(q, 3, [(0, 9, 1), (1, 0, 0)])]).blocks


def count_span(monkeypatch):
    """A list that gets one entry, n, per call of _span_rows, the row
    reduction that span wraps, from either module that holds it."""
    calls, original = [], subspaces._span_rows

    def counted(q, n, vectors):
        calls.append(n)
        return original(q, n, vectors)
    for module in (subspaces, designs):
        monkeypatch.setattr(module, "_span_rows", counted)
    return calls


def test_gf64_and_its_file_make_no_xor_rref_call(monkeypatch):
    """gf64_covering_design takes GroupAction's rank from its image table
    and reads its seven base blocks and 399 blocks off sorted vector lists
    with read_blocks, whose error path alone calls span, and its design
    file loads as written: no call of span's XOR row reduction."""
    calls = count_span(monkeypatch)
    design = gf64_covering_design()
    assert calls == []
    assert design_from_text(design_to_text(design)) == design
    assert calls == []


def test_gf64_op_builds_no_subspace(tmp_path, subspace_builds):
    """construct gf64, save, load and the r = 2 census build no Subspace:
    the seven base blocks go from read_blocks' rows to a design, the 399
    blocks from orbit_blocks' rows to the design, the file and the census
    as packed rows, and no blocks view is built.  The CLI's construct,
    verify and bounds --filter 7,3,2, the gf64-cli op, do the same."""
    path = tmp_path / "gf64.txt"
    design = gf64_covering_design()
    designs.save_design(design, path)
    loaded = designs.load_design(path)
    assert verify_covering(loaded, 2).is_covering
    assert len(loaded) == len(design) == 399 and loaded == design
    assert "blocks" not in vars(design) and "blocks" not in vars(loaded)
    assert cli.main(["construct", "gf64", "-o", str(path)]) == 0
    assert cli.main(["verify", str(path), "--mode", "covering", "--r", "2"]) == 0
    assert cli.main(["bounds", "--q", "2", "--n-max", "7",
                     "--filter", "7,3,2"]) == 0
    assert subspace_builds == []


def packed_rows(block):
    return [vec_pack(2, row) for row in block.rows]


def q2_text(n, k, row_lists):
    """A q = 2 design file with one line per list of packed rows, as given."""
    lines = [" ".join("".join(map(str, vec_unpack(2, n, v))) for v in rows)
             for rows in row_lists]
    return "\n".join([DESIGN_MAGIC, f"q=2 n={n} k={k}", *lines]) + "\n"


def reduced_load(text):
    """The design of a well-formed q = 2 file with every line reduced by
    span, or the FormatError of its first dependent line."""
    lines = text.splitlines()
    params = dict(item.split("=") for item in lines[1].split())
    n, k = int(params["n"]), int(params["k"])
    blocks = []
    for line in lines[2:]:
        block = span(2, n, [vec_pack(2, tuple(map(int, w)))
                            for w in line.split()])
        if block.dim != k:
            raise FormatError(f"block rank {block.dim} < k={k}: {line!r}")
        blocks.append(block)
    return SubspaceDesign.from_blocks(blocks, q=2, n=n, k=k)


def load_outcome(load, text):
    """(blocks, pivots) of the design load reads off text, or its FormatError
    message."""
    try:
        design = load(text)
    except FormatError as exc:
        return str(exc)
    return design.blocks, [b.pivots for b in design.blocks]


@pytest.mark.parametrize("n, k, past_cut", [
    (7, 1, False), (7, 3, False), (10, 4, False),
    (7, 5, True), (10, 5, True), (11, 2, True), (11, 4, True),
])
def test_design_load_reduces_past_the_cut(monkeypatch, n, k, past_cut):
    """Canonical q = 2 files load as written, with no span call, at
    every n and k: past_cut marks the cases outside k <= 4 and
    2^n <= DIGIT_TABLE_MAX, the bounds of an earlier sorted read.  The same
    designs written as shuffled, unreduced generators make one span call
    per line (for k = 1 every nonzero row is canonical, so none).
    Both routes give the blocks that span gives, with their pivots."""
    assert past_cut == (k > 4 or 2 ** n > subspaces.DIGIT_TABLE_MAX)
    rng = random.Random(100 * n + k)
    design = random_design(rng, 2, n, k, 40)
    pivots = [b.pivots for b in design.blocks]
    calls = count_span(monkeypatch)
    back = design_from_text(design_to_text(design))
    assert back == design
    assert [b.pivots for b in back.blocks] == pivots
    assert calls == []
    generators = []
    for block in design.blocks:
        rows = packed_rows(block)
        if k > 1:
            rows[0] ^= rows[1]  # holds row 1's pivot
        rng.shuffle(rows)
        generators.append(rows)
    rng.shuffle(generators)
    back = design_from_text(q2_text(n, k, generators))
    assert back == design
    assert [b.pivots for b in back.blocks] == pivots
    assert len(calls) == (len(design) if k > 1 else 0)


def random_canonical_rows(rng, n, k):
    while True:
        rows = list(span(2, n, [rng.randrange(1 << n) for _ in range(k)]).packed)
        if len(rows) == k:
            return rows


def set_a_pivot(rng, rows):
    i, j = rng.sample(range(len(rows)), 2)
    rows[i] |= rows[j] & -rows[j]


def swap_two(rng, rows):
    i, j = rng.sample(range(len(rows)), 2)
    rows[i], rows[j] = rows[j], rows[i]


def zero_one(rng, rows):
    rows[rng.randrange(len(rows))] = 0


def repeat_one(rng, rows):
    i, j = rng.sample(range(len(rows)), 2)
    rows[i] = rows[j]


def sum_of_two(rng, rows):
    i, j, m = [rng.randrange(len(rows)) for _ in range(3)]
    while i == j:
        j = rng.randrange(len(rows))
    rows[m] = rows[i] ^ rows[j]


NEAR_CANONICAL = [set_a_pivot, swap_two, zero_one, repeat_one, sum_of_two]


@pytest.mark.parametrize("n, k", [(4, 1), (4, 3), (10, 1), (10, 5), (11, 1),
                                  (11, 5)])
def test_near_canonical_lines_load_as_reduced(n, k):
    """Lines one edit away from canonical (a bit set at another row's
    pivot, two rows swapped, a zero row, a repeated row, a row replaced by
    the sum of two rows), each alone and each as one line among 399
    canonical ones, load to the design that reducing every line with
    span gives, or raise the same rank error; so do the canonical
    files around them."""
    rng = random.Random(1000 * n + k)
    edits = NEAR_CANONICAL if k > 1 else [zero_one]
    for edit in edits:
        for _ in range(3):
            line = random_canonical_rows(rng, n, k)
            edit(rng, line)
            lines = [random_canonical_rows(rng, n, k) for _ in range(399)]
            at = rng.randrange(1, 400)
            for texts in ([line], lines, lines[:at] + [line] + lines[at:]):
                text = q2_text(n, k, texts)
                assert (load_outcome(design_from_text, text)
                        == load_outcome(reduced_load, text))


@pytest.mark.parametrize("n, k", [(3, 1), (4, 3), (7, 3), (10, 5), (11, 2),
                                  (11, 5)])
def test_canonical_rows_returns_pivots_exactly_for_rref_rows(n, k):
    """The canonical reader, given the blocks' columns of rows, returns
    _pivot_reader's pivots of each block, a tuple per block, exactly when
    every block's rows equal span(2, n, rows).packed, else None (k empty
    columns give no pivots): on canonical blocks, and with one block edited by each
    NEAR_CANONICAL edit, on both sides of DIGIT_TABLE_MAX (2^11 > 2^10)."""
    rng = random.Random(f"canonical-{n}-{k}")
    edits = [None] + NEAR_CANONICAL if k > 1 else [None, zero_one]
    seen = set()
    for edit in edits * 20:
        blocks = [random_canonical_rows(rng, n, k)
                  for _ in range(rng.randint(1, 6))]
        if edit is not None:
            edit(rng, blocks[rng.randrange(len(blocks))])
        canonical = all(list(span(2, n, rows).packed) == rows
                        for rows in blocks)
        columns = list(map(list, zip(*blocks)))
        pivots = subspaces._canonical_rows(n, k, columns)
        expected = [tuple(subspaces._pivot_reader(2, n)(rows)) for rows in blocks]
        assert pivots == (expected if canonical else None), (blocks, edit)
        seen.add(canonical)
    assert seen == {True, False}
    assert subspaces._canonical_rows(n, k, [[]] * k) == []


def refuse_walk(monkeypatch):
    def refused(*args):
        raise AssertionError("a clean file entered the per-line walk")
    monkeypatch.setattr(designs, "_walk_lines", refused)


def test_clean_files_never_enter_the_error_walk(monkeypatch):
    """The gf64 file, a clean q = 3 file and a clean q = 2 file whose rows
    are not canonical load through the whole-file checks alone, with the
    per-line walk refused; a comment or a blank line sends the same file
    through the walk, to the same design."""
    gf64 = design_to_text(gf64_covering_design())
    q3 = design_to_text(trivial_steiner(3, 3, 2))
    rng = random.Random(38)
    rows = [random_canonical_rows(rng, 6, 3) for _ in range(30)]
    for line in rows[::2]:
        line.reverse()  # not canonical: span reduces these lines
    q2 = q2_text(6, 3, rows)
    loads = {}
    with monkeypatch.context() as patch:
        refuse_walk(patch)
        for text in (gf64, q3, q2):
            loads[text] = design_from_text(text)
    assert loads[gf64] == gf64_covering_design()
    assert design_to_text(loads[q3]) == q3
    assert loads[q2] == reduced_load(q2)
    for text, design in loads.items():
        head, body = text.split("\n", 2)[:2], text.split("\n", 2)[2]
        for extra in ("# a comment\n", "\n", "   \n"):
            assert design_from_text("\n".join(head) + "\n" + extra + body) \
                == design
    with monkeypatch.context() as patch:
        refuse_walk(patch)
        with pytest.raises(AssertionError, match="per-line walk"):
            design_from_text(q3 + "# a comment\n")


def test_spread_past_the_bit_table_loads_as_written(monkeypatch):
    """Past DIGIT_TABLE_MAX vectors canonical rows are written off
    vec_unpack and their pivots come from their top bits, with no span
    call."""
    design = spread(2, 4, 12)
    assert 2 ** design.n > subspaces.DIGIT_TABLE_MAX
    calls = count_span(monkeypatch)
    back = design_from_text(design_to_text(design))
    assert back == design
    assert [b.pivots for b in back.blocks] == [b.pivots for b in design.blocks]
    assert calls == []


@pytest.mark.parametrize("n, k", [(4, 2), (6, 5), (11, 2)])
@pytest.mark.parametrize("good", [1, 4096])
def test_design_load_errors_keep_file_order(n, k, good):
    """A dependent line raises its rank error before a bad word or a short
    line that follows it, and a bad word raises before a dependent line
    that follows it, at k = 2 and 5 and on both sides of DIGIT_TABLE_MAX,
    after one canonical line or 4096."""
    unit = "1" + "0" * (n - 1)
    bad_word = "01x" + "0" * (n - 3)
    dependent = " ".join([unit] * k)
    bad = " ".join([unit] * (k - 1) + [bad_word])
    short = " ".join([unit] * (k - 1))
    rng = random.Random(good)
    goods = design_to_text(random_design(rng, 2, n, k, 20)).splitlines()[2:]
    goods = [goods[i % len(goods)] for i in range(good)]

    def load(*lines):
        text = "\n".join([DESIGN_MAGIC, f"q=2 n={n} k={k}", *goods, *lines])
        with pytest.raises(FormatError) as info:
            design_from_text(text + "\n")
        return str(info.value)
    rank_error = f"block rank 1 < k={k}: {dependent!r}"
    assert load(dependent, bad) == rank_error
    assert load(bad, dependent) == f"bad vector {bad_word!r} for n={n}"
    assert load(dependent, short) == rank_error
    assert load(short, dependent) == f"block with {k - 1} vectors, expected {k}"


def reference_design_text(design):
    """The design file written one coordinate at a time, with no memo."""
    lines = [DESIGN_MAGIC, f"q={design.q} n={design.n} k={design.k}"]
    for block in design.blocks:
        lines.append(" ".join("".join(str(c) for c in row) for row in block.rows))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_design_to_text_equals_per_coordinate_reference(q):
    rng = random.Random(700 + q)
    for _ in range(40):
        n = rng.randint(1, 4)
        k = rng.randint(1, n)
        design = random_design(rng, q, n, k, min(rng.randint(1, 8),
                                                 gaussian(n, k, q)))
        assert design_to_text(design) == reference_design_text(design)


def per_digit_text(design):
    """The design file written one base-q digit at a time off the packed
    rows, by divmod, with no table."""
    q, n = design.q, design.n
    lines = [DESIGN_MAGIC, f"q={q} n={n} k={design.k}"]
    for rows in design.packed:
        words = []
        for v in rows:
            digits = []
            for _ in range(n):
                v, digit = divmod(v, q)
                digits.append(str(digit))
            words.append("".join(reversed(digits)))
        lines.append(" ".join(words))
    return "\n".join(lines) + "\n"


def field_sizes(top):
    sizes = []
    for q in range(top + 1):
        try:
            get_gf(q)
        except FieldError:
            continue
        sizes.append(q)
    return sizes


@pytest.mark.parametrize("q", field_sizes(10))
def test_design_to_text_equals_per_digit_writer_across_the_word_table_bound(q):
    """For every field the design file can write, at the largest n whose
    F_q^n the word table holds (F_2^10, F_3^6, ...) and one past it, random
    designs, all points, a k = 0 design and empty designs are written as
    the per-digit writer writes them and read back to the same design.
    Only the n within the bound builds a table."""
    rng = random.Random(4200 + q)
    inside = max(n for n in range(1, 12) if q ** n <= subspaces.DIGIT_TABLE_MAX)
    designs._word_table.cache_clear()
    for n in (inside + 1, inside):
        cases = [random_design(rng, q, n, k, min(6, gaussian(n, k, q)))
                 for k in (1, 2, 3)]
        cases += [SubspaceDesign.from_rows(q, n, 1, grassmannian_rows(q, n, 1)),
                  SubspaceDesign.from_blocks([Subspace(q, n, (), ())], q=q, n=n, k=0),
                  SubspaceDesign.from_blocks([], q=q, n=n, k=0),
                  SubspaceDesign.from_blocks([], q=q, n=n, k=2)]
        for design in cases:
            text = design_to_text(design)
            assert text == per_digit_text(design)
            assert design_from_text(text) == design
        assert designs._word_table.cache_info().currsize == (n == inside)


@pytest.mark.parametrize("build", [
    gf64_covering_design,
    lambda: trivial_steiner(3, 4, 2),
], ids=["gf64", "q3-lines"])
def test_design_text_with_words_repeated_across_blocks_round_trips(build):
    design = build()
    text = design_to_text(design)
    words = text.split("\n", 2)[2].split()
    assert len(set(words)) < len(words) // 3  # most words repeat
    back = design_from_text(text)
    assert back.blocks == design.blocks
    assert [b.pivots for b in back.blocks] == [b.pivots for b in design.blocks]
    assert design_to_text(back) == text


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("lines,message", [
    # a bad word in a later block, after its good neighbour was seen
    (["110 011", "110 101", "011 1x1"], "bad vector '1x1' for n=3"),
    # the same bad word in two later blocks: the first one raises
    (["110 011", "011 1101", "110 1101"], "bad vector '1101' for n=3"),
    # the first bad word of a line raises, whatever follows it
    (["110 011", "011 019 0101"], "coordinate out of GF"),
    (["110 011", "0101 019"], "bad vector '0101'"),
    # every word of a line is checked before the line's word count
    (["110 011", "110 011 1x0"], "bad vector '1x0'"),
    (["110 011", "110 011 101"], "block with 3 vectors, expected 2"),
])
def test_design_text_first_bad_word_raises_in_file_order(q, lines, message):
    text = f"qcover-design v1\nq={q} n=3 k=2\n" + "\n".join(lines) + "\n"
    with pytest.raises(FormatError, match=message.replace("(", r"\(")):
        design_from_text(text)


def test_expand_builds_no_row_table_without_blocks(monkeypatch):
    """An empty design is censused without the local row reader, whose table
    for [6 1]_17 would hold 1 508 598 entries.  The probe is the reader the
    censuses call: a cached one calls local_row_indices only once.  Turan
    expand reads through it too, in superspaces_containing."""
    def refuse(*args):
        raise AssertionError(f"_local_rows{args} was built")
    monkeypatch.setattr(designs, "_local_rows", refuse)
    monkeypatch.setattr(subspaces, "_local_rows", refuse)
    empty = SubspaceDesign.from_blocks([], q=17, n=6, k=6)
    report = verify_covering(empty, 1)
    assert report.total == gaussian(6, 1, 17)
    assert report.histogram == {0: report.total}
    assert len(report.witnesses) == 16
    with pytest.raises(AssertionError, match="was built"):
        verify_covering(SubspaceDesign.from_blocks([full_space(2, 3)]), 1)
    # the readers of [8 4]_2 and [6 5]_17 local subspaces
    for q, n, dim in [(2, 8, 4), (17, 6, 1)]:
        report = verify_turan(SubspaceDesign.from_blocks([], q=q, n=n, k=0), dim)
        assert report.total == gaussian(n, dim, q)
        assert report.histogram == {0: report.total}
        assert len(report.witnesses) == 16
    for q in (2, 3):
        with pytest.raises(AssertionError, match="was built"):
            verify_turan(SubspaceDesign.from_blocks([tuple_span(q, 3, [(1, 0, 0)])]), 2)


def test_q2_block_past_the_vector_budget_raises_before_any_column(monkeypatch):
    """A block of F_2^25 has 2^25 vectors, past MAX_VECTOR_ENUM: its vector
    lists raise BudgetError when asked for, before a row is unpacked or a
    chunk spanned, and so do both covering strategies."""
    def refuse(*args):
        raise AssertionError("began to list vectors")
    monkeypatch.setattr(subspaces, "_digit_table", refuse)
    monkeypatch.setattr(subspaces, "_xor_chunk", refuse)
    design = SubspaceDesign.from_blocks([full_space(2, 25)])
    with pytest.raises(BudgetError, match=r"2\^25 vectors exceed"):
        subspaces.span_vector_lists(2, 25, 25, design.packed)
    for strategy in ("expand", "scan"):
        with pytest.raises(BudgetError):
            verify_covering(design, 0, strategy)


# A design's fields; its blocks view is built only on first read.
FIELDS = {"q", "n", "k", "packed", "pivots"}


def counted_listings(monkeypatch):
    """Patches span_vector_lists where its callers read it, designs for a
    design's vector_lists and subspaces for complement_vectors, which call
    it once per listing, to record each call's dimension."""
    calls = []
    span_vector_lists = subspaces.span_vector_lists

    def counted(q, n, k, row_lists):
        calls.append(k)
        return span_vector_lists(q, n, k, row_lists)
    monkeypatch.setattr(designs, "span_vector_lists", counted)
    monkeypatch.setattr(subspaces, "span_vector_lists", counted)
    return calls


# verify_covering at r = 1 and verify_turan at k = 3, each by expand and scan.
CENSUSES = [(verify, dim, strategy)
            for verify, dim in [(verify_covering, 1), (verify_turan, 3)]
            for strategy in ("expand", "scan")]


@pytest.mark.parametrize("q", [2, 3])
def test_one_listing_serves_every_census_of_a_design(monkeypatch, q):
    """Both strategies of both censuses, and the point set system, read the
    design's kept lists: its blocks are listed once (dimension 2) and their
    complements once (dimension 3).  Every report equals the report of the
    same census on a fresh, equal design."""
    design = random_design(random.Random(30 + q), q, 5, 2, 10)
    calls = counted_listings(monkeypatch)
    reports = [verify(design, dim, strategy) for verify, dim, strategy in CENSUSES]
    system = to_point_set_system(design)
    assert calls == [2, 3]
    assert set(vars(design)) == FIELDS | {"vector_lists", "complement_lists"}
    assert reports == [verify(SubspaceDesign.from_blocks(design.blocks), dim,
                              strategy) for verify, dim, strategy in CENSUSES]
    assert system == to_point_set_system(
        SubspaceDesign.from_blocks(design.blocks))


def test_lists_past_xor_chunk_are_listed_per_census(monkeypatch):
    """16 blocks of dimension 10 hold XOR_CHUNK vectors and are kept; 17
    hold more and are listed again by every census, and so are the 2^14
    complement vectors of each of two points of F_2^15.  Such a design
    keeps nothing, and its reports are unchanged."""
    rng = random.Random(31)
    hyperplanes = random_design(rng, 2, 11, 10, 17)
    points = SubspaceDesign.from_blocks([span(2, 15, [v])
                                         for v in (1, 6)])
    calls = counted_listings(monkeypatch)
    kept = SubspaceDesign.from_blocks(hyperplanes.blocks[:16])
    verify_covering(kept, 1)
    verify_covering(kept, 1, "scan")
    assert calls == [10] and "vector_lists" in vars(kept)
    calls.clear()
    expected = [verify_covering(SubspaceDesign.from_blocks(hyperplanes.blocks),
                                1, strategy) for strategy in ("expand", "scan")]
    assert [verify_covering(hyperplanes, 1, strategy)
            for strategy in ("expand", "scan")] == expected
    assert calls == [10] * 4
    calls.clear()
    reports = [verify_turan(points, 14, strategy) for strategy in ("expand", "scan")]
    assert calls == [14, 14]
    # a hyperplane of F_2^15 holds both points, one of them, or neither
    both, one = gaussian(13, 12, 2), gaussian(14, 13, 2) - gaussian(13, 12, 2)
    assert reports[0] == reports[1]
    assert reports[0].histogram == {0: gaussian(15, 14, 2) - both - 2 * one,
                                    1: 2 * one, 2: both}
    # the blocks view of hyperplanes was read to build kept
    assert set(vars(hyperplanes)) - {"blocks"} == set(vars(points)) == FIELDS


def test_kept_lists_leave_the_design_value_unchanged():
    """A design that has kept its lists is equal to a fresh copy, with the
    same hash and repr it had before, and its lists are its blocks'."""
    design = random_design(random.Random(32), 3, 4, 2, 6)
    before = hash(design), repr(design)
    for verify, dim, strategy in CENSUSES:
        verify(design, dim, strategy)
    fresh = SubspaceDesign.from_blocks(design.blocks)
    assert set(vars(design)) > set(vars(fresh)) == FIELDS
    assert design == fresh and fresh == design
    assert (hash(design), repr(design)) == (hash(fresh), repr(fresh)) == before
    assert list(map(list, design.vector_lists)) == [
        subspaces.packed_vectors(b) for b in design.blocks]
    assert list(map(list, design.complement_lists)) == [
        list(vectors) for vectors in subspaces.complement_vectors(
            design.q, design.n, design.k, design.packed, design.pivots)]


def test_census_that_raises_keeps_nothing():
    """A listing past MAX_VECTOR_ENUM raises BudgetError and keeps no list:
    the 2^25 vectors of F_2^25 for a covering census, and the 2^25
    complement vectors of a point of F_2^26 for a Turan scan at k = n."""
    full = SubspaceDesign.from_blocks([full_space(2, 25)])
    point = SubspaceDesign.from_blocks([tuple_span(2, 26, [(1,) + (0,) * 25])])
    for strategy in ("expand", "scan"):
        with pytest.raises(BudgetError):
            verify_covering(full, 0, strategy)
    with pytest.raises(BudgetError):
        verify_turan(point, 26, "scan")
    assert verify_turan(point, 26).histogram == {1: 1}
    assert set(vars(full)) == set(vars(point)) == FIELDS


def test_scans_leave_no_reference_cycle():
    """Both scans free their mask lists and counters by reference counting:
    a census that left a cycle would hold them until the cyclic collector
    runs, and a long run's peak memory with them."""
    design = random_design(random.Random(8), 2, 6, 3, 12)
    gc.collect()
    gc.disable()
    try:
        verify_covering(design, 2, "scan")
        verify_turan(design, 4, "scan")
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_census_self_checks_hold_under_optimize():
    """python -O strips assert statements, so the census self-checks raise
    explicitly: a histogram that does not sum to its total, and orbit
    incidences that do not divide by the orbit's size, raise RuntimeError
    under -O too."""
    script = (
        "import sys\n"
        "from collections import Counter\n"
        "from qcover import designs\n"
        "from qcover.subspaces import GroupAction, span\n"
        "class Off(GroupAction):  # the targets' orbit sizes off by one\n"
        "    def orbits(self, vector_lists, calls=[]):\n"
        "        calls.append(1)\n"
        "        return [(label, size + (len(calls) > 1)) for label, size\n"
        "                in super().orbits(vector_lists)]\n"
        "shift = GroupAction(4, [4, 2, 1, 8])\n"
        "base = span(2, 4, [8, 4])\n"
        "base = designs.SubspaceDesign.from_blocks([base])\n"
        "print(sys.flags.optimize, designs.verify_orbits(shift, base, 1)[0])\n"
        "for call in (lambda: designs._report(10, Counter({0: 3, 1: 4}), ()),\n"
        "             lambda: designs.verify_orbits(Off(4, [4, 2, 1, 8]),\n"
        "                                           base, 1)):\n"
        "    try:\n"
        "        call()\n"
        "    except RuntimeError as exc:\n"
        "        print(exc)\n")
    src = os.path.join(os.path.dirname(designs.__file__), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[:2] == ["1 4", "census histogram sums to 7, not 10 targets"]
    assert re.fullmatch(r"\d+ incidences over an orbit of \d+", lines[2])
    assert len(lines) == 3


@pytest.mark.parametrize("q,k,r", [(17, 6, 1), (2, 24, 12)])
def test_local_row_indices_refused_past_the_budget(monkeypatch, q, k, r):
    """A table with more than MAX_VECTOR_ENUM entries, or indices into more
    than MAX_VECTOR_ENUM vectors, raises before any row is enumerated."""
    def refuse(*args):
        raise AssertionError("enumerated rows")
    monkeypatch.setattr(subspaces, "grassmannian_choices", refuse)
    with pytest.raises(BudgetError, match=f"\\[{k} {r}\\]_{q}"):
        local_row_indices(q, k, r)


@pytest.mark.parametrize("n,k", [(3, 5), (3, -1), (0, 1)])
def test_from_blocks_rejects_k_outside_0_to_n(n, k):
    with pytest.raises(ValueError, match=f"n={n} k={k}"):
        SubspaceDesign.from_blocks([], q=2, n=n, k=k)


def _empty(q, n, k):
    return SubspaceDesign.from_blocks([], q=q, n=n, k=k)


def _unit_design(q, n, k):
    """The design of one block of F_q^n, the span of the first k unit
    vectors."""
    return SubspaceDesign.from_blocks([tuple_span(
        q, n, [tuple(int(i == j) for j in range(n)) for i in range(k)])])


# Each input guard of qcover.designs: a call, the exception it raises and a
# fragment of its message.  Every over-budget case raises before it
# enumerates anything: [13 2]_2 = 11 180 715 and C(100, 5) = 75 287 520 are
# past MAX_SUBSPACE_ENUM.
@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: verify_covering(_empty(2, 4, 2), 3), ValueError,
                 "need 0 <= r <= k, got r=3", id="verify_covering-r-above-k"),
    pytest.param(lambda: verify_covering(_empty(2, 13, 2), 2), BudgetError,
                 "[13 2]_2 exceeds", id="verify_covering-budget"),
    pytest.param(lambda: verify_turan(_empty(2, 4, 2), 1), ValueError,
                 "need block dim <= k <= n, got k=1", id="verify_turan-k-below-dim"),
    pytest.param(lambda: verify_turan(_empty(2, 13, 1), 2), BudgetError,
                 "[13 2]_2 exceeds", id="verify_turan-budget"),
    pytest.param(lambda: verify_orbits(GroupAction(3, [1, 2, 4]),
                                       _unit_design(3, 3, 1), 1),
                 AmbientMismatch, "base blocks in F_3^3 under an action on F_2^3",
                 id="verify_orbits-q3-base"),
    pytest.param(lambda: verify_orbits(GroupAction(13, [1 << i for i in range(13)]),
                                       _unit_design(2, 13, 2), 2),
                 BudgetError, "[13 2]_2 exceeds", id="verify_orbits-budget"),
    pytest.param(lambda: verify_steiner_system(SetSystem.from_blocks(7, [(0, 1)]), 3),
                 ValueError, "t exceeds the block size", id="steiner-t-above-size"),
    pytest.param(lambda: verify_steiner_system(
        SetSystem.from_blocks(100, [range(5)]), 5), BudgetError,
                 "C(100,5) exceeds", id="steiner-budget"),
    pytest.param(lambda: to_point_set_system(_empty(2, 3, 0)), ValueError,
                 "needs block dimension >= 1", id="point-set-k0"),
    pytest.param(lambda: SetSystem.from_blocks(7, [(0, 1), (2, 3, 4)]), ValueError,
                 "non-uniform block sizes", id="setsystem-sizes"),
    pytest.param(lambda: SetSystem.from_blocks(3, [(1, 3)]), ValueError,
                 "point index out of range", id="setsystem-point"),
    pytest.param(lambda: SubspaceDesign.from_blocks([]), ValueError,
                 "empty design needs explicit q, n, k", id="from_blocks-empty"),
    pytest.param(lambda: design_from_text(DESIGN_MAGIC + "\n"), FormatError,
                 "missing parameter line", id="design_from_text-no-params"),
    pytest.param(lambda: design_from_text(
        DESIGN_MAGIC + "\nq=2 n=3 k=1 k=2\n110\n"), FormatError,
                 "bad parameter line: 'q=2 n=3 k=1 k=2'",
                 id="design_from_text-repeated-key"),
])
def test_input_guards(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
