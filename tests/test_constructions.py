import hashlib
import itertools
import math
import random
import re
import time
from collections import Counter
from fractions import Fraction

import pytest

from qcover import cli, constructions, subspaces
from qcover.bounds import basic_lower, bound_table, gaussian
from qcover.constructions import (GF64_LINE_EXPONENTS, GF64_MODULUS,
                                  GF64_QUADS, ConstructionError, derive_steiner,
                                  expand_to_steiner_system, greedy_covering,
                                  gf64_covering_design, lift_covering,
                                  optimal_line_covering, partial_spread,
                                  recursive_covering, spread, trivial_steiner,
                                  turan_dual_covering, turan_point_design)
from qcover.designs import (CoverageReport, SubspaceDesign, design_to_text,
                            dualize, verify_covering, verify_turan)
from qcover.fields import (DEFAULT_MODULI, Field, FieldError, coefficients,
                           get_gf, vec_pack)
from qcover.subspaces import (BudgetError, GroupAction,
                              enumerate_grassmannian, packed_vectors)

from vector_reference import enumerate_vectors, full_space, tuple_span, vec_add


def test_trivial_steiner():
    d = trivial_steiner(2, 4, 2)
    assert len(d.blocks) == gaussian(4, 2, 2)


def test_spread_sizes_and_disjointness():
    for q, k, n in [(2, 2, 4), (2, 3, 6), (3, 2, 4), (2, 2, 6)]:
        s = spread(q, k, n)
        assert len(s.blocks) == (q ** n - 1) // (q ** k - 1)
        # pairwise trivial intersections: no nonzero vector in two blocks
        nonzero = [v for b in s.blocks for v in enumerate_vectors(b) if any(v)]
        assert len(set(nonzero)) == len(nonzero)
    assert len(spread(2, 3, 6).blocks) == 9


def test_spread_is_optimal_steiner():
    s = spread(2, 2, 6)
    assert verify_covering(s, 1).is_steiner
    assert len(s.blocks) == basic_lower(6, 2, 1, 2)


def test_spread_rejects_bad_params():
    with pytest.raises(ValueError):
        spread(2, 3, 7)
    with pytest.raises(ValueError):
        spread(6, 2, 4)


def test_lift_covering():
    base = spread(2, 2, 4)
    lifted = lift_covering(base, 1)
    assert (lifted.n, lifted.k) == (5, 3)
    assert len(lifted.blocks) == len(base.blocks) == 5
    assert verify_covering(lifted, 1).is_covering
    assert lift_covering(base, 0) is base
    with pytest.raises(ValueError):
        lift_covering(base, -1)


def test_lift_rejects_non_covering():
    d = SubspaceDesign.from_blocks([tuple_span(2, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])])
    with pytest.raises(ConstructionError,
                       match="^input is not a verified line covering$"):
        lift_covering(d, 1)


def count_calls(monkeypatch, *names):
    """Count the calls constructions makes to each named verifier."""
    calls = Counter()
    for name in names:
        def counted(*args, real=getattr(constructions, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(constructions, name, counted)
    return calls


@pytest.mark.parametrize("delta,censuses", [(0, 1), (1, 2), (2, 2)])
def test_lift_censuses_its_input_and_output(monkeypatch, delta, censuses):
    base = spread(2, 2, 4)
    calls = count_calls(monkeypatch, "verify_covering")
    lift_covering(base, delta)
    assert calls["verify_covering"] == censuses


@pytest.mark.parametrize("n,k,censuses", [(5, 3, 2), (7, 3, 3)])
def test_line_covering_censuses_the_spread_it_lifts_once(monkeypatch, n, k,
                                                         censuses):
    """(2,5,3) lifts spread[2,4]_2: one census of the spread and one of the
    lift.  (2,7,3) does the same for its residual covering of F_2^4, then
    censuses the whole design."""
    calls = count_calls(monkeypatch, "verify_covering")
    optimal_line_covering(2, n, k)
    assert calls["verify_covering"] == censuses


def test_partial_spread_2_2_5():
    design, residual = partial_spread(2, 2, 5)
    assert len(design.blocks) == (2 ** 5 - 2 ** 3) // 3 == 8
    assert residual.dim == 3
    assert all(b.dim == 2 for b in design.blocks)


def test_partial_spread_sizes():
    for q, rho, n in [(2, 2, 7), (2, 3, 7), (3, 2, 5)]:
        design, residual = partial_spread(q, rho, n)
        m = n % rho + rho
        assert len(design.blocks) == (q ** n - q ** m) // (q ** rho - 1)
        assert residual.dim == m


def test_partial_spread_rejects_bad_params():
    with pytest.raises(ValueError):
        partial_spread(2, 2, 4)  # rho divides n
    with pytest.raises(ValueError):
        partial_spread(2, 3, 5)  # n <= 2*rho


@pytest.mark.parametrize("q,n,k", [
    (2, 4, 2), (2, 5, 2), (2, 5, 3), (2, 7, 3), (2, 7, 2),
    (3, 5, 2), (2, 9, 4),
])
def test_optimal_line_covering(q, n, k):
    d = optimal_line_covering(q, n, k)
    assert len(d.blocks) == math.ceil(Fraction(q ** n - 1, q ** k - 1))
    assert len(d.blocks) == basic_lower(n, k, 1, q)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: spread(3, 2, 6), id="spread"),
    pytest.param(lambda: partial_spread(2, 2, 7), id="partial-spread"),
    pytest.param(lambda: optimal_line_covering(3, 5, 2), id="line-covering"),
])
def test_field_tower_designs_call_no_span(monkeypatch, build):
    """The field tower writes each block's RREF rows packed, so a spread, a
    partial spread and the line covering built on them row-reduce nothing:
    no call of _span_rows, the row reduction that span wraps."""
    def refuse(*args):
        raise AssertionError("_span_rows called")
    monkeypatch.setattr(subspaces, "_span_rows", refuse)
    build()


def test_field_tower_blocks_are_their_rref_as_written():
    """Every block of the spreads and partial spreads of F_q^n, q^n <= 1000,
    and every residual, a tuple of packed rows, is the packed rows of the
    block span builds from them."""
    count = 0
    for q, rho in itertools.product((2, 3, 5, 7), (1, 2, 3)):
        for m, n in itertools.product(range(rho, 2 * rho), range(2, 10)):
            if n <= m or (n - m) % rho or q ** n > 1000:
                continue
            blocks, residual = constructions._field_tower(q, rho, m, n)
            assert {len(rows) for rows in blocks} == {rho} and len(residual) == m
            for rows in blocks + [residual]:
                assert subspaces.span(q, n, rows).packed == rows
            count += len(blocks)
    assert count > 1000


@pytest.mark.parametrize("q,n,k,turan,covering", [
    (3, 5, 3, 0, 1), (2, 5, 3, 0, 1), (3, 4, 1, 0, 1), (3, 4, 4, 1, 0),
    (2, 3, 3, 1, 0)])
def test_turan_dual_covering_runs_one_census(monkeypatch, q, n, k, turan,
                                             covering):
    """The dual covering census certifies the point design too, except at
    k = n, where the Turan census runs instead."""
    calls = count_calls(monkeypatch, "verify_turan", "verify_covering")
    design = turan_dual_covering(q, n, k)
    assert calls == Counter(verify_turan=turan, verify_covering=covering)
    assert design == dualize(turan_point_design(q, n, k, verify=False))
    assert verify_covering(design, n - k).is_covering


def test_turan_dual_covering_fails_with_its_census(monkeypatch):
    uncovered = CoverageReport(1, {0: 1}, 0, 0, ())
    monkeypatch.setattr(constructions, "verify_covering",
                        lambda design, r: uncovered)
    with pytest.raises(ConstructionError,
                       match="^dual covering failed verification$"):
        turan_dual_covering(3, 5, 3)
    monkeypatch.setattr(constructions, "verify_turan",
                        lambda design, k: uncovered)
    with pytest.raises(ConstructionError,
                       match="^Turan point design failed verification$"):
        turan_dual_covering(3, 4, 4)


def test_turan_point_design():
    d = turan_point_design(2, 5, 3)
    assert len(d.blocks) == 2 ** 3 - 1
    assert verify_turan(d, 3).is_covering
    dual = turan_dual_covering(2, 5, 3)
    assert (dual.n, dual.k) == (5, 4)
    assert verify_covering(dual, 2).is_covering


def test_recursive_covering_27_blocks():
    s1 = optimal_line_covering(2, 4, 2)
    s2 = turan_dual_covering(2, 4, 2)  # the 7-block C_2[4,3,2]
    d = recursive_covering(s1, s2, 2)
    assert (d.n, d.k) == (5, 3)
    assert len(d.blocks) == 2 ** 2 * len(s1.blocks) + len(s2.blocks) == 27
    assert verify_covering(d, 2).is_covering


def reference_recursive_blocks(s1, s2):
    """The recursion's blocks with the coset representatives found by search:
    the first vector of each coset v + P in the odometer order of
    F_q^(n-1)."""
    q, n = s1.q, s1.n + 1
    gf = get_gf(q)
    blocks = []
    for p in s1.blocks:
        seen, reps, p_vectors = set(), [], enumerate_vectors(p)
        for v in enumerate_vectors(full_space(q, n - 1)):
            if v not in seen:
                reps.append(v)
                seen.update(vec_add(gf, v, u) for u in p_vectors)
        assert len(reps) == q ** (n - s2.k)
        base = [row + (0,) for row in p.rows]
        blocks += [tuple_span(q, n, base + [v + (1,)]) for v in reps]
    blocks += [tuple_span(q, n, [row + (0,) for row in b.rows]) for b in s2.blocks]
    return blocks


@pytest.mark.parametrize("q,n,k", [(2, 3, 1), (2, 4, 2), (2, 5, 2), (2, 5, 3),
                                   (2, 6, 4), (3, 3, 1), (3, 4, 2), (3, 4, 3),
                                   (3, 5, 2)])
def test_recursive_covering_equals_coset_search(monkeypatch, q, n, k):
    """On random inputs, which are rarely coverings, the blocks equal the
    reference's; the census is stubbed to pass so that the blocks are kept."""
    monkeypatch.setattr(constructions, "verify_covering",
                        lambda design, r: CoverageReport(1, {1: 1}, 1, 1, ()))
    rng = random.Random(f"{q}/{n}/{k}")

    def random_design(dim, size):
        blocks = {tuple_span(q, n - 1, [[rng.randrange(q) for _ in range(n - 1)]
                                  for _ in range(dim)]) for _ in range(size)}
        return SubspaceDesign.from_blocks([b for b in blocks if b.dim == dim],
                                          q=q, n=n - 1, k=dim)

    s1, s2 = random_design(k - 1, 6), random_design(k, 6)
    d = recursive_covering(s1, s2, 1)
    assert (d.q, d.n, d.k) == (q, n, k)
    assert d.blocks == SubspaceDesign.from_blocks(
        reference_recursive_blocks(s1, s2), q=q, n=n, k=k).blocks


def test_recursive_covering_rejects_mismatch():
    s1 = optimal_line_covering(2, 4, 2)
    with pytest.raises(ValueError, match=re.escape(
            "s1 has (q, n, k) = (2, 4, 2), s2 has (2, 5, 3)")):
        recursive_covering(s1, trivial_steiner(2, 5, 3), 2)


@pytest.mark.parametrize("r", [0, 3])
def test_recursive_covering_names_r_out_of_range(r):
    """r outside 1..k of s2 raises a ValueError that names r itself, before
    any census of the inputs runs at r - 1."""
    s1, s2 = spread(2, 1, 3), trivial_steiner(2, 3, 2)
    with pytest.raises(ValueError, match=f"^need 1 <= r <= k, got r={r}, k=2$"):
        recursive_covering(s1, s2, r)


# Each construction, and the Subspaces it builds: partial_spread only its
# residual, which it returns, and recursive_covering only the span of each
# of its q^(n-k) |s1| type-1 blocks, 4 * 7 here.
SUBSPACE_BUILDS = {
    "trivial": (lambda: trivial_steiner(2, 4, 2), 0),
    "trivial-zero": (lambda: trivial_steiner(3, 3, 0), 0),
    "spread": (lambda: spread(3, 2, 4), 0),
    "line-covering-spread": (lambda: optimal_line_covering(2, 6, 3), 0),
    "line-covering-lift": (lambda: optimal_line_covering(2, 5, 3), 0),
    "line-covering-partial": (lambda: optimal_line_covering(2, 7, 3), 0),
    "lift": (lambda: lift_covering(spread(2, 2, 4), 2), 0),
    "greedy": (lambda: greedy_covering(2, 4, 2, 1), 0),
    "turan-point": (lambda: turan_point_design(3, 5, 3), 0),
    "turan-dual": (lambda: turan_dual_covering(3, 5, 2), 0),
    "dualize": (lambda: dualize(turan_point_design(2, 5, 2, verify=False)), 0),
    "partial-spread": (lambda: partial_spread(2, 2, 7)[0], 1),
    "recursive": (lambda: recursive_covering(
        spread(2, 1, 3), trivial_steiner(2, 3, 2), 2), 28),
}


@pytest.mark.parametrize("kind", sorted(SUBSPACE_BUILDS))
def test_constructions_build_no_subspace_of_their_design(subspace_builds, kind):
    """Every construction builds its design from packed rows with
    SubspaceDesign.from_rows and leaves its blocks view unbuilt."""
    build, builds = SUBSPACE_BUILDS[kind]
    subspace_builds.clear()
    design = build()
    assert len(subspace_builds) == builds
    assert "blocks" not in vars(design)


def test_gf64_covering_design():
    d = gf64_covering_design()
    assert len(d.blocks) == 399
    assert (d.q, d.n, d.k) == (2, 7, 3)
    report = verify_covering(d, 2)
    assert report.is_covering
    # multiplicity profile: most pairs once-covered, a small triple-covered set
    assert report.min_multiplicity >= 1


GF64_SHA256 = "f8c23429033db5efcf6fb817b994fb9f6f4497e27ab4e92cbf1bcb47eb3bfe43"


def reference_gf64_blocks():
    """The 399 blocks built shift by shift on coordinate tuples, each block
    by span and an enumerate_vectors closure check."""
    gf64 = get_gf(64)
    assert gf64.modulus == GF64_MODULUS

    def vec(beta, bit):
        return coefficients(2, 6, beta) + (bit,)

    def to_block(vectors):
        block = tuple_span(2, 7, [v for v in vectors if any(v)])
        assert block.dim == 3
        assert set(enumerate_vectors(block)) == set(vectors) | {(0,) * 7}
        return block

    blocks = []
    for quad in GF64_QUADS:
        for shift in range(63):
            a = [gf64.alpha_pow(j + shift) for j in quad]
            blocks.append(to_block(
                [vec(0, 0)] + [vec(gf64.add(a[0], x), 0) for x in a[1:]]
                + [vec(x, 1) for x in a]))
    for shift in range(21):
        a = [gf64.alpha_pow(e + shift) for e in (0, 21, 42)]
        blocks.append(to_block([vec(x, bit) for bit in (0, 1)
                                for x in [0] + a]))
    for shift in range(63):
        blocks.append(to_block([vec(0, 0)] + [
            vec(gf64.alpha_pow(e + shift), 0) for e in GF64_LINE_EXPONENTS]))
    return blocks


def test_gf64_design_file_is_pinned():
    text = design_to_text(gf64_covering_design())
    assert hashlib.sha256(text.encode()).hexdigest() == GF64_SHA256


def test_gf64_blocks_equal_reference_builder():
    reference = reference_gf64_blocks()
    assert len(set(reference)) == 399
    d = gf64_covering_design()
    key = lambda s: (s.pivots, s.rows)
    assert sorted(map(key, d.blocks)) == sorted(map(key, reference))


def test_gf64_orbit_structure():
    """Under (beta, b) -> (alpha beta, b) the blocks form six orbits of 63
    and one of 21."""
    gf64 = get_gf(64)
    alpha = gf64.alpha_pow(1)

    def pack(beta, bit):
        return vec_pack(2, coefficients(2, 6, beta) + (bit,))
    # multiplication by alpha on packed vectors, the last coordinate untouched
    times_alpha = {pack(beta, bit): pack(gf64.mul(alpha, beta), bit)
                   for beta in range(64) for bit in (0, 1)}
    remaining = {frozenset(packed_vectors(b))
                 for b in gf64_covering_design().blocks}
    sizes = []
    while remaining:
        block = remaining.pop()
        size = 1
        image = frozenset(times_alpha[v] for v in block)
        while image != block:
            remaining.remove(image)
            size += 1
            image = frozenset(times_alpha[v] for v in image)
        sizes.append(size)
    assert sorted(sizes) == [21] + [63] * 6


def test_gf64_construct_and_bound_size_each_orbit_once(monkeypatch):
    """gf64_orbits runs the one orbit census, whose verify_orbits labels 7
    base and 49 target orbits: 56 lists labelled through
    GroupAction.orbits for the design and for the bound table alike.  The
    construction reads every base's orbit with one GroupAction.orbit_blocks
    call on the design of the 7 bases, and no orbit is sized twice."""
    labelled, blocks = [], []
    orbits, orbit_blocks = GroupAction.orbits, GroupAction.orbit_blocks

    def counted(self, vector_lists):
        vector_lists = list(vector_lists)
        labelled.extend(vector_lists)
        return orbits(self, vector_lists)

    def counted_blocks(self, bases):
        blocks.append(len(bases))
        return orbit_blocks(self, bases)
    monkeypatch.setattr(GroupAction, "orbits", counted)
    monkeypatch.setattr(GroupAction, "orbit_blocks", counted_blocks)
    gf64_covering_design()
    assert len(labelled) == 56
    assert blocks == [7]
    labelled.clear()
    bound_table(2, 7)
    assert len(labelled) == 56
    assert blocks == [7]


def test_gf64_certificate_runs_once_per_call(monkeypatch, tmp_path):
    """Nothing is cached across calls: every bound_table call with q = 2
    and n_max >= 7 runs gf64_orbits, and its verify_orbits certificate,
    again, no other table does, and construct gf64 and bounds --q 2
    --n-max 7 through cli.main each run them once."""
    runs = []
    gf64_orbits, verify_orbits = constructions.gf64_orbits, constructions.verify_orbits

    def counted(name, function):
        def run(*args):
            runs.append(name)
            return function(*args)
        return run
    monkeypatch.setattr(constructions, "gf64_orbits", counted("orbits", gf64_orbits))
    monkeypatch.setattr(constructions, "verify_orbits",
                        counted("certificate", verify_orbits))
    bound_table(2, 7)
    bound_table(2, 7)
    bound_table(2, 6)
    bound_table(3, 12)
    assert runs == ["orbits", "certificate"] * 2
    runs.clear()
    assert cli.main(["construct", "gf64", "-o", str(tmp_path / "gf64.txt")]) == 0
    assert runs == ["orbits", "certificate"]
    runs.clear()
    assert cli.main(["bounds", "--q", "2", "--n-max", "7"]) == 0
    assert runs == ["orbits", "certificate"]


def corrupt_images(action, images):
    """Replace g(v) by images[v] in action's cycle tables, which
    GroupAction.orbit_blocks reads; every g(v) is read before any entry
    changes."""
    rep, exponent, size, cycles = (action.rep, action.exponent, action.size,
                                   action.cycles)
    for u, w in [(action.image([v], 1)[0], w) for v, w in images.items()]:
        cycle = list(cycles[rep[u]])
        cycle[-exponent[u] % size[u]] = w
        cycles[rep[u]] = tuple(cycle)


def test_gf64_image_of_rank_below_3_raises(monkeypatch):
    """Each image must be a 3-subspace.  Here the cycle tables send the
    first base's vectors off its span of rows 2 and 3 to the images of the
    vectors on it, so image 1 is a 2-subspace listed twice: the span of the
    rows read off it, with 0 at index 1, and refused with its rank."""
    orbit_blocks = GroupAction.orbit_blocks

    def corrupted(self, bases):
        vectors = list(bases.vector_lists[0])  # row 1 is the slowest digit
        half = len(vectors) // 2
        corrupt_images(self, {v: self.image([w], 1)[0]
                              for v, w in zip(vectors[half:], vectors[:half])})
        return orbit_blocks(self, bases)
    monkeypatch.setattr(GroupAction, "orbit_blocks", corrupted)
    with pytest.raises(ConstructionError,
                       match="image 1 of a base block spans dim 2, not 3"):
        gf64_covering_design()


@pytest.mark.parametrize("outside, message", [
    (False, "image 1 of a base block is not closed under addition"),
    (True, "image 1 of a base block spans dim 4, not 3"),
])
def test_gf64_image_off_a_block_raises(monkeypatch, outside, message):
    """One cycle-table entry sends a vector of the first base to 0, so image
    1 holds 0 twice but has rank 3, or to a vector outside g(base), so
    image 1 has rank 4: the closure check refuses both."""
    orbit_blocks = GroupAction.orbit_blocks

    def corrupted(self, bases):
        vectors = list(bases.vector_lists[0])
        images = set(self.image(vectors, 1))
        w = min(set(range(1 << self.n)) - images) if outside else 0
        corrupt_images(self, {vectors[1]: w})
        return orbit_blocks(self, bases)
    monkeypatch.setattr(GroupAction, "orbit_blocks", corrupted)
    with pytest.raises(ConstructionError, match=f"^{message}$"):
        gf64_covering_design()


def test_gf64_image_error_names_the_image_in_its_base_orbit(monkeypatch):
    """orbit_blocks reads every base's images in one read_blocks call, yet
    a bad image is named by its place in its own base's orbit.  Here the
    cycle tables send the fixed vector GF64_BIT, which only the diagonal
    base (the sixth in the base design's order, after 5 * 63 images)
    holds, to 0: its first image holds 0 twice."""
    orbit_blocks = GroupAction.orbit_blocks

    def corrupted(self, bases):
        assert [constructions.GF64_BIT in vectors for vectors
                in bases.vector_lists] == [False] * 5 + [True, False]
        corrupt_images(self, {constructions.GF64_BIT: 0})
        return orbit_blocks(self, bases)
    monkeypatch.setattr(GroupAction, "orbit_blocks", corrupted)
    with pytest.raises(ConstructionError, match="^image 1 of a base block "
                                                "is not closed under addition$"):
        gf64_covering_design()


def test_gf64_unclosed_block_raises(monkeypatch):
    # A quadruple block is closed exactly when the quadruple sums to zero,
    # so the quadruple checks refuse a bad quadruple before any block is
    # built; the closure check is reached only with them out of the way.
    patched = ((0, 1, 1, 16),) + GF64_QUADS[1:]  # a1 = a2: 6 vectors, rank 3
    monkeypatch.setattr(constructions, "GF64_QUADS", patched)
    with pytest.raises(ConstructionError, match="difference set"):
        gf64_covering_design()
    monkeypatch.setattr(constructions, "_check_gf64_quads", lambda gf64: None)
    with pytest.raises(ConstructionError, match="not closed under addition"):
        gf64_covering_design()
    # a quadruple with a nonzero sum spans dimension 4
    monkeypatch.setattr(constructions, "GF64_QUADS",
                        ((0, 1, 4, 17),) + GF64_QUADS[1:])
    with pytest.raises(ConstructionError, match="spans dim 4, not 3"):
        gf64_covering_design()


def test_gf64_other_primitive_modulus_raises(monkeypatch):
    # x^6 + x^5 + 1 is primitive too, but the quadruples need alpha^6 =
    # alpha + 1.  The Field is built outside get_gf's cache, which keeps
    # the pinned GF(64) for the other tests.
    monkeypatch.setitem(DEFAULT_MODULI, (2, 6), (1, 0, 0, 0, 0, 1, 1))
    monkeypatch.setattr(constructions, "get_gf", lambda q: Field(2, 6))
    with pytest.raises(ConstructionError, match="is not x\\^6 \\+ x \\+ 1"):
        gf64_covering_design()


@pytest.mark.parametrize("exponents, message", [
    ((0, 1, 2), "not closed under addition"),
    # GF(8)*, fixed by alpha^9: a closed block whose orbit has size 9, so
    # the count is 5 * 63 + 21 + 9
    ((0, 9, 18, 27, 36, 45, 54), "gf64 block count 345 != 399"),
])
def test_gf64_bad_line_pattern_raises(monkeypatch, exponents, message):
    monkeypatch.setattr(constructions, "GF64_LINE_EXPONENTS", exponents)
    with pytest.raises(ConstructionError, match=message):
        gf64_covering_design()


def test_line_covering_size_checked_before_building():
    with pytest.raises(BudgetError):
        optimal_line_covering(2, 30, 2)


def test_greedy_budget_raises_budget_error():
    with pytest.raises(BudgetError):
        greedy_covering(2, 9, 4, 2)


def test_expand_full_grassmannian_to_steiner_system():
    s = trivial_steiner(2, 4, 2)
    system = expand_to_steiner_system(s)
    assert system.v == 16
    assert len(system.blocks) == 2 ** 2 * 15 * 7 // (3 * 1)
    assert len(system.blocks) == 140


def test_expand_trivial_structure():
    d = trivial_steiner(2, 3, 2)
    system = expand_to_steiner_system(d)
    assert system.v == 8
    assert len(system.blocks) == 14


def test_expand_rejects_non_steiner():
    d = optimal_line_covering(2, 5, 2)
    with pytest.raises(ConstructionError):
        expand_to_steiner_system(d)


def test_derive_steiner_from_trivial():
    d = trivial_steiner(2, 4, 2)
    point = tuple_span(2, 4, [(1, 0, 0, 0)])
    derived, report = derive_steiner(d, 2, point)
    assert (derived.n, derived.k) == (3, 1)
    assert len(derived.blocks) == 7
    assert report.is_steiner


@pytest.mark.parametrize("q", [2, 3])
def test_derive_steiner_equals_quotient_reference(q):
    """For every point of F_q^4, the blocks of S_q[3,3,4] through it map to
    the spans of their coordinate rows less the point's row times their
    entry at its pivot, that entry deleted: the same blocks and pivots."""
    d = trivial_steiner(q, 4, 3)
    gf = get_gf(q)
    for point in enumerate_grassmannian(q, 4, 1):
        (p_row,), (j0,) = point.rows, point.pivots
        derived, report = derive_steiner(d, 3, point)
        reference = []
        for block in d.blocks:
            if point.packed[0] in packed_vectors(block):
                rows = [gf.row_sub(v, v[j0], p_row) for v in block.rows]
                reference.append(tuple_span(q, 3, [w[:j0] + w[j0 + 1:]
                                                   for w in rows]))
        expected = SubspaceDesign.from_blocks(reference, q=q, n=3, k=2)
        assert derived == expected and report.is_steiner
        assert [b.pivots for b in derived.blocks] == [
            b.pivots for b in expected.blocks]


def test_derive_rejects_bad_point():
    d = trivial_steiner(2, 4, 2)
    with pytest.raises(ValueError):
        derive_steiner(d, 2, tuple_span(2, 4, [(1, 0, 0, 0), (0, 1, 0, 0)]))
    with pytest.raises(ValueError):
        derive_steiner(d, 1, tuple_span(2, 4, [(1, 0, 0, 0)]))


@pytest.mark.parametrize("args", [(2, 4, 2, -1), (2, 4, 2, 3), (2, 4, 5, 1)])
def test_greedy_names_r_k_and_n(args):
    q, n, k, r = args
    with pytest.raises(ValueError,
                       match=f"^need 0 <= r <= k <= n, got r={r}, k={k}, n={n}$"):
        greedy_covering(*args)


# Block count and sha256 of the design file of each greedy covering.
GREEDY_DIGESTS = {
    (2, 6, 4, 2): (21, "7184abf70290cc039402be1c5c2c14c0"
                       "f478996164736a1495a6463d5d808f7d"),
    (2, 7, 5, 2): (21, "461d586dc03bb21dc023f824d89f6afe"
                       "c37970bcc6fa58ab464fa91495e798a9"),
    (2, 7, 5, 3): (99, "54055d642e1bfed0ca90ba04415f7a28"
                       "7c6bb1d50311722a40cf7ee54ebd78c0"),
    (3, 5, 3, 2): (147, "e1f616e541e69a69ba99838ff0e82f50"
                        "989e9062a9b431c207ecce5267fac4a5"),
}


@pytest.mark.parametrize("args", sorted(GREEDY_DIGESTS))
def test_greedy_output_pinned(args):
    """The first block, in enumeration order, with the largest gain wins."""
    design = greedy_covering(*args)
    text = design_to_text(design)
    assert (len(design), hashlib.sha256(text.encode()).hexdigest()) \
        == GREEDY_DIGESTS[args]


def test_greedy_covering():
    d = greedy_covering(2, 4, 2, 1)
    assert verify_covering(d, 1).is_covering
    assert len(d.blocks) >= basic_lower(4, 2, 1, 2)
    d2 = greedy_covering(2, 5, 3, 2)
    assert verify_covering(d2, 2).is_covering
    assert len(d2.blocks) >= 27



# Each input guard of qcover.constructions: a call, the exception it raises
# and a fragment of its message.  Every builder caps n and checks q before
# it computes anything, so each guard raises within 0.1 s.
@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: optimal_line_covering(2, 3, 4), ValueError,
                 "need 1 <= k <= n, got (3,4)", id="line-covering-k-above-n"),
    pytest.param(lambda: optimal_line_covering(2, 3, 0), ValueError,
                 "need 1 <= k <= n, got (3,0)", id="line-covering-k0"),
    pytest.param(lambda: turan_point_design(2, 3, 4), ValueError,
                 "need 1 <= k <= n, got (3,4)", id="turan-points-k-above-n"),
    pytest.param(lambda: turan_point_design(2, 3, 0), ValueError,
                 "need 1 <= k <= n, got (3,0)", id="turan-points-k0"),
    pytest.param(lambda: expand_to_steiner_system(
        SubspaceDesign.from_blocks([full_space(3, 2)])), ConstructionError,
                 "expansion is defined over GF(2) only", id="expand-q3"),
    pytest.param(lambda: spread(2, 1, 10 ** 8), BudgetError,
                 "ambient dimension n=100000000 exceeds 64", id="spread-huge-n"),
    pytest.param(lambda: optimal_line_covering(2, 10 ** 5, 3), BudgetError,
                 "ambient dimension n=100000 exceeds 64",
                 id="line-covering-huge-n"),
    pytest.param(lambda: partial_spread(2, 2, 10 ** 5 + 1), BudgetError,
                 "ambient dimension n=100001 exceeds 64",
                 id="partial-spread-huge-n"),
    pytest.param(lambda: trivial_steiner(2, 10 ** 8, 5 * 10 ** 7), BudgetError,
                 "ambient dimension n=100000000 exceeds 64",
                 id="trivial-huge-n"),
    pytest.param(lambda: greedy_covering(2, 10 ** 6, 5 * 10 ** 5, 3),
                 BudgetError, "ambient dimension n=1000000 exceeds 64",
                 id="greedy-huge-n"),
    pytest.param(lambda: turan_point_design(2, 10 ** 5, 2), BudgetError,
                 "ambient dimension n=100000 exceeds 64",
                 id="turan-points-huge-n"),
    pytest.param(lambda: turan_dual_covering(2, 10 ** 5, 2), BudgetError,
                 "ambient dimension n=100000 exceeds 64",
                 id="turan-dual-huge-n"),
    pytest.param(lambda: trivial_steiner(1, 2, 1), FieldError,
                 "1 is not a prime power", id="trivial-q1"),
    pytest.param(lambda: spread(2, 0, 4), ValueError,
                 "k=0 does not divide n=4", id="spread-k0"),
    pytest.param(lambda: partial_spread(2, 0, 5), ValueError,
                 "(rho=0, n=5)", id="partial-spread-rho0"),
    pytest.param(lambda: spread(4, 2, 4), ValueError,
                 "spread uses a field tower over GF(q); composite q=4",
                 id="spread-q4"),
    pytest.param(lambda: partial_spread(4, 2, 5), ValueError,
                 "partial_spread uses a field tower over GF(q); composite q=4",
                 id="partial-spread-q4"),
    # k | n, so it builds a spread
    pytest.param(lambda: optimal_line_covering(4, 4, 2), ValueError,
                 "spread uses a field tower over GF(q); composite q=4",
                 id="line-covering-q4"),
])
def test_input_guards(call, error, message):
    start = time.perf_counter()
    with pytest.raises(error, match=re.escape(message)):
        call()
    assert time.perf_counter() - start < 0.1


# Each call past a budget, the message it raises, and whether it used to
# hang: the three hangs took the exact [n k]_q of a 10^8-bit number before
# any cap was checked; the other two raised messages of 397 and 697
# characters that printed block counts of about 300 digits.
@pytest.mark.parametrize("call, message, hung", [
    pytest.param(lambda: list(enumerate_grassmannian(2, 10 ** 8, 3)),
                 "ambient dimension n=100000000 exceeds 64", True,
                 id="enumerate_grassmannian"),
    pytest.param(lambda: verify_covering(SubspaceDesign.from_blocks(
        [], q=2, n=10 ** 8, k=3), 3),
                 "ambient dimension n=100000000 exceeds 64", True,
                 id="verify_covering"),
    pytest.param(lambda: verify_turan(SubspaceDesign.from_blocks(
        [], q=2, n=10 ** 8, k=0), 3),
                 "ambient dimension n=100000000 exceeds 64", True,
                 id="verify_turan"),
    pytest.param(lambda: optimal_line_covering(65521, 64, 1),
                 "[64 1]_65521 exceeds 10000000 subspaces", False,
                 id="line-covering"),
    pytest.param(lambda: partial_spread(65521, 2, 63),
                 "65521^63 vectors exceed 16777216", False,
                 id="partial-spread"),
])
def test_budget_errors_are_short_and_immediate(call, message, hung):
    start = time.perf_counter()
    with pytest.raises(BudgetError) as info:
        call()
    elapsed = time.perf_counter() - start
    assert str(info.value) == message and len(message) < 80
    assert not hung or elapsed < 0.01
