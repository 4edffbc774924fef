import copy
import functools
import itertools
import pickle
import random
import re
from operator import xor

import pytest

from qcover import subspaces
from qcover.bounds import gaussian
from qcover.constructions import gf64_orbits, turan_point_design
from qcover.designs import SubspaceDesign
from qcover.fields import get_gf, vec_pack, vec_unpack
from qcover.subspaces import (AmbientMismatch, BlockError, BudgetError,
                              GroupAction,
                              Subspace, complement_generators,
                              enumerate_grassmannian,
                              grassmannian_choices, grassmannian_rows,
                              orthogonal_complement, packed_vectors,
                              read_blocks, span, subspaces_of,
                              superspaces_containing)

from vector_reference import (enumerate_vectors, full_space, rref, tuple_span,
                              vec_add, vec_scale)


def random_subspace(rng, q, n, k):
    gf = get_gf(q)
    while True:
        vecs = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(k)]
        s = tuple_span(q, n, vecs)
        if s.dim == k:
            return s


def holds(a, b):
    """True iff b is a subspace of a, on their packed vector sets."""
    return set(packed_vectors(b)) <= set(packed_vectors(a))


def test_span_examples():
    assert tuple_span(2, 4, []).dim == 0
    s = tuple_span(2, 4, [(1, 0, 1, 0), (0, 1, 0, 1), (1, 1, 1, 1)])
    assert s.rows == ((1, 0, 1, 0), (0, 1, 0, 1))
    all_nonzero = [tuple(int(b) for b in f"{v:03b}")[::-1] for v in range(1, 8)]
    assert tuple_span(2, 3, all_nonzero).dim == 3


def test_span_idempotent_canonical():
    for s in enumerate_grassmannian(2, 4, 2):
        assert tuple_span(2, 4, s.rows).rows == s.rows
    for s in enumerate_grassmannian(3, 3, 2):
        assert tuple_span(3, 3, s.rows).rows == s.rows


def test_span_mixed_ambient_rejected():
    with pytest.raises(AmbientMismatch):
        tuple_span(2, 4, [(1, 0, 1), (1, 0, 0, 1)])


def test_containment():
    a = tuple_span(2, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    assert holds(a, a)
    assert holds(a, Subspace(2, 4, (), ()))
    assert holds(a, tuple_span(2, 4, [(1, 1, 0, 0)]))
    assert not holds(a, tuple_span(2, 4, [(0, 0, 1, 0)]))


def test_containment_ambient_mismatch():
    """Subspaces of different ambient spaces meet in a design, which
    refuses them."""
    with pytest.raises(AmbientMismatch):
        SubspaceDesign.from_blocks([tuple_span(2, 4, [(1, 0, 0, 0)]),
                                    tuple_span(2, 3, [(1, 0, 0)])])


def test_orthogonal_complement_examples():
    assert orthogonal_complement(full_space(2, 4)) == Subspace(2, 4, (), ())
    c = orthogonal_complement(tuple_span(2, 4, [(1, 0, 0, 0)]))
    assert c == tuple_span(2, 4, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])


def test_orthogonal_complement_involution_and_duality():
    """For every subspace s of F_q^n, q in {2, 3, 4} and n <= 4: the
    complement has dim n - k, its rows and pivots are those of
    span(q, n, _complement_rows(q, n, s.packed, s.pivots)), the row-reduced
    reference, each pivot is its row's first nonzero entry, every row is
    orthogonal to s, and complementing twice gives s back."""
    for q, n in itertools.product([2, 3, 4], range(5)):
        gf = get_gf(q)
        for k in range(n + 1):
            seen = set()
            for s in enumerate_grassmannian(q, n, k):
                c = orthogonal_complement(s)
                reference = span(q, n, subspaces._complement_rows(
                    q, n, s.packed, s.pivots))
                assert (c.rows, c.pivots) == (reference.rows, reference.pivots), s
                assert c.dim == n - k
                assert c.pivots == tuple([next(j for j, x in enumerate(row) if x)
                                          for row in c.rows])
                assert orthogonal_complement(c) == s
                seen.add(c)
                for u in s.rows:
                    for v in c.rows:
                        dot = 0
                        for x, y in zip(u, v):
                            dot = gf.add(dot, gf.mul(x, y))
                        assert dot == 0
            assert len(seen) == gaussian(n, k, q)


def test_containment_reversal_under_duality():
    subs = [s for k in range(5) for s in enumerate_grassmannian(2, 4, k)]
    rng = random.Random(3)
    for a, b in [(rng.choice(subs), rng.choice(subs)) for _ in range(200)]:
        assert holds(b, a) == holds(orthogonal_complement(a),
                                    orthogonal_complement(b))


@pytest.mark.parametrize("q,n,k,count", [
    (2, 4, 2, 35),
    (2, 7, 2, 2667),
    (3, 4, 0, 1),
    (3, 4, 2, 130),
])
def test_grassmannian_counts(q, n, k, count):
    assert gaussian(n, k, q) == count
    assert sum(1 for _ in enumerate_grassmannian(q, n, k)) == count


def test_grassmannian_unique_and_canonical():
    seen = set()
    for s in enumerate_grassmannian(3, 4, 2):
        assert s not in seen
        seen.add(s)
        assert tuple_span(3, 4, s.rows) == s


def test_grassmannian_brute_force_cross_check():
    # span of every pair of vectors in F_2^4, deduplicated
    vectors = list(itertools.product(range(2), repeat=4))
    planes = {tuple_span(2, 4, [u, v]) for u in vectors for v in vectors}
    planes = {s for s in planes if s.dim == 2}
    assert planes == set(enumerate_grassmannian(2, 4, 2))


def test_subspaces_of_budget_before_listing(monkeypatch):
    """[24 1]_2 passes the budget: subspaces_of and the Turan point design
    built on it raise before listing a vector or building the local row
    reader, which a small space reaches."""
    def refuse(*args):
        raise AssertionError("listed before the budget check")
    monkeypatch.setattr(subspaces, "packed_vectors", refuse)
    monkeypatch.setattr(subspaces, "_local_rows", refuse)
    with pytest.raises(BudgetError, match=r"\[24 1\]_2"):
        list(subspaces_of(full_space(2, 24), 1))
    with pytest.raises(BudgetError, match=r"\[24 1\]_2"):
        turan_point_design(2, 24, 1, verify=False)
    with pytest.raises(AssertionError, match="before the budget"):
        list(subspaces_of(full_space(2, 3), 1))


def test_subspaces_of():
    s = random_subspace(random.Random(5), 2, 7, 3)
    subs = list(subspaces_of(s, 2))
    assert len(subs) == 7
    assert len(set(subs)) == 7
    vectors = set(enumerate_vectors(s))
    assert all(set(enumerate_vectors(t)) <= vectors for t in subs)
    assert list(subspaces_of(s, 3)) == [s]
    assert list(subspaces_of(s, 0)) == [Subspace(2, 7, (), ())]
    with pytest.raises(ValueError):
        list(subspaces_of(s, 4))


def test_superspaces_containing():
    """One key per superspace: the packed complement generators of its RREF,
    whose span is orthogonal to s."""
    s = tuple_span(2, 4, [(1, 1, 0, 0)])
    vectors = set(enumerate_vectors(s))
    sups = list(superspaces_containing(SubspaceDesign.from_blocks([s]), 2))
    assert len(sups) == gaussian(3, 1, 2)
    assert len(set(sups)) == len(sups)
    assert all(vectors <= set(enumerate_vectors(orthogonal_complement(
        span(2, 4, key)))) for key in sups)
    # cross-check against a scan of the whole Grassmannian
    scan = [next(complement_generators(2, 4, t.pivots, zip(t.packed)))
            for t in enumerate_grassmannian(2, 4, 2)
            if vectors <= set(enumerate_vectors(t))]
    assert set(sups) == set(scan)


def test_enumerate_vectors():
    assert enumerate_vectors(Subspace(2, 3, (), ())) == [(0, 0, 0)]
    s = tuple_span(2, 4, [(1, 0, 1, 0), (0, 1, 0, 1)])
    vs = enumerate_vectors(s)
    assert len(vs) == 4 and vs[0] == (0, 0, 0, 0)
    gf = get_gf(2)
    vset = set(vs)
    for u in vs:
        for v in vs:
            assert vec_add(gf, u, v) in vset


def test_budget_guard():
    with pytest.raises(BudgetError):
        list(enumerate_grassmannian(2, 30, 15))


def test_subspace_is_immutable():
    s = tuple_span(3, 4, [(1, 2, 0, 1), (0, 0, 1, 2)])
    for name in ("q", "n", "rows", "pivots", "other"):
        with pytest.raises(AttributeError):
            setattr(s, name, 1)
        with pytest.raises(AttributeError):
            delattr(s, name)
    assert s.rows == ((1, 2, 0, 1), (0, 0, 1, 2)) and s.pivots == (0, 2)
    for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert twin == s and twin.pivots == s.pivots


def test_subspace_equality_and_hash_ignore_pivots():
    s = tuple_span(3, 4, [(1, 2, 0, 1), (0, 0, 1, 2)])
    bare = Subspace(3, 4, s.packed, ())
    assert bare.pivots == ()
    assert bare == s and hash(bare) == hash(s) == hash((3, 4, s.packed))
    assert s != Subspace(2, 4, s.packed, s.pivots)
    assert s != Subspace(3, 5, s.packed, s.pivots)
    assert s != tuple_span(3, 4, [(1, 2, 0, 1)])
    assert s != (3, 4, s.packed)
    assert len({s, bare, tuple_span(3, 4, s.rows)}) == 1


def test_subspace_repr_and_sort_key():
    s = tuple_span(3, 4, [(1, 2, 0, 1), (0, 0, 1, 2)])
    assert repr(s) == "Subspace(q=3,n=4,[1201,0012])"
    assert repr(Subspace(2, 3, (), ())) == "Subspace(q=2,n=3,[])"
    assert repr(tuple_span(11, 3, [(1, 0, 10), (0, 1, 5)])) == \
        "Subspace(q=11,n=3,[1 0 10,0 1 5])"
    assert s.sort_key() == (s.pivots, s.packed)
    assert s.dim == 2


def test_design_from_blocks_deduplicates_equal_subspaces():
    s = tuple_span(3, 4, [(1, 2, 0, 1), (0, 0, 1, 2)])
    other = tuple_span(3, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    again = tuple_span(3, 4, [(1, 2, 1, 0), (0, 0, 2, 1)])  # another basis of s
    d = SubspaceDesign.from_blocks([s, other, again, Subspace(3, 4, s.packed, ())])
    assert d.blocks == (other, s)


def test_build_counter_sees_every_route(subspace_builds):
    """The subspace_builds counter counts one build per block for each route
    that makes a Subspace: a call, map over the class, copy, deepcopy, a
    pickle round trip, span, orthogonal_complement, _rref_blocks (k = 2
    and the zero block), and a block whose slots are written without
    __init__."""
    s = tuple_span(3, 4, [(1, 2, 0, 1), (0, 0, 1, 2)])
    subspace_builds.clear()
    blocks = [Subspace(3, 4, s.packed, s.pivots)]
    blocks += map(Subspace, [3, 2], [4, 3], [s.packed, (4,)], [s.pivots, (0,)])
    blocks += [copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))]
    blocks += [span(3, 4, s.packed), orthogonal_complement(s)]
    blocks += subspaces._rref_blocks(3, 4, [s.packed, s.packed, ()])
    bare = object.__new__(Subspace)
    subspaces._set_q(bare, 3)
    assert [(b.packed, b.pivots) for b in blocks[-3:]] == [
        (s.packed, s.pivots)] * 2 + [((), ())]
    assert len(subspace_builds) == len(blocks) + 1 == 12
    assert subspace_builds == [3, 3, 2] + [3] * 9


def test_subspace_needs_its_pivots():
    """Rows with no pivots would give a subspace whose membership tests and
    complement read no pivot columns, so the pivots have no default."""
    s = tuple_span(3, 4, [(1, 2, 0, 1), (0, 0, 1, 2)])
    with pytest.raises(TypeError):
        Subspace(3, 4, s.packed)
    assert Subspace(3, 4, s.packed, s.pivots).pivots == (0, 2)


@pytest.mark.parametrize("q, n", [(q, n) for q in (2, 3, 4, 5) for n in range(5)]
                         + [(2, 12)])
def test_packed_rows_agree_with_coordinate_rows(q, n):
    """A Subspace stores packed RREF rows and unpacks rows on read, from the
    digit table while q^n <= DIGIT_TABLE_MAX and by vec_unpack past it
    (F_2^12, where the first 200 subspaces of each dimension within the
    enumeration budget are checked).
    For every subspace of enumerate_grassmannian: rows is vec_unpack of
    packed and span packs them back; sorting by sort_key gives the order
    of (pivots, coordinate rows); equality and hash agree with
    (q, n, coordinate rows)."""
    assert (q ** n > subspaces.DIGIT_TABLE_MAX) == (n == 12)
    cap = 200 if n == 12 else None
    subs = [s for k in range(n + 1)
            if gaussian(n, k, q) <= subspaces.MAX_SUBSPACE_ENUM
            for s in itertools.islice(enumerate_grassmannian(q, n, k), cap)]
    for s in subs:
        assert s.rows == tuple(vec_unpack(q, n, v) for v in s.packed)
        assert tuple_span(q, n, s.rows).packed == s.packed
    rng = random.Random(100 * q + n)
    shuffled = rng.sample(subs, len(subs))
    assert sorted(shuffled, key=Subspace.sort_key) == sorted(
        shuffled, key=lambda s: (s.pivots, s.rows))
    others = [Subspace(q, n + 1, s.packed, s.pivots) for s in subs[:20]]
    others += [Subspace(q + 1, n, s.packed, s.pivots) for s in subs[:20]]
    pairs = [(s, t) for s in subs + others
             for t in rng.sample(subs + others, min(10, len(subs)))]
    for s, t in pairs + [(s, Subspace(q, n, s.packed, ())) for s in subs]:
        same = (s.q, s.n, s.rows) == (t.q, t.n, t.rows)
        assert (s == t) == same and (s != t) != same
        if same:
            assert hash(s) == hash(t)
    assert len(set(subs + others)) == len({(s.q, s.n, s.rows)
                                           for s in subs + others})


def test_subspaces_caches_are_bounded():
    caches = [obj for obj in vars(subspaces).values()
              if isinstance(obj, functools._lru_cache_wrapper)
              and obj.__module__ == subspaces.__name__]
    assert caches
    for cache in caches:
        assert cache.cache_parameters()["maxsize"] is not None, cache


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_span_equals_rref(q):
    """span of random packed vectors, zero and dependent ones among them,
    against the tuple reference rref: the same rows, pivots and packed
    rows, for every n up to the first whose q^n passes DIGIT_TABLE_MAX
    (2^11, 3^7, 4^6, 5^5, 7^4, 8^4, 9^4), where rows unpack by vec_unpack."""
    rng = random.Random(20261018 + q)
    gf = get_gf(q)
    top = next(n for n in itertools.count() if q ** n > subspaces.DIGIT_TABLE_MAX)
    for n in range(top + 1):
        for _ in range(40):
            vectors = [rng.randrange(q ** n) for _ in range(rng.randint(0, n + 3))]
            if vectors and rng.random() < 0.5:  # zero and dependent vectors
                u, v = (vec_unpack(q, n, rng.choice(vectors)) for _ in range(2))
                w = vec_add(gf, u, vec_scale(gf, rng.randrange(q), v))
                vectors += [0, vec_pack(q, w)]
                rng.shuffle(vectors)
            s = span(q, n, vectors)
            ref_rows, ref_pivots = rref(gf, [vec_unpack(q, n, v) for v in vectors], n)
            assert (s.q, s.n) == (q, n)
            assert (s.rows, s.pivots) == (ref_rows, ref_pivots)
            assert s.packed == tuple(vec_pack(q, row) for row in ref_rows)


def test_xor_rref_rows_unpack_as_vec_unpack():
    """Rows come from the digit table while 2^n <= DIGIT_TABLE_MAX and
    from vec_unpack above it; both give the same Subspace.  The table's
    inverse packs rows up to the same n.  span's XOR row reduction for
    q = 2 gives the tuple reference's rows."""
    for n in range(11):
        assert 2 ** n <= subspaces.DIGIT_TABLE_MAX
        unpack, pack = subspaces._digit_table(2, n)
        assert list(map(unpack, range(1 << n))) == [vec_unpack(2, n, v)
                                                    for v in range(1 << n)]
        assert [pack(vec_unpack(2, n, v)) for v in range(1 << n)] == list(
            range(1 << n))
    rng = random.Random(11)
    for n in range(0, 14):
        for _ in range(20):
            vectors = [rng.randrange(1 << n) for _ in range(rng.randint(0, n))]
            s = span(2, n, vectors)
            assert s.rows == tuple(vec_unpack(2, n, row) for row in s.packed)
            assert (s.rows, s.pivots) == rref(
                get_gf(2), [vec_unpack(2, n, v) for v in vectors], n)
            assert packed_vectors(s) == [vec_pack(2, v)
                                         for v in enumerate_vectors(s)]


def test_xor_rref_edge_cases():
    """span's XOR row reduction for q = 2."""
    s = span(2, 4, [])
    assert s.packed == () and s == Subspace(2, 4, (), ()) and s.pivots == ()
    s = span(2, 3, [0, 0])
    assert s.packed == () and s.dim == 0
    s = span(2, 3, [0b111, 0b011, 0b100, 0b110])
    assert s == full_space(2, 3) and s.pivots == (0, 1, 2)
    assert s.packed == (0b100, 0b010, 0b001)
    for bad in (1 << 4, -1):
        with pytest.raises(AmbientMismatch):
            span(2, 4, [bad])


def random_generators(rng, n, k, d):
    """k shuffled packed vectors of F_2^n of rank d."""
    basis = [rng.randrange(1 << n) for _ in range(d)]
    while span(2, n, basis).dim < d:
        basis = [rng.randrange(1 << n) for _ in range(d)]
    g = basis + [functools.reduce(xor, rng.sample(basis, rng.randint(0, d)), 0)
                 for _ in range(k - d)]
    rng.shuffle(g)
    return g


def test_read_blocks_equal_xor_rref():
    """read_blocks against span on shuffled spans of k packed vectors of
    every rank d <= k, for every k <= 6 and n <= 12 (rows unpack from
    the digit table up to n = 10, by vec_unpack past it).  Full-rank lists, read
    together (2^k + 1 of them for k <= 4, so a whole column at a time),
    give the packed rows of span's blocks, one k-tuple per list, whose
    pivots are span's.  A span of k dependent
    vectors, which lists each vector 2^(k-d) times, put among them raises
    BlockError with its index and rank; so does a list with a vector
    outside the span."""
    rng = random.Random(20261020)
    ranks = set()
    for n in range(1, 13):
        for k in range(1, min(n, 6) + 1):
            full = [rng.sample(subspaces._xor_span(random_generators(rng, n, k, k)),
                               1 << k)
                    for _ in range((1 << k) + 1 if k <= 4 else 4)]
            rows = read_blocks(n, k, full)
            refs = [span(2, n, vectors) for vectors in full]
            assert rows == [ref.packed for ref in refs]
            assert [tuple(subspaces._pivot_reader(2, n)(block))
                    for block in rows] == [ref.pivots for ref in refs]
            assert [tuple([vec_unpack(2, n, v) for v in block])
                    for block in rows] == [ref.rows for ref in refs]
            ranks.add((k, k))
            bad = [(d, rng.sample(subspaces._xor_span(
                random_generators(rng, n, k, d)), 1 << k)) for d in range(k)]
            if 1 < k < n:  # a vector outside the span, in place of one inside
                vectors = list(full[0])
                outside = min(set(range(1 << n)) - set(vectors))
                vectors[vectors.index(max(vectors))] = outside
                bad.append((k + 1, vectors))
            for d, vectors in bad:
                at = rng.randrange(len(full) + 1)
                with pytest.raises(BlockError) as info:
                    read_blocks(n, k, full[:at] + [vectors] + full[at:])
                assert (info.value.index, info.value.fault) == (
                    at, f"spans dim {d}, not {k}")
                assert str(info.value) == f"vector list {at} spans dim {d}, not {k}"
                ranks.add((k, d))
    assert ranks >= {(k, d) for k in range(1, 7) for d in range(k + 1)}


@pytest.mark.parametrize("n, k", [(3, 1), (4, 2), (7, 3), (12, 6)])
def test_read_blocks_refuses_unclosed_and_misfit_lists(n, k):
    """A list of 2^k vectors of rank k that repeats one is not closed under
    addition.  A list of the wrong length is refused the same way, by its
    rank from span, before any row is read off it: a short list has no
    vector at index 2^(k-1) to read."""
    rng = random.Random(n * k)
    listed = rng.sample(subspaces._xor_span(random_generators(rng, n, k, k)),
                       1 << k)
    good = sorted(listed)
    lists = []
    if k > 1:  # a nonzero vector repeated over another: still rank k
        repeated = list(good)
        repeated[1] = repeated[2]
        lists.append(repeated)
    lists += [good[:1], good[:-1], good + [good[-1]], good + good]
    for vectors in lists:
        rank = span(2, n, vectors).dim
        fault = (f"spans dim {rank}, not {k}" if rank != k
                 else "is not closed under addition")
        with pytest.raises(BlockError) as info:
            read_blocks(n, k, [listed, vectors])
        assert (info.value.index, info.value.fault) == (1, fault)
    if k > 1:
        with pytest.raises(BlockError, match="^vector list 0 is not closed "
                                             "under addition$"):
            read_blocks(n, k, [lists[0]])


# Each input guard of qcover.subspaces: a call, the exception it raises and
# a fragment of its message.  The generators raise on their first next(), and
# the budget cases raise before they build anything: 2^25 vectors is past
# MAX_VECTOR_ENUM.  read_blocks checks the range of every list before the
# shape of any, so a short list before an out-of-range one is not named.
@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: next(grassmannian_choices(2, 3, 4)), ValueError,
                 "need 0 <= k <= n, got k=4, n=3", id="grassmannian_choices-k-above-n"),
    pytest.param(lambda: next(grassmannian_rows(2, 3, 4)), ValueError,
                 "need 0 <= k <= n, got k=4, n=3", id="grassmannian_rows-k-above-n"),
    pytest.param(lambda: next(enumerate_grassmannian(2, -1, 0)), ValueError,
                 "need 0 <= k <= n, got k=0, n=-1", id="enumerate_grassmannian-k0-n-negative"),
    pytest.param(lambda: next(enumerate_grassmannian(2, 65, 0)), BudgetError,
                 "ambient dimension n=65 exceeds 64", id="enumerate_grassmannian-k0-budget"),
    pytest.param(lambda: next(superspaces_containing(
        SubspaceDesign.from_blocks([full_space(2, 3)]), 2)),
                 ValueError, "need dim <= k <= n, got k=2",
                 id="superspaces_containing-k-below-dim"),
    pytest.param(lambda: enumerate_vectors(full_space(2, 25)), BudgetError,
                 "2^25 vectors exceed", id="enumerate_vectors-budget"),
    pytest.param(lambda: GroupAction(25, [1 << i for i in range(25)]), BudgetError,
                 "2^25 vectors exceed", id="GroupAction-budget"),
    pytest.param(lambda: GroupAction(2, [1, 8]), AmbientMismatch,
                 "packed vector 8 outside F_2^2", id="GroupAction-image-too-big"),
    pytest.param(lambda: GroupAction(2, [-1, 2]), AmbientMismatch,
                 "packed vector -1 outside F_2^2", id="GroupAction-image-negative"),
    pytest.param(lambda: read_blocks(3, 1, [[0], [0, -1]]), AmbientMismatch,
                 "packed vector -1 outside F_2^3", id="read_blocks-negative"),
    pytest.param(lambda: read_blocks(3, 1, [[0, 4], [9, 0]]), AmbientMismatch,
                 "packed vector 9 outside F_2^3", id="read_blocks-too-big"),
    pytest.param(lambda: GroupAction(3, [1, 2, 4]).orbit([]), ValueError,
                 "an empty vector set has no orbit", id="orbit-empty"),
    pytest.param(lambda: gf64_orbits()[0].orbit([0, -1]), AmbientMismatch,
                 "packed vector -1 outside F_2^7", id="orbit-negative"),
    pytest.param(lambda: gf64_orbits()[0].orbit([0, 128]), AmbientMismatch,
                 "packed vector 128 outside F_2^7", id="orbit-too-big"),
    pytest.param(lambda: gf64_orbits()[0].image([-1, 3], 1), AmbientMismatch,
                 "packed vector -1 outside F_2^7", id="image-negative"),
    pytest.param(lambda: gf64_orbits()[0].image([3, 128], 1), AmbientMismatch,
                 "packed vector 128 outside F_2^7", id="image-too-big"),
    pytest.param(lambda: span(2, 4, [3, 16]), AmbientMismatch,
                 "packed vector 16 outside F_2^4", id="span-q2-too-big"),
    pytest.param(lambda: span(3, 2, [-1]), AmbientMismatch,
                 "packed vector -1 outside F_3^2", id="span-q3-negative"),
    pytest.param(lambda: span(3, 2, [9]), AmbientMismatch,
                 "packed vector 9 outside F_3^2", id="span-q3-too-big"),
    pytest.param(lambda: span(5, 2, [25]), AmbientMismatch,
                 "packed vector 25 outside F_5^2", id="span-q5-too-big"),
])
def test_input_guards(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
