"""Design containers, covering/Turan/Steiner verifiers and set-system output.

A SubspaceDesign is a duplicate-free set of equal-dimension subspaces, held
as their sorted packed RREF rows, with Subspaces built only when read.  The
covering verifier supports two independent strategies (expanding each block
into its r-subspaces, or scanning every target subspace against the blocks)
and the two must agree; tests cross-validate them on the whole corpus.  A
design given as the orbits of base blocks under a GroupAction has a third
route, verify_orbits, which counts on the base blocks only.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from operator import and_, attrgetter, itemgetter, lt, not_
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from .bounds import gaussian
from .fields import FieldError, get_gf, vec_pack
from .subspaces import (DIGIT_TABLE_MAX, MAX_SUBSPACE_ENUM, XOR_CHUNK,
                        AmbientMismatch, BudgetError, GroupAction, Subspace,
                        _canonical_rows, _digit_table, _local_rows,
                        _perp_rows, _pivot_reader, _span_rows, _xor_chunk,
                        _xor_span, check_ambient,
                        complement_generators, complement_vectors,
                        grassmannian_choices, grassmannian_rows,
                        span_vector_lists, subspace_count,
                        superspaces_containing)

WITNESS_CAP = 16
_sort_key = attrgetter("pivots", "packed")  # Subspace.sort_key, read in C


@dataclass(frozen=True)
class SubspaceDesign:
    """A set of k-dimensional subspaces of F_q^n, held as its blocks' packed
    RREF rows: packed[i] and pivots[i] are the rows and pivots of block i,
    the blocks sorted by (pivots, packed), as Subspace.sort_key sorts them.

    blocks, vector_lists and complement_lists are read-only views, each
    built on first read and kept by the design: blocks the Subspaces, and
    the vector lists that every census of the design reads, so the design
    is listed once however many censuses it gets.  The value is q, n, k
    and packed alone: pivots, which the rows fix, and the views are left
    out of equality and hash, and repr shows the blocks.
    """

    q: int
    n: int
    k: int
    packed: Tuple[Tuple[int, ...], ...]
    pivots: Tuple[Tuple[int, ...], ...] = field(compare=False)

    @staticmethod
    def from_rows(q: int, n: int, k: int, blocks: Iterable[Tuple[int, ...]],
                  pivots: Iterable[Tuple[int, ...]] = None) -> "SubspaceDesign":
        """The design of the blocks of F_q^n whose packed RREF rows are
        blocks, a k-tuple per block, in any order and with duplicates: the
        one design builder, which builds no Subspace.  pivots are the
        blocks' pivots, a k-tuple per block, when the caller has them, as
        _canonical_rows reads them; else _pivot_reader reads them a column
        of rows at a time.  A block's key is its pivots then its rows, one
        tuple, which orders as Subspace.sort_key and compares faster; the
        keys are deduplicated and sorted in C, unless they are already
        strictly increasing, as design_to_text writes them."""
        if not 0 <= k <= n:
            raise ValueError(f"need 0 <= k <= n, got n={n} k={k}")
        blocks = list(blocks)
        if not set(map(len, blocks)) <= {k}:
            raise ValueError(f"a block has no {k} rows")
        if pivots is None:  # a zero block's pivots are its rows, ()
            pivots = (zip(*map(tuple, map(_pivot_reader(q, n), zip(*blocks))))
                      if k else blocks)
        pivots = list(pivots)
        keys = list(map(tuple.__add__, pivots, blocks))
        if not all(map(lt, keys, itertools.islice(keys, 1, None))):
            keys = sorted(set(keys))
            blocks = map(itemgetter(slice(k, None)), keys)
            pivots = map(itemgetter(slice(k)), keys)
        return SubspaceDesign(q, n, k, tuple(blocks), tuple(pivots))

    @staticmethod
    def from_blocks(blocks: Iterable[Subspace], q: int = None, n: int = None,
                    k: int = None) -> "SubspaceDesign":
        """from_rows of the Subspaces' packed rows, once every block's shape
        is checked; their pivots are read again from the rows.  q, n and k
        default to those of the block that sorts first by Subspace.sort_key,
        and a mismatch names the first block outside (q, n, k) in that
        order."""
        blocks = list(blocks)
        if blocks and None in (q, n, k):
            first = min(blocks, key=_sort_key)
            q, n, k = (first.q if q is None else q, first.n if n is None else n,
                       first.dim if k is None else k)
        if q is None or n is None or k is None:
            raise ValueError("empty design needs explicit q, n, k")
        wrong = [b for b in blocks if (b.q, b.n, b.dim) != (q, n, k)]
        if wrong:
            b = min(wrong, key=_sort_key)
            raise AmbientMismatch(
                f"block ({b.q},{b.n},dim {b.dim}) in design ({q},{n},k={k})")
        return SubspaceDesign.from_rows(q, n, k, map(attrgetter("packed"), blocks))

    def __len__(self):
        return len(self.packed)

    def __repr__(self):
        return (f"SubspaceDesign(q={self.q}, n={self.n}, k={self.k}, "
                f"blocks={self.blocks!r})")

    @property
    def blocks(self) -> Tuple[Subspace, ...]:
        """The blocks as Subspaces, in order, built from packed and pivots
        on first read and kept."""
        blocks = self.__dict__.get("blocks")
        if blocks is None:
            blocks = self.__dict__["blocks"] = tuple(map(
                Subspace, itertools.repeat(self.q), itertools.repeat(self.n),
                self.packed, self.pivots))
        return blocks

    @property
    def vector_lists(self) -> Sequence[Sequence[int]]:
        """span_vector_lists of the blocks; see _kept."""
        return self._kept("vector_lists", self.k, span_vector_lists,
                          self.packed)

    @property
    def complement_lists(self) -> Sequence[Sequence[int]]:
        """complement_vectors of the blocks; see _kept."""
        return self._kept("complement_lists", self.n - self.k,
                          complement_vectors, self.packed, self.pivots)

    def _kept(self, name: str, dim: int, lister: Callable, *lists):
        """lister(q, n, k, *lists), the q^dim vectors of each block's list,
        built on first read and kept while they total at most XOR_CHUNK
        vectors.  Past that each read lists the blocks again, streaming.
        lister raises BudgetError before it builds a vector, so a raise
        keeps nothing."""
        kept = self.__dict__.get(name)
        if kept is None:
            kept = lister(self.q, self.n, self.k, *lists)
            if len(self) * self.q ** dim <= XOR_CHUNK:
                kept = self.__dict__[name] = tuple(kept)
        return kept


@dataclass(frozen=True)
class CoverageReport:
    """Exact multiplicity census of a verification run; the witnesses are the
    first uncovered targets (subspaces, or point tuples of a set system)."""

    total: int
    histogram: Dict[int, int]
    min_multiplicity: int
    max_multiplicity: int
    witnesses: tuple

    @property
    def is_covering(self) -> bool:
        return self.min_multiplicity >= 1

    @property
    def is_steiner(self) -> bool:
        return self.min_multiplicity == 1 and self.max_multiplicity == 1

    def summary(self) -> str:
        hist = " ".join(f"{m}:{c}" for m, c in sorted(self.histogram.items()))
        return (f"targets={self.total} min={self.min_multiplicity} "
                f"max={self.max_multiplicity} histogram[{hist}]")


def _report(total: int, histogram: Counter, misses: Iterable) -> CoverageReport:
    """Report of a census with this multiplicity histogram, which must sum
    to total (else RuntimeError, under python -O too).  The witnesses are
    the first WITNESS_CAP targets of misses, which is read only when some
    target is uncovered."""
    histogram = {m: c for m, c in sorted(histogram.items()) if c}
    if sum(histogram.values()) != total:
        raise RuntimeError(f"census histogram sums to "
                           f"{sum(histogram.values())}, not {total} targets")
    witnesses = tuple(itertools.islice(misses, WITNESS_CAP)) if 0 in histogram else ()
    return CoverageReport(total, histogram, min(histogram), max(histogram), witnesses)


def _report_from_counts(counts: Counter, total: int,
                        misses: Iterable) -> CoverageReport:
    """Report of a census that counted every covered target in counts;
    misses yields the targets absent from it, in enumeration order."""
    histogram = Counter(counts.values())
    histogram[0] = total - len(counts)
    return _report(total, histogram, misses)


def _misses(q: int, n: int, dim: int, keys: Callable[[tuple, tuple], Iterable],
            covered: Callable) -> Iterator[Subspace]:
    """The dim-subspaces of F_q^n, in enumeration order, whose keys fail
    covered.  keys maps a grassmannian_choices entry (pivots, packed) to one
    key per subspace of itertools.product(*packed), in that order;
    compress picks out the misses' rows in C, and a Subspace is built only
    for a miss, with the entry's pivots."""
    for pivots, packed in grassmannian_choices(q, n, dim):
        for t in itertools.compress(itertools.product(*packed), map(
                not_, map(covered, keys(pivots, packed)))):
            yield Subspace(q, n, t, pivots)


def _packed_rows(pivots: tuple, packed: tuple) -> Iterator[tuple]:
    """The packed RREF rows of each subspace of a grassmannian_choices entry,
    the key of the covering censuses."""
    return itertools.product(*packed)


def _count_product(start: int, factors: Sequence[Sequence[int]],
                   found: Counter, popcounts: List[int]) -> None:
    """Count the popcount of start & m_1 & ... & m_f for every way of
    taking one mask m_i from each factor: append it to popcounts, or add a
    run of equal ones to found at once.

    Single-mask factors fold into start, and the rest run smallest first,
    breadth-first: each level ANDs every surviving prefix with every mask
    of the next factor in one starmap over their product, so each prefix
    AND is shared by every product below it.  filter drops the zero
    prefixes, each of which adds its whole subtree (width products) to
    multiplicity 0 at once, and the largest factor is ANDed and popcounted
    last, all in C.  The caller counts popcounts with one Counter.update,
    as each update pays a Python-level type check.
    """
    lists = []
    for masks in factors:
        if len(masks) == 1:
            start &= masks[0]
        else:
            lists.append(masks)
    if not (start and lists):
        found[start.bit_count()] += math.prod(map(len, lists))
        return
    lists.sort(key=len)
    *heads, last = lists
    width = math.prod(map(len, lists))  # products below one prefix
    prefixes = [start]
    for head in heads:
        tried = len(prefixes) * len(head)
        width //= len(head)
        prefixes = list(filter(None, itertools.starmap(
            and_, itertools.product(prefixes, head))))
        found[0] += (tried - len(prefixes)) * width
    popcounts.extend(map(int.bit_count, itertools.starmap(
        and_, itertools.product(prefixes, last))))


def _scan(q: int, n: int, dim: int, vector_lists: Iterable[Sequence[int]]
          ) -> Tuple[Counter, Callable[[Iterable[int]], int]]:
    """Multiplicity histogram of the dim-subspaces of F_q^n, and holders.

    A target's multiplicity is the number of vector lists, one per block,
    that hold all of its packed RREF rows: the popcount of the AND of the
    rows' block bitmasks, kept in one dict keyed by packed vector, whatever
    q (a table indexed by vector would need q^n slots).  Per
    grassmannian_choices entry, each row's mask list is read by one map
    over its choices, and _count_product counts the AND over the product
    of those lists; its popcounts are counted once per XOR_CHUNK of them,
    so once for most scans, and held no longer.
    holders(vectors) is the bitmask of the lists that hold every one of the
    given packed vectors, for the witness walks.
    """
    masks: Dict[int, int] = {}
    get = masks.get
    bit = 1
    for vectors in vector_lists:
        for v in vectors:
            masks[v] = get(v, 0) | bit
        bit <<= 1
    every = bit - 1
    zeros = itertools.repeat(0)
    found: Counter = Counter()
    popcounts: List[int] = []
    for _, packed in grassmannian_choices(q, n, dim):
        _count_product(every, [list(map(get, choices, zeros))
                               for choices in packed], found, popcounts)
        if len(popcounts) > XOR_CHUNK:
            found.update(popcounts)
            popcounts.clear()
    found.update(popcounts)
    return found, lambda vectors: functools.reduce(and_, map(get, vectors, zeros),
                                                   every)


def verify_covering(design: SubspaceDesign, r: int,
                    strategy: str = "expand") -> CoverageReport:
    """Multiplicity of every r-subspace of F_q^n among the design's blocks.

    strategy: "expand" (the default; as [k r]_q <= [n r]_q it never counts
    more incidences than scan tests pairs) enumerates each block's
    r-subspaces; "scan" tests each r-subspace of the ambient space against
    every block.  Both key a target by its packed RREF rows and read the
    blocks' vectors off design.vector_lists, which the design keeps for its
    other censuses while it is small.  Expand is one pass over the
    whole design: the _local_rows reader reads the rows of every r-subspace
    of every block off those lists at local_row_indices, with no row
    reduction, sort or Python step per target (nor per block, for q = 2
    designs of 2^k blocks or more), and one Counter.update counts them.  Scan marks each packed vector with the
    bitmask of the blocks that hold it; a target's multiplicity is the
    popcount of the AND of its rows' masks.  Per pivot set it counts the AND
    over the product of the RREF rows' mask lists, sharing each prefix
    across the targets below it, and walks targets one by one only to list
    the witnesses.
    """
    q, n, k = design.q, design.n, design.k
    if not 0 <= r <= k:
        raise ValueError(f"need 0 <= r <= k, got r={r}")
    total = subspace_count(n, r, q)
    if strategy == "expand":
        counts: Counter = Counter()
        if design.packed:  # the local row table can be far larger than a design
            counts.update(_local_rows(q, k, r)(design.vector_lists))
        return _report_from_counts(counts, total, _misses(
            q, n, r, _packed_rows, counts.__contains__))
    if strategy == "scan":
        found, holders = _scan(q, n, r, design.vector_lists)
        return _report(total, found, _misses(q, n, r, _packed_rows, holders))
    raise ValueError(f"unknown strategy {strategy!r}")


def verify_orbits(action: GroupAction, bases: SubspaceDesign,
                  r: int) -> Tuple[int, CoverageReport]:
    """Census of the design whose blocks are the orbits of the blocks of
    bases, a SubspaceDesign of F_2^n, under action, counted on the bases
    only (Kramer & Mesner).

    Returns the design's block count and the report that verify_covering
    gives for r on the expanded design with strategy "expand".  The design
    is invariant, so every target in one orbit O has the same multiplicity:
    the sum over bases B of |orbit(B)| times the number of r-subspaces of B
    in O, divided by |O|.  The bases' vector_lists are read once, into a
    list (past XOR_CHUNK vectors each read lists them again), the
    _local_rows reader reads the rows of their r-subspaces and _xor_chunk
    lists those; one GroupAction.orbits call labels and sizes the bases'
    orbits, whose labels tell them apart, and one the targets'.  The
    witnesses are the first uncovered targets in grassmannian_choices
    order, labelled one by one only when some orbit is uncovered.  Two
    bases in one orbit raise ValueError, naming them by their places in
    the design's order.
    """
    n, k = action.n, bases.k
    if not len(bases):
        raise ValueError("need at least one base block")
    if (bases.q, bases.n) != (2, n):
        raise AmbientMismatch(f"base blocks in F_{bases.q}^{bases.n} "
                              f"under an action on F_2^{n}")
    if not 0 <= r <= k:
        raise ValueError(f"need 0 <= r <= k, got r={r}")
    total = subspace_count(n, r, 2)
    vector_lists = list(bases.vector_lists)
    base_orbits = action.orbits(vector_lists)
    blocks = sum(map(itemgetter(1), base_orbits))
    bases_of: Dict[tuple, int] = {}  # block orbit label -> index of its base
    for i, (label, _) in enumerate(base_orbits):
        if label in bases_of:
            raise ValueError(f"base blocks {bases_of[label]} and {i} lie in "
                             f"one orbit")
        bases_of[label] = i
    targets = list(_local_rows(2, k, r)(vector_lists))  # base after base
    weights = itertools.chain.from_iterable(map(  # |orbit(B)| per target
        itertools.repeat, map(itemgetter(1), base_orbits),
        itertools.repeat(gaussian(k, r, 2))))
    incidences: Counter = Counter()  # target orbit label -> sum |orbit(B)|
    sizes: Dict[tuple, int] = {}  # target orbit label -> |O|
    for (orbit, orbit_size), weight in zip(
            action.orbits(_xor_chunk(targets, r)), weights):
        incidences[orbit] += weight
        sizes[orbit] = orbit_size
    histogram: Counter = Counter()
    for orbit, count in incidences.items():
        multiplicity, rest = divmod(count, sizes[orbit])
        if rest:
            raise RuntimeError(f"{count} incidences over an orbit of "
                               f"{sizes[orbit]}")
        histogram[multiplicity] += sizes[orbit]
    histogram[0] = total - sum(sizes.values())
    return blocks, _report(total, histogram, _misses(
        2, n, r, _packed_rows,
        lambda t: action.orbit(_xor_span(t))[0] in incidences))


def verify_turan(design: SubspaceDesign, k: int,
                 strategy: str = "expand") -> CoverageReport:
    """For every k-subspace, how many design blocks it contains.

    The design's blocks play the r-subspace role; the verdict is_covering
    means every k-subspace contains at least one block.  strategy is
    "expand" (the default, as in verify_covering) or "scan".  Both count
    through the complements: b <= t iff t-perp <= b-perp, and each target t
    is keyed by the packed complement_generators of its RREF rows, by
    descending column.  Both read the blocks' complement vectors off
    design.complement_lists, listed for the whole design at once and kept
    for its other censuses while they are small.  Expand counts the keys
    superspaces_containing reads off them in one _local_rows pass, as
    verify_covering's expand does; scan marks them with block bitmasks and
    counts the (n - k)-subspaces as verify_covering's scan does.  Only when
    some target is uncovered does either walk the k-subspaces in order,
    reading their keys, and build a Subspace for a miss.
    """
    q, n, r = design.q, design.n, design.k
    if not r <= k <= n:
        raise ValueError(f"need block dim <= k <= n, got k={k}")
    total = subspace_count(n, k, q)
    complement_keys = functools.partial(complement_generators, q, n)
    if strategy == "expand":
        counts = Counter(superspaces_containing(design, k))
        return _report_from_counts(counts, total, _misses(
            q, n, k, complement_keys, counts.__contains__))
    if strategy == "scan":
        found, holders = _scan(q, n, n - k, design.complement_lists)
        return _report(total, found, _misses(q, n, k, complement_keys, holders))
    raise ValueError(f"unknown strategy {strategy!r}")


def dualize(design: SubspaceDesign) -> SubspaceDesign:
    """Orthogonal complement of every block, an involution on designs: the
    rows and pivots _perp_rows writes for each block's packed rows."""
    q, n = design.q, design.n
    perps = list(map(_perp_rows, itertools.repeat(q), itertools.repeat(n),
                     design.packed))
    return SubspaceDesign.from_rows(q, n, n - design.k, map(itemgetter(0), perps),
                                    map(itemgetter(1), perps))


# classical set systems -----------------------------------------------------

@dataclass(frozen=True)
class SetSystem:
    """Block design on points 0..v-1 with uniform block size."""

    v: int
    block_size: int
    blocks: Tuple[Tuple[int, ...], ...]

    @staticmethod
    def from_blocks(v: int, blocks: Iterable[Sequence[int]]) -> "SetSystem":
        norm = sorted({tuple(sorted(b)) for b in blocks})
        sizes = {len(b) for b in norm}
        if len(sizes) > 1:
            raise ValueError(f"non-uniform block sizes {sizes}")
        size = sizes.pop() if sizes else 0
        for b in norm:
            if any(not 0 <= x < v for x in b):
                raise ValueError("point index out of range")
        return SetSystem(v, size, tuple(norm))


def point_indexing(q: int, n: int) -> Dict[Tuple[int], int]:
    """Index of each 1-subspace, in enumeration order, keyed by its packed
    RREF row as a 1-tuple, the key of the covering census."""
    return {t: i for i, t in enumerate(grassmannian_rows(q, n, 1))}


def to_point_set_system(design: SubspaceDesign) -> SetSystem:
    """Points are the 1-subspaces of F_q^n; a block maps to its point set,
    the [k 1]_q points read off its packed vectors at local_row_indices in
    one pass over design.vector_lists, the listing its censuses share."""
    q, k = design.q, design.k
    if k < 1:
        raise ValueError("needs block dimension >= 1")
    index = point_indexing(q, design.n)
    points = map(index.__getitem__,
                 _local_rows(q, k, 1)(design.vector_lists))
    return SetSystem.from_blocks(len(index),
                                 zip(*[points] * gaussian(k, 1, q)))


def verify_steiner_system(system: SetSystem, t: int) -> CoverageReport:
    """Exact multiplicity of every t-subset of points across the blocks."""
    if t > system.block_size:
        raise ValueError("t exceeds the block size")
    total = math.comb(system.v, t)
    if total > MAX_SUBSPACE_ENUM:
        raise BudgetError(f"C({system.v},{t}) exceeds the verification budget")
    counts = Counter(itertools.chain.from_iterable(
        itertools.combinations(block, t) for block in system.blocks))
    return _report_from_counts(counts, total, (
        sub for sub in itertools.combinations(range(system.v), t)
        if sub not in counts))


# text formats ---------------------------------------------------------------

DESIGN_MAGIC = "qcover-design v1"
SETSYSTEM_MAGIC = "qcover-setsystem v1"


class FormatError(ValueError):
    """Malformed design or set-system file."""


def design_to_text(design: SubspaceDesign) -> str:
    """The design file: one digit per coordinate, so q is at most 10.

    Each packed row's word is read off _word_table while F_q^n holds at
    most DIGIT_TABLE_MAX vectors; past it, blocks share rows, so each
    distinct row's word is built once per call.  One " ".join map over
    the words of all rows, k at a time, builds the block lines, and a
    k = 0 design writes its zero block as an empty line.
    """
    q, n = design.q, design.n
    if q > 10:
        raise FormatError(f"q={q} has coordinates above 9, and the "
                          f"design file writes one digit per coordinate "
                          f"(q <= 10)")
    if q ** n <= DIGIT_TABLE_MAX:
        word = _word_table(q, n)
    else:
        unpack = _digit_table(q, n)[0]
        word = {v: "".join(map(str, unpack(v))) for v in
                set(itertools.chain.from_iterable(design.packed))}.__getitem__
    words = map(word, itertools.chain.from_iterable(design.packed))
    lines = [DESIGN_MAGIC, f"q={q} n={n} k={design.k}"]
    lines += (map(" ".join, zip(*[words] * design.k)) if design.k
              else [""] * len(design))
    return "\n".join(lines) + "\n"


# Bounded like _digit_table, whose unpack it reads: one list per (q, n) of
# at most DIGIT_TABLE_MAX words.
@functools.lru_cache(maxsize=16)
def _word_table(q: int, n: int) -> Callable[[int], str]:
    """The design file's word of each packed vector of F_q^n, as the lookup
    of a list indexed by its packed int."""
    unpack = _digit_table(q, n)[0]
    return ["".join(map(str, unpack(v))) for v in range(q ** n)].__getitem__


def design_from_text(text: str) -> SubspaceDesign:
    """The design a design file describes, each block in canonical form.

    Every body line is split by one map.  A file passes when each distinct
    word is checked once, all of them in C-level string tests, and every
    line has k words; a comment, a blank line (a block at k = 0 only), a
    bad word or a wrong word count fails it, and only then does
    _walk_lines walk the lines one by one, to drop comments and blank lines
    and find the first bad word or word count in file order.  Each
    distinct word is converted once to its packed int, and one map per
    column of words packs the rows of all lines (before that error), a
    tuple per line.  For q = 2 _canonical_rows reads the rows' pivots a
    column at a time if every line is canonical, as design_to_text writes
    it, and the rows are taken as written; otherwise _span_rows reduces
    each line's packed rows.  Both paths end in SubspaceDesign.from_rows, with
    the pivots at hand.  A dependent line raises FormatError with its rank,
    before a bad word or word count after it, so errors come in file
    order.  A parameter line that lacks q, n or k or repeats a key raises
    FormatError, and a header n past MAX_AMBIENT_N raises BudgetError,
    before any block is read.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != DESIGN_MAGIC:
        raise FormatError("missing design header")
    if len(lines) < 2:
        raise FormatError("missing parameter line")
    try:
        items = lines[1].split()
        params = dict(item.split("=") for item in items)
        if len(params) < len(items):
            raise ValueError("a key is repeated")
        q, n, k = int(params["q"]), int(params["n"]), int(params["k"])
    except (ValueError, KeyError) as exc:
        raise FormatError(f"bad parameter line: {lines[1]!r}") from exc
    if not 0 <= k <= n:
        raise FormatError(f"need 0 <= k <= n, got n={n} k={k}")
    try:
        get_gf(q)
    except FieldError as exc:
        raise FormatError(str(exc)) from exc
    check_ambient(n)
    top = str(min(q, 10) - 1)  # the largest digit that is a coordinate
    body = lines[2:]
    word_lists = list(map(str.split, body))
    words = set(itertools.chain.from_iterable(word_lists))
    joined = "".join(words)
    error = None  # the first bad line's, raised after the blocks before it
    # str.isdigit alone passes non-ASCII digits, which int() reads.
    if not (all(map(n.__eq__, map(len, words)))
            and joined.isascii() and (joined.isdigit() or not joined)
            and max(joined, default=top) <= top
            and all(map(k.__eq__, map(len, word_lists)))):
        word_lists, body, error = _walk_lines(q, n, k, top, body)
        words = set(itertools.chain.from_iterable(word_lists))
    # int reads base q up to 36, and a coordinate is one digit
    convert = (functools.partial(int, base=q) if q <= 36
               else lambda word: vec_pack(q, map(int, word)))
    vector = dict(zip(words, map(convert, words)))
    # a column of words at a time (k of them with no line); at k = 0 a
    # line is the zero block
    columns = [list(map(vector.__getitem__, column))
               for column in zip(*word_lists)] or [[]] * k
    blocks = list(zip(*columns)) if k else [()] * len(word_lists)
    pivots = _canonical_rows(n, k, columns) if q == 2 and k else None
    if pivots is None:
        spans = list(map(_span_rows, itertools.repeat(q), itertools.repeat(n),
                         blocks))
        blocks, pivots = map(itemgetter(0), spans), map(itemgetter(1), spans)
        short = list(map(k.__ne__, map(len, map(itemgetter(1), spans))))
        if True in short:
            i = short.index(True)
            raise FormatError(f"block rank {len(spans[i][1])} < k={k}: "
                              f"{body[i].strip()!r}")
    if error is not None:
        raise error
    return SubspaceDesign.from_rows(q, n, k, blocks, pivots)


def _walk_lines(q: int, n: int, k: int, top: str, lines: Sequence[str]
                ) -> Tuple[List[List[str]], List[str], Optional[FormatError]]:
    """design_from_text's walk of the body lines of a file that fails its
    whole-file checks, line by line: comments and blank lines are dropped
    (at k = 0 a blank line is the zero block), and each line's words are
    checked, each distinct word once, then its word count, up to the first
    bad word or word count.  Returns the word lists and stripped lines
    before it, and its FormatError, or None when there is none."""
    seen = set()
    word_lists, kept = [], []
    try:
        for line in lines:
            line = line.strip()
            if line.startswith("#") or not (line or k == 0):
                continue
            words = line.split()
            for word in words:
                if word in seen:
                    continue
                if len(word) != n or not (word.isascii() and word.isdigit()):
                    raise FormatError(f"bad vector {word!r} for n={n}")
                if max(word) > top:
                    raise FormatError(f"coordinate out of GF({q}) in {word!r}")
                seen.add(word)
            if len(words) != k:
                raise FormatError(f"block with {len(words)} vectors, expected {k}")
            word_lists.append(words)
            kept.append(line)
    except FormatError as exc:
        return word_lists, kept, exc
    return word_lists, kept, None


def setsystem_to_text(system: SetSystem) -> str:
    lines = [SETSYSTEM_MAGIC,
             f"v={system.v} b={len(system.blocks)} size={system.block_size}"]
    for block in system.blocks:
        lines.append(" ".join(str(x) for x in block))
    return "\n".join(lines) + "\n"


def save_design(design: SubspaceDesign, path) -> None:
    text = design_to_text(design)  # raises before the file is opened
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_design(path) -> SubspaceDesign:
    with open(path, encoding="utf-8") as fh:
        return design_from_text(fh.read())


def save_setsystem(system: SetSystem, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(setsystem_to_text(system))
