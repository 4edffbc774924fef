"""Canonical subspaces of F_q^n and Grassmannian enumeration.

A subspace is identified by its reduced row-echelon generator matrix, whose
rows are stored packed by vec_pack, coordinate 0 the most significant digit,
so int order is the rows' lexicographic order; coordinate tuples are derived
on read, for tests and repr only.  span, on packed vectors, is the one row
reduction for every q.  Two subspaces are equal as vector sets iff their
canonical matrices are identical, so hashing and set semantics come for
free.
Enumeration iterates pivot-column sets in lexicographic order, then takes
the product of each RREF row's choices, its free entries in odometer order;
this yields RREF matrices directly and the order is reproducible.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_right
from operator import add, and_, itemgetter, lt, mul, or_, xor
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from .bounds import gaussian
from .fields import get_gf, vec_pack, vec_unpack

MAX_SUBSPACE_ENUM = 10 ** 7
MAX_VECTOR_ENUM = 1 << 24
# Largest ambient dimension of a design file or a construction: for q = 2
# every census with 1 <= r < n lists over MAX_SUBSPACE_ENUM targets from n = 24.
MAX_AMBIENT_N = 64
# Largest first-row choice list grassmannian_choices builds in one piece.
ROW_CHUNK = 1 << 12


class BudgetError(RuntimeError):
    """Enumeration would exceed the hard subspace/vector budget."""


def check_ambient(n: int) -> None:
    """BudgetError for an ambient dimension n past MAX_AMBIENT_N."""
    if n > MAX_AMBIENT_N:
        raise BudgetError(f"ambient dimension n={n} exceeds {MAX_AMBIENT_N}")


def subspace_count(n: int, k: int, q: int) -> int:
    """[n k]_q, the size of a census of the k-subspaces of F_q^n; BudgetError
    past MAX_SUBSPACE_ENUM, or for n past MAX_AMBIENT_N before counting."""
    check_ambient(n)
    count = gaussian(n, k, q)
    if count > MAX_SUBSPACE_ENUM:
        raise BudgetError(f"[{n} {k}]_{q} exceeds {MAX_SUBSPACE_ENUM} subspaces")
    return count


def check_vectors(q: int, dim: int) -> None:
    """BudgetError when listing the q^dim vectors of F_q^dim would pass
    MAX_VECTOR_ENUM."""
    if q ** dim > MAX_VECTOR_ENUM:
        raise BudgetError(f"{q}^{dim} vectors exceed {MAX_VECTOR_ENUM}")


class AmbientMismatch(ValueError):
    """Operands live in different ambient spaces F_q^n."""


class Subspace:
    """A k-dimensional subspace of F_q^n in canonical RREF form.

    packed holds the RREF rows, each packed by vec_pack; rows is a read-only
    view that unpacks them into coordinate tuples on every read, for tests
    and __repr__: the rest of the package reads packed rows only.  An
    immutable value: equality and hashing use (q, n, packed) only, since the
    canonical rows determine the pivots.  The pivots are required, and must
    be the rows' pivot columns: membership, complements and sort keys read
    them.
    """

    __slots__ = ("q", "n", "packed", "pivots")

    def __init__(self, q: int, n: int, packed: Tuple[int, ...],
                 pivots: Tuple[int, ...]):
        _set_q(self, q)
        _set_n(self, n)
        _set_packed(self, packed)
        _set_pivots(self, pivots)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Subspace, (self.q, self.n, self.packed, self.pivots)

    def __eq__(self, other):
        if other.__class__ is not Subspace:
            return NotImplemented
        return (self.q, self.n, self.packed) == (other.q, other.n, other.packed)

    def __hash__(self):
        return hash((self.q, self.n, self.packed))

    @property
    def rows(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(map(_digit_table(self.q, self.n)[0], self.packed))

    @property
    def dim(self) -> int:
        return len(self.packed)

    def sort_key(self):
        return (self.pivots, self.packed)  # packed order is lexicographic

    def __repr__(self):
        # One digit per coordinate up to q = 10; past it a coordinate can
        # have two digits, so coordinates are separated by spaces.
        sep = "" if self.q <= 10 else " "
        body = ",".join(sep.join(map(str, row)) for row in self.rows)
        return f"Subspace(q={self.q},n={self.n},[{body}])"


# The slot descriptors write past the __setattr__ guard.
_set_q = Subspace.q.__set__
_set_n = Subspace.n.__set__
_set_packed = Subspace.packed.__set__
_set_pivots = Subspace.pivots.__set__


def span(q: int, n: int, vectors: Iterable[int]) -> Subspace:
    """The canonical subspace of F_q^n spanned by packed vectors: the block
    of the rows and pivots _span_rows finds."""
    return Subspace(q, n, *_span_rows(q, n, vectors))


def _span_rows(q: int, n: int, vectors: Iterable[int]
               ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The packed RREF rows and the pivots of the span of packed vectors of
    F_q^n: the one row reduction, for every q.

    For q = 2 each vector is reduced by the rows so far at their pivots,
    and a nonzero remainder clears its pivot from them and joins them.  A
    row's pivot is its top set bit, so v holds row r's pivot iff v ^ r < v,
    as the XOR flips no higher bit, and rows clear by XOR.  Other q sweep
    the columns of the digit rows read off _digit_table: the first row left
    that is nonzero at column c, scaled by Field.row_scale to lead with 1,
    clears c from every other row by Field.row_sub.  Rows with distinct
    pivots sort by pivot as ints, descending.  A vector outside F_q^n
    raises AmbientMismatch.
    """
    vectors = list(vectors)
    _check_packed(q, n, vectors)
    if q == 2:
        rows = []
        for v in vectors:
            for row in rows:
                if v ^ row < v:
                    v ^= row
            if v:
                rows = [row ^ v if row ^ v < row else row for row in rows]
                rows.append(v)
        pivots = [n - row.bit_length() for row in rows]
    else:
        gf = get_gf(q)
        unpack, pack = _digit_table(q, n)
        mat, pivots = list(map(unpack, vectors)), []
        for c in range(n):
            r = len(pivots)  # rows before r are reduced, with pivots before c
            for pr in range(r, len(mat)):
                if mat[pr][c]:
                    break
            else:
                continue
            row = mat[pr]
            if row[c] != 1:
                row = gf.row_scale(gf.inv(row[c]), row)
            mat[pr], mat[r] = mat[r], row
            for i, u in enumerate(mat):
                if u[c] and i != r:
                    mat[i] = gf.row_sub(u, u[c], row)
            pivots.append(c)
        rows = [pack(tuple(row)) for row in mat[:len(pivots)]]
    rows.sort(reverse=True)
    return tuple(rows), tuple(sorted(pivots))


def orthogonal_complement(s: Subspace) -> Subspace:
    """Null space of the generator matrix under the standard dot product:
    the block _perp_rows writes, with no row reduction of the result."""
    return Subspace(s.q, s.n, *_perp_rows(s.q, s.n, s.packed))


def _perp_rows(q: int, n: int, packed: Sequence[int]
               ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The packed RREF rows and the pivots of the orthogonal complement of
    the block of F_q^n whose packed RREF rows are packed.

    The rows' digits, read off _digit_table, are reduced from the right:
    each row b_i ends in a 1 at its end column t_i, where every other row
    is 0 (for a point, one scaling).  Then for each other column j
    ascending, e_j - sum_i b_i[j] * e_(t_i) is orthogonal to every row and
    RREF with pivot j: b_i[j] != 0 only for j < t_i, and no t_i is a pivot.
    """
    gf = get_gf(q)
    rows, ends = [], []  # the digit rows so far, and their end columns
    for b in map(_digit_table(q, n)[0], packed):
        for row, e in zip(rows, ends):
            if b[e]:
                b = gf.row_sub(b, b[e], row)
        e = max(itertools.compress(range(n), b))  # b's last nonzero column
        if b[e] != 1:
            b = gf.row_scale(gf.inv(b[e]), b)
        # rows so far are 0 past their ends, and e lies before any end it
        # clears, so each keeps its end
        rows = [gf.row_sub(row, row[e], b) if row[e] else row for row in rows]
        rows.append(b)
        ends.append(e)
    neg, place = gf.negatives, _places(q, n)
    pivots = tuple([j for j in range(n) if j not in ends])
    out = []
    for j in pivots:
        v = place[j]
        for b, e in zip(rows, ends):
            v += neg[b[j]] * place[e]
        out.append(v)
    return tuple(out), pivots


def _complement_rows(q: int, n: int, packed: Tuple[int, ...],
                     pivots: Tuple[int, ...]) -> Tuple[int, ...]:
    """vec_pack of e_c - sum_i row_i[c] * e_(pivots[i]) for each free column
    c, descending, row_i[c] the digit of packed[i] at c's place: orthogonal
    to every row, as row i is 1 at pivots[i] and every other row is 0
    there.  The block's perp's RREF basis in reversed coordinates,
    complement_generators' key for the block."""
    neg = get_gf(q).negatives
    place = _places(q, n)
    out = []
    for c in [c for c in reversed(range(n)) if c not in pivots]:
        v, low = place[c], place[c] * q
        for row, p in zip(packed, pivots):
            v += neg[row % low // place[c]] * place[p]
        out.append(v)
    return tuple(out)


# Bounded; one tuple per (q, n), and a run touches a handful.
@functools.lru_cache(maxsize=16)
def _places(q: int, n: int) -> Tuple[int, ...]:
    """The packed unit vectors e_0..e_(n-1) of F_q^n: q^(n-1-c) at c."""
    return tuple([q ** (n - 1 - c) for c in range(n)])


def complement_generators(q: int, n: int, pivots: Tuple[int, ...],
                          choices: Iterable[Sequence[int]]
                          ) -> Iterator[Tuple[int, ...]]:
    """Packed bases of the orthogonal complements of a family of RREFs.

    choices[i] lists the packed choices of the i-th RREF row, as
    grassmannian_choices does; a single RREF is zip(s.packed), one choice
    per row.  For each RREF t in itertools.product(*choices) order this
    yields one packed generator per non-pivot column fc, by descending fc,
    e_fc - sum_i t_i[fc] * e_{pivots[i]}: orthogonal to every row, the only
    generator nonzero at fc, and zero past fc (a row is zero before its
    pivot).  With the coordinates reversed they are the RREF of t's
    complement, read off the rows with no reduction: the sums of what each
    row choice adds to each generator, which _complement_tables lists.
    """
    choices = tuple(map(tuple, choices))
    tables = _complement_tables
    if sum(map(len, choices)) * (n - len(pivots)) > ROW_CHUNK:
        tables = tables.__wrapped__  # large tables would crowd the cache
    units, *rows = tables(q, n, pivots, choices)
    if not rows:
        yield units
        return
    *heads, last = rows
    for head in itertools.product(*heads):
        prefix = tuple(map(sum, zip(units, *head)))
        for part in last:
            yield tuple(map(add, prefix, part))


# Bounded, and holds tables of at most ROW_CHUNK numbers each.  A witness
# walk reads them again for every design of the same (q, n, k), and
# stops after a few dozen targets, far fewer than the tables list.
@functools.lru_cache(maxsize=128)
def _complement_tables(q: int, n: int, pivots: Tuple[int, ...],
                       choices: Tuple[Tuple[int, ...], ...]) -> tuple:
    """complement_generators' tables for one family of RREFs: the units
    e_fc of the non-pivot columns fc, descending, then per row i what each
    of its choices adds to each generator, -t_i[fc] * e_{pivots[i]}.  A
    row's digits come off _digit_table, the weights off _places."""
    neg = get_gf(q).negatives
    place = _places(q, n)
    pivset = set(pivots)
    free = [c for c in reversed(range(n)) if c not in pivset]
    unpack = _digit_table(q, n)[0]
    return (tuple([place[c] for c in free]),
            *[tuple([tuple([neg[row[c]] * place[p] for c in free])
                     for row in map(unpack, packed)])
              for p, packed in zip(pivots, choices)])


def enumerate_grassmannian(q: int, n: int, k: int) -> Iterator[Subspace]:
    """All k-subspaces of F_q^n, each exactly once, in deterministic order.

    Pivot sets come in lexicographic order; within one, the free entries run
    in odometer order, the last free entry of the last row fastest.  Raises
    at the first next, as grassmannian_choices does.
    """
    yield from _rref_blocks(q, n, grassmannian_rows(q, n, k))


def grassmannian_rows(q: int, n: int, k: int) -> Iterator[Tuple[int, ...]]:
    """The packed RREF rows of every k-subspace of F_q^n, one k-tuple each,
    in enumerate_grassmannian order: the product of the row choices of each
    grassmannian_choices entry in turn, which raises at the first next."""
    return itertools.chain.from_iterable(
        itertools.product(*packed) for _, packed in grassmannian_choices(q, n, k))


def grassmannian_choices(q: int, n: int, k: int
                         ) -> Iterator[Tuple[Tuple[int, ...], tuple]]:
    """Per pivot set, the packed choices of each RREF row.

    Yields (pivots, packed): packed[i] lists vec_pack of the i-th RREF row
    under every assignment of its free columns in odometer order, so
    itertools.product(*packed) runs through the packed rows of the
    k-subspaces with these pivots in enumerate_grassmannian order.
    A first row with more than ROW_CHUNK choices is split, in order, over
    several yields with the same pivots, one per value of its leading free
    columns, so a caller that stops early builds only one part of it.  The
    last of those columns, when it alone has more than ROW_CHUNK values,
    takes them in runs of ROW_CHUNK instead, one run per yield.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    subspace_count(n, k, q)
    for pivots in itertools.combinations(range(n), k):
        split = 0
        if pivots:  # the first row has n - k - pivots[0] free columns
            while q ** (n - k - pivots[0] - split) > ROW_CHUNK:
                split += 1
        if not split:
            yield pivots, _row_choices(q, n, pivots, ())
            continue
        run = ROW_CHUNK if q > ROW_CHUNK else 1
        runs = [range(a, min(a + run, q)) for a in range(0, q, run)]
        for head in itertools.product(*[range(q)] * (split - 1), runs):
            yield pivots, _row_choices.__wrapped__(q, n, pivots, head)


# Bounded; a census run in F_q^n with n <= 7 touches a few hundred pivot
# sets.  Split first rows bypass it: their parts would crowd it out.
@functools.lru_cache(maxsize=512)
def _row_choices(q: int, n: int, pivots: Tuple[int, ...], head: tuple):
    """The packed row choices of grassmannian_choices for one pivot set, the
    first row's leading free columns fixed to head, digits and then a range
    of values of the last of them: a row's leads (its pivot's place, plus
    head's digits at theirs) plus each entry of the _unit_table of its free
    columns' places, built uncached, as tables of up to ROW_CHUNK entries
    would crowd the span's cache."""
    place = _places(q, n)
    pivset = set(pivots)
    out = []
    for i, p in enumerate(pivots):
        free = [place[c] for c in range(p + 1, n) if c not in pivset]
        lead = place[p]
        leads = (lead,)
        if i == 0 and head:
            *digits, values = head
            lead += sum(map(mul, digits, free))
            leads = [lead + d * free[len(digits)] for d in values]
            free = free[len(head):]
        table = _unit_table.__wrapped__(q, free)
        out.append(tuple(itertools.chain.from_iterable(
            map(lead.__add__, table) for lead in leads)))
    return tuple(out)


def packed_vectors(s: Subspace) -> List[int]:
    """vec_pack of every vector of s, in odometer order: the vector
    sum(c_i * s.rows[i]) sits at index sum(c_i * q^(dim-1-i)), zero first
    and coefficient 0 slowest: the one-block span_vector_lists."""
    (vectors,) = span_vector_lists(s.q, s.n, s.dim, [s.packed])
    return list(vectors)


def complement_vectors(q: int, n: int, k: int, row_lists: Sequence,
                       pivot_lists: Iterable[Tuple[int, ...]]
                       ) -> Iterable[Sequence[int]]:
    """vec_pack of every vector of each block's orthogonal complement, in
    order, for blocks of F_q^n given by their k packed RREF rows and their
    pivots, entry by entry.

    A list holds the combinations, taken as packed_vectors takes RREF rows,
    of the block's _complement_rows, built with no row reduction, and
    span_vector_lists spans them all in one call.
    """
    return span_vector_lists(q, n, n - k, list(map(
        _complement_rows, itertools.repeat(q), itertools.repeat(n), row_lists,
        pivot_lists)))


def span_vector_lists(q: int, n: int, k: int, row_lists: Sequence
                      ) -> Iterable[Sequence[int]]:
    """packed_vectors of the span of each entry of row_lists, k packed RREF
    rows of F_q^n, in order: the one lister of block vectors.  No entry
    lists nothing; else check_vectors raises before any vector is built.
    For q = 2 the entries go XOR_CHUNK >> k at a time through _xor_chunk,
    as they are; other q take _horner_span of each entry's coordinate
    rows, read off _digit_table, lazily.
    """
    if not row_lists:
        return ()
    check_vectors(q, k)
    if q != 2:
        unpack = itertools.repeat(_digit_table(q, n)[0])
        return map(_horner_span, itertools.repeat(q),
                   map(tuple, map(map, unpack, row_lists)))
    size = max(1, XOR_CHUNK >> k)
    return itertools.chain.from_iterable(
        _xor_chunk(row_lists[i:i + size], k)
        for i in range(0, len(row_lists), size))


# Most vectors span_vector_lists lists at once for q = 2 (about 1 MB of
# ints).  A chunk of XOR_CHUNK >> k blocks goes column-wise only while it
# holds 2^k blocks or more, so only for k <= 7.
XOR_CHUNK = 1 << 14


def _xor_chunk(row_lists: Sequence, k: int) -> Iterable[Sequence[int]]:
    """_xor_span of each entry of row_lists, k packed rows.

    With at least 2^k entries the i-th rows of all entries form one column
    and every XOR runs over a whole column, with no Python step per entry.
    That layout holds 2^k lists, each of one vector per entry, and is
    slower when the entries are fewer: those span one by one.
    """
    count = len(row_lists)
    if count < 1 << k:
        return map(_xor_span, row_lists)
    out = [[0] * count]
    for column in reversed(list(zip(*row_lists))):  # as in _xor_span
        out += [list(map(xor, u, column)) for u in out]
    return zip(*out)


def _xor_span(packed_rows: Sequence[int]) -> List[int]:
    """For q = 2 each coordinate is one bit of the packed int, so vectors are
    XORs of packed rows."""
    out = [0]
    for packed in reversed(packed_rows):  # each new row becomes the slowest digit
        out += [u ^ packed for u in out]
    return out


class BlockError(ValueError):
    """A vector list, at index among the lists, that read_blocks refuses."""

    def __init__(self, index: int, fault: str):
        super().__init__(f"vector list {index} {fault}")
        self.index, self.fault = index, fault


def read_blocks(n: int, k: int, vector_lists: Iterable[Sequence[int]]
                ) -> List[Tuple[int, ...]]:
    """The packed RREF rows, one k-tuple per list, of the k-subspace of
    F_2^n, k >= 1, whose packed vectors (0 included, any order) each list
    holds, one block per list, in order.

    Sorted, the span of RREF rows r_1..r_k is _xor_span([r_1..r_k]), as
    sum(c_i * r_i) holds c_i at r_i's pivot and c_1..c_(i-1) alone before
    it, and int order is lexicographic order; so r_i sits at index 2^(k-i).
    A sorted list's ends are its least and greatest vectors, and one
    outside F_2^n raises AmbientMismatch.  A list is a k-subspace iff it
    has 2^k vectors, a nonzero one at index 1 (k dependent rows list 0
    there again) and is the span of its rows, which _xor_chunk spans as
    read; the first that is not raises BlockError, with its rank from
    span.  All steps run in C-level maps over all lists, and no Subspace is
    built: _rref_blocks or SubspaceDesign.from_rows takes the rows.
    """
    lists = list(map(sorted, vector_lists))
    _check_packed(2, n, (
        min(map(itemgetter(0), filter(None, lists)), default=0),
        max(map(itemgetter(-1), filter(None, lists)), default=0)))
    size, at = 1 << k, [1 << i for i in reversed(range(k))]
    if all(map(size.__eq__, map(len, lists))):
        # A slice keeps a single read a sequence, as in _local_rows.
        read = itemgetter(*at) if k > 1 else itemgetter(slice(1, 2))
        rows = list(map(tuple, map(read, lists)))
        if (all(map(itemgetter(1), lists))
                and list(map(list, _xor_chunk(rows, k))) == lists):
            return rows
    for index, vectors in enumerate(lists):
        if not (len(vectors) == size and vectors[1]
                and _xor_span([vectors[i] for i in at]) == vectors):
            rank = span(2, n, vectors).dim
            raise BlockError(index, f"spans dim {rank}, not {k}" if rank != k
                             else "is not closed under addition")


def _canonical_rows(n: int, k: int, columns: Sequence[Sequence[int]]
                    ) -> Optional[List[Tuple[int, ...]]]:
    """The pivots of each block of F_2^n, a k-tuple per block, k >= 1, read
    by _pivot_reader a column at a time, if every block is its RREF as
    written; else None.  columns[i] holds the i-th packed row of every
    block, and a block is the zip of its rows.  Rows r_1..r_k with pivots
    p_i and top set bits b_i are an RREF iff p_1 < ... < p_k < n (so every
    r_i is nonzero) and r_i holds no b_j of a later row (an earlier b_j
    lies above r_i's top bit): a test in C-level maps over the columns."""
    heads = list(map(list, map(_pivot_reader(2, n), columns)))
    if (max(heads[-1], default=0) >= n
            or not all(map(all, map(map, itertools.repeat(lt), heads, heads[1:])))):
        return None
    bits = [1 << (n - 1 - p) for p in range(n)]  # the top bit, by pivot
    later = itertools.repeat(0)  # the OR of the b_j of the rows past row i
    for i in reversed(range(k - 1)):
        later = list(map(or_, later, map(bits.__getitem__, heads[i + 1])))
        if any(map(and_, columns[i], later)):
            return None
    return list(zip(*heads))


# Bounded; one reader per (q, n), and a run touches a handful.
@functools.lru_cache(maxsize=16)
def _pivot_reader(q: int, n: int) -> Callable[[Iterable[int]], Iterator[int]]:
    """A function from packed RREF rows of F_q^n to their pivots, lazily,
    in C-level maps.  A row with pivot p leads with a 1 at place
    q^(n-1-p), so it has n - p digits: its bit_length for q = 2, else the
    count of places q^0..q^(n-1) at most the row."""
    digits = int.bit_length if q == 2 else functools.partial(
        bisect_right, [q ** j for j in range(n)])
    return lambda rows: map(n.__sub__, map(digits, rows))


def _rref_blocks(q: int, n: int, blocks: Iterable[Tuple[int, ...]]
                 ) -> Iterator[Subspace]:
    """The Subspaces of F_q^n whose packed RREF rows are blocks, a tuple per
    block, in order, lazily, with the pivots _pivot_reader reads."""
    read = _pivot_reader(q, n)
    return (Subspace(q, n, rows, tuple(read(rows))) for rows in blocks)


def _check_packed(q: int, n: int, vectors: Iterable[int]) -> None:
    """AmbientMismatch for the first of the packed vectors outside F_q^n: a
    negative one would index _digit_table's list from its end."""
    size = q ** n
    for v in vectors:
        if not 0 <= v < size:
            raise AmbientMismatch(f"packed vector {v} outside F_{q}^{n}")


DIGIT_TABLE_MAX = 1 << 10  # most vectors _digit_table lists: F_2^10, F_3^6


# Bounded; one pair per (q, n), and a run touches a handful.
@functools.lru_cache(maxsize=16)
def _digit_table(q: int, n: int) -> Tuple[Callable, Callable]:
    """(unpack, pack): vec_unpack(q, n, .) and vec_pack(q, .) for F_q^n, as
    the lookups of a list of every vector, indexed by its packed int, and of
    its inverse dict up to DIGIT_TABLE_MAX vectors (only the bound methods
    leave here; a list's maps faster than a tuple's), the functions past it."""
    if q ** n > DIGIT_TABLE_MAX:
        return functools.partial(vec_unpack, q, n), functools.partial(vec_pack, q)
    table = list(itertools.product(range(q), repeat=n))
    return table.__getitem__, dict(zip(table, itertools.count())).__getitem__


class GroupAction:
    """The cyclic group generated by one invertible linear map g of F_2^n,
    acting on packed vectors (coordinate i is bit n - 1 - i).

    g is given by the packed images of e_0..e_{n-1}, and the table of g(v)
    for every v is their _xor_span; the kernel of a rank-r map, the table's
    zeros, holds 2^(n-r) vectors, so it gives g's rank.  One walk of g's
    cycles builds the per-vector lists rep (the least vector of the
    vector's orbit), exponent (g^exponent sends the vector to its rep) and
    size (its orbit's length), cycles (each orbit's vectors from its rep
    on, g^i(rep) at index i) and rank_table, which orbits reads.  g^m is
    the identity exactly when every cycle length divides m, so the order
    is their lcm.
    """

    def __init__(self, n: int, images: Sequence[int]):
        images = tuple(images)
        if len(images) != n:
            raise ValueError(f"need {n} column images, got {len(images)}")
        check_vectors(2, n)
        _check_packed(2, n, images)
        self.n = n
        image = _xor_span(images)  # g(v) at index v
        rank = n - (image.count(0).bit_length() - 1)  # n - dim of the kernel
        if rank != n:
            raise ValueError(f"generator has rank {rank} < {n}: not invertible")
        count = len(image)
        rep, exponent, size = [0] * count, [0] * count, [0] * count
        cycles = {}
        for v in range(count):
            if size[v]:
                continue
            cycle = [v]  # v is the least vector not yet in an orbit
            w = image[v]
            while w != v:
                cycle.append(w)
                w = image[w]
            for i, w in enumerate(cycle):  # g^(length - i) sends w to v
                rep[w], exponent[w], size[w] = v, -i % len(cycle), len(cycle)
            cycles[v] = tuple(cycle)
        self.rep, self.exponent, self.size, self.cycles = rep, exponent, size, cycles
        self.order = math.lcm(*map(len, cycles.values()))
        # Per vector, its orbit size << n | (2^n - 1 - its rep): the greatest
        # over a set names the set's largest vector orbit, the least rep on
        # ties.
        low = (1 << n) - 1
        self.rank_table = [s << n | low - r for s, r in zip(size, rep)]

    def image(self, vectors: Iterable[int], m: int) -> List[int]:
        """g^m of each vector, in order; AmbientMismatch past F_2^n."""
        vectors = list(vectors)
        _check_packed(2, self.n,
                      (min(vectors, default=0), max(vectors, default=0)))
        rep, exponent, size, cycles = self.rep, self.exponent, self.size, self.cycles
        return [cycles[rep[w]][(m - exponent[w]) % size[w]] for w in vectors]

    def orbit_blocks(self, bases) -> List[Tuple[int, ...]]:
        """The packed RREF rows, one k-tuple per block, of the blocks g(B),
        g^2(B), ..., B of the orbit of each block B of bases, a
        SubspaceDesign of F_2^n, base after base, read off their vectors
        by one read_blocks call, with no row reduction and no Subspace; for
        k = 0 one zero block per base, its own orbit.

        The bases' vectors are the design's vector_lists.  The images of a
        base's vectors under g^1..g^order are read a column at a time,
        each vector's column one slice of its cycle, repeated, ending at
        the vector, and cut at the first image inside the base's vectors,
        the base when its 2^k vectors are distinct, or else at the last.
        One slice, not a rotation by two shorter ones: short slices feed
        CPython's tuple free lists, which only a full collection empties,
        and a long-running process's RSS creeps.  g is linear, so each
        image is a k-subspace; read_blocks checks every image up to each
        cut, and the BlockError of the first that is not names it within
        its base's orbit, g^m(B) at m - 1.
        """
        if (bases.q, bases.n) != (2, self.n):
            raise AmbientMismatch(f"base blocks in F_{bases.q}^{bases.n} "
                                  f"under an action on F_2^{self.n}")
        k = bases.k
        if not k:
            return [()] * len(bases)
        rep, exponent, size, cycles = self.rep, self.exponent, self.size, self.cycles
        images, starts = [], []  # every base's images, and where each starts
        for vectors in bases.vector_lists:
            columns = []
            for w in vectors:
                cycle, start = cycles[rep[w]], (1 - exponent[w]) % size[w]
                repeated = cycle * (self.order // size[w] + 1)
                columns.append(repeated[start:start + self.order])
            orbit = list(zip(*columns))
            inside = list(map(frozenset(vectors).issuperset, orbit[:-1]))
            inside.append(True)  # g^order(B) is B
            starts.append(len(images))
            images += orbit[:inside.index(True) + 1]
        try:
            return read_blocks(self.n, k, images)
        except BlockError as exc:
            start = starts[bisect_right(starts, exc.index) - 1]
            raise BlockError(exc.index - start, exc.fault) from None

    def orbit(self, vectors: Iterable[int]) -> Tuple[Tuple[int, ...], int]:
        """(label, size) of the set's orbit: orbits of the set's sorted,
        duplicate-free vectors, checked first; AmbientMismatch for a vector
        outside F_2^n."""
        vectors = sorted(set(vectors))
        if not vectors:
            raise ValueError("an empty vector set has no orbit")
        _check_packed(2, self.n, (vectors[0], vectors[-1]))
        return self.orbits([vectors])[0]

    def orbits(self, vector_lists: Iterable[Sequence[int]]
               ) -> List[Tuple[Tuple[int, ...], int]]:
        """(label, size) of the orbit of each of the vector sets, in order,
        given as sorted, duplicate-free, nonempty lists of vectors of F_2^n,
        unchecked: orbit checks one set.

        The anchors are the set's vectors in its largest vector orbit (least
        representative on ties; both are the same for every image of the
        set), those of greatest rank_table entry.  The candidates
        g^(e + j * length), for each anchor's exponent e, are exactly the
        elements whose image of the set holds that orbit's representative.
        The label is the least such image, as a sorted tuple.  Each image
        arises from one coset of the stabiliser, so the candidates giving
        the label number |stabiliser|, and the size is the order over that
        count.  Per set the anchors are found with one C-level max over
        the rank table, and every image is read off the orbit tables.
        """
        rep, exponent, size, cycles = self.rep, self.exponent, self.size, self.cycles
        rank, n, order = self.rank_table, self.n, self.order
        out = []
        for vectors in vector_lists:
            top = max(map(rank.__getitem__, vectors))
            parts = [(cycles[rep[w]], exponent[w], size[w]) for w in vectors]
            label, count = None, 0
            for a in vectors:
                if rank[a] != top:
                    continue
                for m in range(exponent[a], order, top >> n):
                    image = sorted([cycle[(m - e) % s] for cycle, e, s in parts])
                    if label is None or image < label:
                        label, count = image, 1
                    elif image == label:
                        count += 1
            out.append((tuple(label), order // count))
        return out


def _horner_span(q: int, rows: Sequence[Sequence[int]]) -> List[int]:
    """vec_pack of every combination of rows, in packed_vectors' odometer
    order: per coefficient vector, one C-level sum over cached tables.

    A column equal to the unit vector e_i adds c_i * q^j at place j under
    the coefficient vector c, with no field arithmetic, and a zero column
    adds nothing.  So all unit columns fold into one _unit_table of the
    weights w_i = sum(q^j) over the places of e_i, and only the other
    columns take a _column_table.  This holds for any rows: RREF rows have
    a unit column at each pivot, _complement_rows at each free column.
    """
    if not rows:
        return [0]
    k = len(rows)
    slot = _unit_slots(k)
    weights = [0] * (k + 1)  # slot k takes the zero columns, and is dropped
    tables = []
    for column, j in zip(zip(*rows), range(len(rows[0]) - 1, -1, -1)):
        i = slot.get(column)
        if i is None:
            tables.append(_column_table(q, column, j))
        else:
            weights[i] += q ** j
    out = _unit_table(q, tuple(weights[:k]))
    for table in tables:  # lazy maps: each vector is added up in C
        out = map(add, out, table)
    return list(out)


# Bounded: one entry per row count k, and q^k <= MAX_VECTOR_ENUM keeps
# k below 16 for q >= 3.
@functools.lru_cache(maxsize=16)
def _unit_slots(k: int) -> Dict[Tuple[int, ...], int]:
    """The slot i of each unit column e_i of k rows, and k for the zero
    column."""
    slots = {tuple([int(i == c) for c in range(k)]): i for i in range(k)}
    slots[(0,) * k] = k
    return slots


# Bounded.  One entry per (q, weights), which follow the places of each
# row's unit columns: all 1210 2-subspaces of F_3^5 with their complements
# use 155, and the q = 3 Turan point designs with their duals 29.
@functools.lru_cache(maxsize=512)
def _unit_table(q: int, weights: Tuple[int, ...]) -> Tuple[int, ...]:
    """sum(c_i * weights[i]) for every coefficient vector c, in odometer
    order, first coefficient slowest."""
    out = [0]
    for w in weights:
        multiples = [c * w for c in range(q)]
        out = [u + m for u in out for m in multiples]
    return tuple(out)


# Bounded.  Only a column that is neither zero nor a unit vector takes a
# table, so a design of F_q^n with blocks of dimension k uses at most
# n * (q^k - k - 1) (column, place) pairs, and its complements
# n * (q^(n - k) - (n - k) - 1): 5 * (6 + 23) = 145 for a design of F_3^5
# with k = 2 or 3.  All 1210 2-subspaces of F_3^5 with their complements
# use 72, and the q = 3 Turan point designs of F_3^5 and F_3^6 with their
# duals 61.
@functools.lru_cache(maxsize=512)
def _column_table(q: int, column: Tuple[int, ...], j: int) -> Tuple[int, ...]:
    """(c . column) * q^j for every coefficient vector c, in odometer order:
    the column's part of vec_pack at place j.

    The first coefficient varies slowest, matching the odometer index
    sum(c_i * q^(dim-1-i)) of packed_vectors.  Prime fields multiply and
    add mod q on plain ints, extension fields call Field.mul and Field.add.
    """
    gf = get_gf(q)
    out = [0]
    for x in column:
        if gf.m == 1:
            multiples = [(c * x) % q for c in range(q)]
            out = [(u + m) % q for u in out for m in multiples]
        else:
            multiples = [gf.mul(c, x) for c in range(q)]
            out = [gf.add(u, m) for u in out for m in multiples]
    weight = q ** j
    return tuple([u * weight for u in out])


def local_row_indices(q: int, k: int, r: int) -> Tuple[Tuple[int, ...], ...]:
    """Odometer indices of the RREF rows of every r-subspace L of F_q^k.

    One tuple per L, in enumerate_grassmannian order.  The vector
    sum(c_j * S.rows[j]) of a k-subspace S sits at index
    sum(c_j * q^(k-1-j)) of packed_vectors(S), so S's packed vectors read
    at L's entry are the packed rows of L*S.  L and S are both in RREF, so
    L*S is too, with pivots S.pivots[L.pivots]: row i of L*S is the S row
    at L's i-th pivot plus multiples of later, non-pivot rows of S.  Raises
    BudgetError, before building anything, when the table would pass
    MAX_VECTOR_ENUM entries or its indices address more than
    MAX_VECTOR_ENUM vectors, which packed_vectors refuses to list.
    Uncached: _local_rows builds its reader from it once per (q, k, r).
    """
    if q ** k > MAX_VECTOR_ENUM or gaussian(k, r, q) > MAX_VECTOR_ENUM:
        raise BudgetError(f"local rows of [{k} {r}]_{q} exceed the "
                          f"enumeration budget")
    return tuple(grassmannian_rows(q, k, r))


# Bounded: one reader holds [k r]_q indices, and a census run touches only a
# handful of (q, k, r).
@functools.lru_cache(maxsize=16)
def _local_rows(q: int, k: int, r: int
                ) -> Callable[[Iterable[Sequence[int]]], Iterable[tuple]]:
    """A function from vector lists, the packed_vectors of k-subspaces S one
    after another, to the packed RREF rows of each r-subspace of each S,
    read at local_row_indices: one r-tuple per subspace, S after S.

    One itemgetter reads every local row of a list, chain.from_iterable
    joins the reads and zip cuts them into r-tuples, so no bytecode runs
    per list; a census counts a whole design with one Counter.update.
    """
    indices = list(itertools.chain(*local_row_indices(q, k, r)))
    if not r:  # one r-subspace, the zero one, per list
        return lambda vector_lists: (() for _ in vector_lists)
    # A slice keeps a single read a sequence, which chain can join.
    read = itemgetter(*indices) if len(indices) > 1 else itemgetter(
        slice(indices[0], indices[0] + 1))

    def rows_of(vector_lists: Iterable[Sequence[int]]) -> Iterable[tuple]:
        rows = itertools.chain.from_iterable(map(read, vector_lists))
        return zip(*[rows] * r)
    return rows_of


def subspaces_of(s: Subspace, r: int) -> Iterator[Subspace]:
    """Every r-subspace of s, as a subspace of the ambient space.

    Each one is L*S for a local r-subspace L of F_q^dim, whose packed RREF
    rows _local_rows reads off packed_vectors(s), a tuple per subspace, and
    _rref_blocks builds into blocks.  Raises BudgetError past MAX_SUBSPACE_ENUM subspaces before
    any table or vector is built.
    """
    if not 0 <= r <= s.dim:
        raise ValueError(f"need 0 <= r <= dim, got r={r}, dim={s.dim}")
    subspace_count(s.dim, r, s.q)
    yield from _rref_blocks(s.q, s.n,
                            _local_rows(s.q, s.dim, r)([packed_vectors(s)]))


def superspaces_containing(design, k: int) -> Iterator[tuple]:
    """One key per k-subspace t containing a block s, for each block of the
    design (a SubspaceDesign) in order: the packed basis of t-perp that
    complement_generators reads off t's RREF rows, by descending column.

    t contains s iff t-perp lies in s-perp.  s's complement generators, by
    descending column, are the RREF basis G of s-perp with coordinates
    reversed, so for each (n - k)-subspace L of F_q^(n - d) in RREF, in
    enumerate_grassmannian order, L*G is t-perp's basis in that form: its
    packed rows are read off the design's complement_lists at
    local_row_indices, with no row reduction, in one _local_rows pass over
    all the blocks.  k = d and k = n have one superspace per block, s and
    F_q^n, whose key is read off the design's packed rows and pivots
    without listing s-perp.
    """
    if not len(design):
        return
    d, q, n = design.k, design.q, design.n
    if not d <= k <= n:
        raise ValueError(f"need dim <= k <= n, got k={k}")
    if d < k < n:
        yield from _local_rows(q, n - d, n - k)(design.complement_lists)
    elif k == d:  # one superspace, s
        yield from map(_complement_rows, itertools.repeat(q),
                       itertools.repeat(n), design.packed, design.pivots)
    else:  # one superspace, F_q^n
        yield from itertools.repeat((), len(design))
