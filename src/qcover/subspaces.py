"""Canonical subspaces of F_q^n and Grassmannian enumeration.

A subspace is identified by its reduced row-echelon generator matrix, stored
as a tuple of coordinate tuples.  Two subspaces are equal as vector sets iff
their canonical matrices are identical, so hashing and set semantics come for
free.  Enumeration iterates pivot-column sets in lexicographic order, then
fills the free entries in odometer order; this yields RREF matrices directly
and the order is reproducible.
"""

from __future__ import annotations

import functools
import itertools
from operator import add
from typing import Iterable, Iterator, List, Sequence, Tuple

from .fields import Field, get_gf, vec_add, vec_pack

MAX_SUBSPACE_ENUM = 10 ** 7
MAX_VECTOR_ENUM = 1 << 24


class BudgetError(RuntimeError):
    """Enumeration would exceed the hard subspace/vector budget."""


class AmbientMismatch(ValueError):
    """Operands live in different ambient spaces F_q^n."""


def rref(gf: Field, rows: Iterable[Sequence[int]], n: int):
    """Reduced row echelon form over GF(q); returns (rows, pivots)."""
    mat = [list(r) for r in rows]
    pivots: List[int] = []
    r = 0
    for c in range(n):
        if r >= len(mat):
            break
        for pr in range(r, len(mat)):
            if mat[pr][c]:
                break
        else:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        if mat[r][c] != 1:
            mat[r] = gf.row_scale(gf.inv(mat[r][c]), mat[r])
        row_r = mat[r]
        for i, row in enumerate(mat):
            if i != r and row[c]:
                mat[i] = gf.row_sub(row, row[c], row_r)
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


class Subspace:
    """A k-dimensional subspace of F_q^n in canonical RREF form.

    An immutable value: equality and hashing use (q, n, rows) only, since the
    canonical rows determine the pivots.
    """

    __slots__ = ("q", "n", "rows", "pivots")

    def __init__(self, q: int, n: int, rows: Tuple[Tuple[int, ...], ...],
                 pivots: Tuple[int, ...] = ()):
        _set_q(self, q)
        _set_n(self, n)
        _set_rows(self, rows)
        _set_pivots(self, pivots)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Subspace, (self.q, self.n, self.rows, self.pivots)

    def __eq__(self, other):
        if other.__class__ is not Subspace:
            return NotImplemented
        return (self.q, self.n, self.rows) == (other.q, other.n, other.rows)

    def __hash__(self):
        return hash((self.q, self.n, self.rows))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def sort_key(self):
        return (self.pivots, self.rows)

    def __repr__(self):
        body = ",".join("".join(str(c) for c in row) for row in self.rows)
        return f"Subspace(q={self.q},n={self.n},[{body}])"


# The slot descriptors write past the __setattr__ guard.
_set_q = Subspace.q.__set__
_set_n = Subspace.n.__set__
_set_rows = Subspace.rows.__set__
_set_pivots = Subspace.pivots.__set__


def span(q: int, n: int, vectors: Iterable[Sequence[int]]) -> Subspace:
    """Canonical subspace spanned by the given vectors."""
    gf = get_gf(q)
    vecs = [tuple(v) for v in vectors]
    for v in vecs:
        if len(v) != n:
            raise AmbientMismatch(f"vector of length {len(v)} in F_{q}^{n}")
    rows, pivots = rref(gf, vecs, n)
    return Subspace(q, n, rows, pivots)


def zero_subspace(q: int, n: int) -> Subspace:
    return Subspace(q, n, (), ())


def full_space(q: int, n: int) -> Subspace:
    rows = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    return Subspace(q, n, rows, tuple(range(n)))


def _check_ambient(a: Subspace, b: Subspace):
    if a.q != b.q or a.n != b.n:
        raise AmbientMismatch(f"({a.q},{a.n}) vs ({b.q},{b.n})")


def contains_vector(s: Subspace, v: Sequence[int]) -> bool:
    """Membership test by reduction against the RREF rows."""
    gf = get_gf(s.q)
    if len(v) != s.n:
        raise AmbientMismatch("vector length mismatch")
    rem = v
    for row, p in zip(s.rows, s.pivots):
        c = rem[p]
        if c:
            rem = gf.row_sub(rem, c, row)
    return not any(rem)


def contains_subspace(a: Subspace, b: Subspace) -> bool:
    """True iff b is a subspace of a."""
    _check_ambient(a, b)
    return all(contains_vector(a, row) for row in b.rows)


def sum_subspaces(a: Subspace, b: Subspace) -> Subspace:
    _check_ambient(a, b)
    return span(a.q, a.n, a.rows + b.rows)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the Zassenhaus block construction."""
    _check_ambient(a, b)
    gf = get_gf(a.q)
    n = a.n
    block = [list(row) + list(row) for row in a.rows]
    block += [list(row) + [0] * n for row in b.rows]
    rows, _ = rref(gf, block, 2 * n)
    inter = [row[n:] for row in rows if not any(row[:n])]
    return span(a.q, n, inter)


def orthogonal_complement(s: Subspace) -> Subspace:
    """Null space of the generator matrix under the standard dot product."""
    gf = get_gf(s.q)
    n = s.n
    pivset = set(s.pivots)
    free_cols = [c for c in range(n) if c not in pivset]
    basis = []
    for fc in free_cols:
        v = [0] * n
        v[fc] = 1
        for row, p in zip(s.rows, s.pivots):
            v[p] = gf.neg(row[fc])
        basis.append(v)
    return span(s.q, n, basis)


def grassmannian_pivot_freedom(n: int, pivots: Sequence[int]) -> List[Tuple[int, int]]:
    """Free entry positions (row, col) of the RREF template for a pivot set."""
    pivset = set(pivots)
    out = []
    for i, p in enumerate(pivots):
        for c in range(p + 1, n):
            if c not in pivset:
                out.append((i, c))
    return out


def enumerate_grassmannian(q: int, n: int, k: int,
                           pivot_sets: Iterable[Tuple[int, ...]] = None) -> Iterator[Subspace]:
    """All k-subspaces of F_q^n, each exactly once, in deterministic order.

    Restricting pivot_sets splits the enumeration into independent chunks.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    from .bounds import gaussian
    if pivot_sets is None and gaussian(n, k, q) > MAX_SUBSPACE_ENUM:
        raise BudgetError(f"G_{q}({n},{k}) exceeds {MAX_SUBSPACE_ENUM} subspaces")
    if pivot_sets is None:
        pivot_sets = itertools.combinations(range(n), k)
    for pivots in pivot_sets:
        freedom = grassmannian_pivot_freedom(n, pivots)
        template = [[0] * n for _ in range(k)]
        for i, p in enumerate(pivots):
            template[i][p] = 1
        if not freedom:
            yield Subspace(q, n, tuple(tuple(r) for r in template), tuple(pivots))
            continue
        for values in itertools.product(range(q), repeat=len(freedom)):
            for (i, c), v in zip(freedom, values):
                template[i][c] = v
            yield Subspace(q, n, tuple(tuple(r) for r in template), tuple(pivots))


def enumerate_vectors(s: Subspace) -> List[Tuple[int, ...]]:
    """All q^dim vectors of the subspace, zero first, odometer order.

    Coefficient 0 varies slowest: the vector sum(c_i * rows[i]) sits at
    index sum(c_i * q^(dim-1-i)).  The list grows one row at a time.
    """
    gf = get_gf(s.q)
    if s.q ** s.dim > MAX_VECTOR_ENUM:
        raise BudgetError(f"{s.q}^{s.dim} vectors exceed the enumeration budget")
    negatives = [gf.neg(c) for c in range(1, s.q)]
    out = [(0,) * s.n]
    for row in s.rows:
        grown = []
        for u in out:
            grown.append(u)
            grown.extend(tuple(gf.row_sub(u, c, row)) for c in negatives)
        out = grown
    return out


def packed_vectors(s: Subspace) -> List[int]:
    """vec_pack of every vector of s, in enumerate_vectors order.

    For q = 2 each coordinate is one bit of the packed int, so vectors are
    XORs of packed rows.  Otherwise the packed ints are built column by
    column in Horner order, highest coordinate first, from the cached table
    of every coefficient combination of each column.
    """
    q = s.q
    if q ** s.dim > MAX_VECTOR_ENUM:
        raise BudgetError(f"{q}^{s.dim} vectors exceed the enumeration budget")
    if q != 2:
        out = [0] * q ** s.dim
        for column in reversed(list(zip(*s.rows))):
            out = list(map(add, map(q.__mul__, out), _column_table(q, column)))
        return out
    out = [0]
    for row in reversed(s.rows):  # each new row becomes the slowest digit
        packed = vec_pack(2, row)
        out += [u ^ packed for u in out]
    return out


# Bounded like local_patterns; a design's blocks share few distinct columns.
@functools.lru_cache(maxsize=128)
def _column_table(q: int, column: Tuple[int, ...]) -> Tuple[int, ...]:
    """c . column for every coefficient vector c, in enumerate_vectors order.

    The first coefficient varies slowest, matching the odometer index
    sum(c_i * q^(dim-1-i)) of enumerate_vectors.
    """
    gf = get_gf(q)
    out = [0]
    for x in column:
        multiples = [gf.mul(c, x) for c in range(q)]
        out = [gf.add(u, m) for u in out for m in multiples]
    return tuple(out)


# Bounded: one table can hold millions of tuples, and a census run touches
# only a handful of (q, k, r).
@functools.lru_cache(maxsize=16)
def local_patterns(q: int, k: int, r: int) -> Tuple[Tuple[int, ...], ...]:
    """Projective points of every r-subspace of F_q^k, as odometer indices.

    One entry per r-subspace, in enumerate_grassmannian order, listing the
    sorted enumerate_vectors indices of its vectors whose first nonzero
    entry is 1.  The RREF rows of a k-dimensional subspace send such a
    coefficient vector to a vector whose first nonzero entry is 1, so
    reading a subspace's packed_vectors at one entry gives the points of
    one of its r-subspaces.
    """
    out = []
    for local in enumerate_grassmannian(q, k, r):
        points = []
        for v in enumerate_vectors(local):
            if next((x for x in v if x), 0) == 1:
                index = 0
                for x in v:
                    index = index * q + x
                points.append(index)
        out.append(tuple(sorted(points)))
    return tuple(out)


def point_key(s: Subspace) -> Tuple[int, ...]:
    """Sorted packed projective points of s, each with first nonzero entry 1.

    Two subspaces of one ambient space are equal iff their keys are equal.
    """
    vectors = packed_vectors(s)
    return tuple(sorted([vectors[i] for i in local_patterns(s.q, s.dim, s.dim)[0]]))


def subspaces_of(s: Subspace, r: int) -> Iterator[Subspace]:
    """Every r-subspace of s, as a subspace of the ambient space.

    Each one is L*S for a local r-subspace L of F_q^dim.  L and S are both in
    RREF, so L*S is too, with pivots s.pivots[L.pivots]: row i of L*S is the
    S row at L's i-th pivot plus multiples of later, non-pivot rows of S.
    """
    if not 0 <= r <= s.dim:
        raise ValueError(f"need 0 <= r <= dim, got r={r}, dim={s.dim}")
    gf = get_gf(s.q)
    minus = [gf.neg(c) for c in range(s.q)]
    for local in enumerate_grassmannian(s.q, s.dim, r):
        rows = []
        for lrow, lp in zip(local.rows, local.pivots):
            v = s.rows[lp]
            for i in range(lp + 1, s.dim):
                if lrow[i]:
                    v = gf.row_sub(v, minus[lrow[i]], s.rows[i])
            rows.append(tuple(v))
        yield Subspace(s.q, s.n, tuple(rows),
                       tuple(s.pivots[i] for i in local.pivots))


# Bounded like local_patterns; blocks of one design share few pivot sets.
@functools.lru_cache(maxsize=16)
def _quotient_tables(q: int, n: int, pivots: Tuple[int, ...], k: int):
    """The (k - d)-subspaces L of the coordinates outside pivots.

    One entry per L, in enumerate_grassmannian(q, n - d, k - d) order: L's
    RREF rows embedded in F_q^n, their pivot columns, the order that sorts
    the rows of s followed by L's rows by pivot, and the pivots of s + L.
    """
    pivset = set(pivots)
    comp_cols = [c for c in range(n) if c not in pivset]
    out = []
    for local in enumerate_grassmannian(q, n - len(pivots), k - len(pivots)):
        rows = []
        for lrow in local.rows:
            v = [0] * n
            for c, col in zip(lrow, comp_cols):
                v[col] = c
            rows.append(tuple(v))
        lpivots = tuple(comp_cols[p] for p in local.pivots)
        merged = pivots + lpivots
        order = tuple(sorted(range(len(merged)), key=merged.__getitem__))
        out.append((tuple(rows), lpivots, order, tuple(sorted(merged))))
    return tuple(out)


def superspaces_containing(s: Subspace, k: int) -> Iterator[Subspace]:
    """Every k-subspace of the ambient space that contains s.

    Superspaces correspond to (k - dim)-subspaces L of the quotient, realized
    inside the fixed complement spanned by standard basis vectors at the
    non-pivot columns of s.  L's rows are zero at s's pivots and at each
    other's pivots, so clearing each row of s at L's pivot columns and
    sorting all rows by pivot gives the RREF of s + L.
    """
    d = s.dim
    if not d <= k <= s.n:
        raise ValueError(f"need dim <= k <= n, got k={k}")
    gf = get_gf(s.q)
    for lrows, lpivots, order, pivots in _quotient_tables(s.q, s.n, s.pivots, k):
        rows = []
        for row in s.rows:
            for c, lrow in zip(lpivots, lrows):
                if row[c]:
                    row = gf.row_sub(row, row[c], lrow)
            rows.append(tuple(row))
        rows += lrows
        yield Subspace(s.q, s.n, tuple([rows[i] for i in order]), pivots)


def cosets(p: Subspace, w: Subspace) -> List[Tuple[int, ...]]:
    """Coset representatives of p inside w, first representative zero.

    Each representative is the minimal vector of its coset in the
    deterministic vector enumeration order of w.
    """
    _check_ambient(p, w)
    if not contains_subspace(w, p):
        raise ValueError("p is not a subspace of w")
    gf = get_gf(p.q)
    seen = set()
    reps = []
    p_vectors = enumerate_vectors(p)
    for v in enumerate_vectors(w):
        key = vec_pack(p.q, v)
        if key in seen:
            continue
        reps.append(v)
        for u in p_vectors:
            seen.add(vec_pack(p.q, vec_add(gf, v, u)))
    return reps
