"""Explicit constructions of covering, Turan and Steiner designs.

Every construction routes its output through the matching verifier before
returning; a verification failure raises ConstructionError rather than
returning an uncertified design.  A construction whose census would pass the
enumeration budget raises BudgetError instead of returning a design it
cannot check.  The one exception is turan_point_design, whose verify=False
leaves its census to a caller, such as turan_dual_covering, that runs its own.
"""

from __future__ import annotations

import itertools
from typing import List, Tuple

from .bounds import gaussian
from .designs import (CoverageReport, SetSystem, SubspaceDesign,
                      verify_covering, verify_orbits, verify_steiner_system,
                      verify_turan, dualize)
from .fields import Field, coefficients, get_gf, is_prime, vec_pack
from .subspaces import (BlockError, BudgetError, GroupAction,
                        MAX_SUBSPACE_ENUM, Subspace, _local_rows, _places,
                        _rref_blocks, _unit_table, _xor_span, check_ambient,
                        check_vectors, grassmannian_rows, read_blocks, span,
                        span_vector_lists, subspace_count)


class ConstructionError(RuntimeError):
    """A construction failed its mandatory verification or self-check."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


def _require(report: CoverageReport, message: str, steiner: bool = False):
    """Raise ConstructionError(message) carrying report unless the report
    certifies a covering, or a Steiner structure when steiner is set."""
    if not (report.is_steiner if steiner else report.is_covering):
        raise ConstructionError(message, report)


def _require_prime(q: int, what: str):
    if not is_prime(q):
        raise ValueError(f"{what} uses a field tower over GF(q); "
                         f"composite q={q} is not supported")


# trivial structures ---------------------------------------------------------

def trivial_steiner(q: int, n: int, r: int) -> SubspaceDesign:
    """All r-subspaces of F_q^n: the trivial Steiner structure with blocks of dim r."""
    check_ambient(n)
    get_gf(q)
    design = SubspaceDesign.from_rows(q, n, r, grassmannian_rows(q, n, r))
    _require(verify_covering(design, r), "trivial design failed Steiner check",
             steiner=True)
    return design


# spreads and line coverings --------------------------------------------------

def spread(q: int, k: int, n: int) -> SubspaceDesign:
    """Partition of the nonzero vectors of F_q^n into k-subspaces (k | n).

    Realized through the field tower: blocks are the GF(q^k)-multiples of
    the projective points of GF(q^k)^(n/k), as coordinate vectors over
    GF(q).  _field_tower with m = k gives every block but the last, the
    last k coordinates, which it returns as its residual.
    """
    check_ambient(n)
    get_gf(q)
    if k < 1 or n % k:
        raise ValueError(f"k={k} does not divide n={n}")
    _require_prime(q, "spread")
    expected = (q ** n - 1) // (q ** k - 1)
    subspace_count(n, 1, q)  # the census, which bounds the block count too
    blocks, last = _field_tower(q, k, k, n)
    design = SubspaceDesign.from_rows(q, n, k, blocks + [last])
    if len(design) != expected:
        raise ConstructionError(f"spread size {len(design)} != {expected}")
    _require(verify_covering(design, 1), "spread failed Steiner verification",
             steiner=True)
    return design


def lift_covering(design: SubspaceDesign, delta: int) -> SubspaceDesign:
    """Lift a line covering C_q[n,k,1] to C_q[n+d,k+d,1] with the same size.

    Each block P becomes P x F_q^d in the extended coordinates.  Both the
    input, which a caller may pass unchecked, and the lift are censused.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    check_ambient(design.n + delta)
    _require(verify_covering(design, 1), "input is not a verified line covering")
    return _lift(design, delta) if delta else design


def _lift(design: SubspaceDesign, delta: int) -> SubspaceDesign:
    """lift_covering of a certified covering by delta >= 1; censuses the lift.
    delta zero coordinates multiply a packed row by q^delta, and the unit
    rows of the new coordinates follow, so each block stays in RREF."""
    q, n, k = design.q, design.n + delta, design.k + delta
    units = _places(q, delta)
    lifted = SubspaceDesign.from_rows(q, n, k, [
        tuple([v * q ** delta for v in packed]) + units for packed in design.packed])
    if len(lifted) != len(design):
        raise ConstructionError("lift changed the block count")
    _require(verify_covering(lifted, 1), "lifted design failed covering check")
    return lifted


def partial_spread(q: int, rho: int, n: int) -> Tuple[SubspaceDesign, Subspace]:
    """Partial spread for n = s*rho + m with rho < m < 2*rho, s >= 1: the
    design of pairwise trivially intersecting rho-subspaces and the residual
    m-subspace of _field_tower, which together partition the 1-subspaces of
    F_q^n."""
    check_ambient(n)
    get_gf(q)
    if rho < 1 or n % rho == 0 or n <= 2 * rho:
        raise ValueError(
            f"no decomposition n = s*rho + m with rho < m < 2*rho for "
            f"(rho={rho}, n={n})")
    design, residual = _partial_spread(q, rho, n)
    return design, next(_rref_blocks(q, n, [residual]))


def _partial_spread(q: int, rho: int, n: int
                    ) -> Tuple[SubspaceDesign, Tuple[int, ...]]:
    """partial_spread of checked arguments, with the residual as its
    packed RREF rows."""
    _require_prime(q, "partial_spread")
    m = n % rho + rho
    expected = (q ** n - q ** m) // (q ** rho - 1)
    check_vectors(q, n)  # the partition check lists F_q^n
    blocks, residual = _field_tower(q, rho, m, n)
    design = SubspaceDesign.from_rows(q, n, rho, blocks)
    if len(design) != expected:
        raise ConstructionError(f"partial spread size {len(design)} != {expected}")
    # the exact partition check: each part lists its nonzero vectors once,
    # with 0, and together they tile F_q^n - {0}
    seen, listed = {0}, 1
    for vectors in itertools.chain(span_vector_lists(q, n, rho, blocks),
                                   span_vector_lists(q, n, m, [residual])):
        seen.update(vectors)
        listed += len(vectors) - 1
    if len(seen) != listed:
        raise ConstructionError("partial spread parts overlap")
    if listed != q ** n:
        raise ConstructionError("partial spread does not cover F_q^n")
    return design, residual


def _field_tower(q: int, rho: int, m: int, n: int
                 ) -> Tuple[List[Tuple[int, ...]], Tuple[int, ...]]:
    """The packed RREF rows, a rho-tuple per block, of the rho-subspaces of
    F_q^n, n = s*rho + m with m >= rho, that hold every vector with a
    nonzero head (first n - m coordinates) once, and the m rows of the
    residual, the last-m-coordinates subspace.

    Level t peels off a GF(q^rho) head: blocks are graphs x -> (x*z_1, ...,
    x*z_(s-t), x*w) over all scalar tuples z, with x read in GF(q^m) as
    the same packed int, its coefficients padded with zeros.  Distinct
    tuples give trivially intersecting blocks.  For m = rho the blocks are
    those of the spread of F_q^n but its last one, the residual.  The row
    of the basis element x = x^j is e_j on its level's head, so a block's
    rows are its RREF as written.
    """
    s = (n - m) // rho
    ext_r = get_gf(q ** rho)
    ext_m = get_gf(q ** m)
    basis = [q ** j for j in range(rho)]
    blocks = []  # packed; the zero coordinates before a level's head add nothing
    for t in range(1, s + 1):
        for z in itertools.product(range(ext_r.q), repeat=s - t):
            for w in range(ext_m.q):
                rows = []
                for b in basis:
                    row = coefficients(q, rho, b)
                    for zi in z:
                        row += coefficients(q, rho, ext_r.mul(b, zi))
                    row += coefficients(q, m, ext_m.mul(b, w))
                    rows.append(vec_pack(q, row))
                blocks.append(tuple(rows))
    # e_0..e_(m-1) of F_q^m, packed, are e_(n-m)..e_(n-1) of F_q^n
    return blocks, _places(q, m)


def optimal_line_covering(q: int, n: int, k: int) -> SubspaceDesign:
    """Line covering C_q[n,k,1] of the optimal size ceil((q^n-1)/(q^k-1)).

    Dispatch: spread when k | n; lifted spread when 2k >= n; otherwise a
    partial spread plus an optimal covering of the residual subspace.
    """
    check_ambient(n)
    get_gf(q)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got ({n},{k})")
    expected = -(-(q ** n - 1) // (q ** k - 1))
    subspace_count(n, 1, q)
    if n % k == 0:
        design = spread(q, k, n)
    elif 2 * k >= n:
        design = _lift(spread(q, n - k, 2 * (n - k)), 2 * k - n)
    else:
        partial, residual = _partial_spread(q, k, n)
        inner = optimal_line_covering(q, len(residual), k)
        # leading zero coordinates leave a packed row as it is
        design = SubspaceDesign.from_rows(q, n, k, partial.packed + inner.packed)
        _require(verify_covering(design, 1), "line covering failed verification")
    if len(design) != expected:
        raise ConstructionError(
            f"line covering size {len(design)} != optimal {expected}")
    return design


# Turan designs ---------------------------------------------------------------

def turan_point_design(q: int, n: int, k: int,
                       verify: bool = True) -> SubspaceDesign:
    """All 1-subspaces of a fixed (n-k+1)-subspace: a Turan design T_q[n,k,1].

    The fixed subspace is the span of the first d = n-k+1 standard basis
    vectors, so its points are those of F_q^d followed by k - 1 zero
    coordinates, which multiply a packed row by q^(k-1).  verify=False
    skips the Turan census, for a caller that runs it itself.
    """
    check_ambient(n)
    get_gf(q)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got ({n},{k})")
    d = n - k + 1
    design = SubspaceDesign.from_rows(q, n, 1, [
        (v * q ** (k - 1),) for (v,) in grassmannian_rows(q, d, 1)])
    expected = (q ** d - 1) // (q - 1)
    if len(design) != expected:
        raise ConstructionError(f"Turan design size {len(design)} != {expected}")
    if verify:
        _require(verify_turan(design, k), "Turan point design failed verification")
    return design


def turan_dual_covering(q: int, n: int, k: int) -> SubspaceDesign:
    """Dual of the Turan point design: a covering C_q[n, n-1, n-k].

    As b <= t iff t-perp <= b-perp, one census certifies both: the dual's at
    n - k, or for k = n the Turan census, as a covering census at r = 0 would
    list the q^(n-1) vectors of every block."""
    design = dualize(turan_point_design(q, n, k, verify=(k == n)))
    if k < n:
        _require(verify_covering(design, n - k), "dual covering failed verification")
    return design


# covering recursion -----------------------------------------------------

def recursive_covering(s1: SubspaceDesign, s2: SubspaceDesign,
                       r: int) -> SubspaceDesign:
    """Combine C_q[n-1,k-1,r-1] and C_q[n-1,k,r] into a C_q[n,k,r].

    Type-1 blocks: for each block P of s1 and each b in F_q^(n-1) zero at
    P's pivots (one per coset b + P), the span of P x {0} and (b, 1).
    Type-2 blocks: the blocks of s2 embedded in the last-coordinate-zero
    hyperplane.  The output has exactly q^(n-k) |s1| + |s2| blocks.  Inputs
    whose (q, n, k) do not fit, and r outside 1..k, raise ValueError.
    """
    q = s1.q
    if s2.q != q or s2.n != s1.n or s2.k != s1.k + 1:
        raise ValueError(f"s2 must have the q and n of s1 and k one larger: "
                         f"s1 has (q, n, k) = {(s1.q, s1.n, s1.k)}, s2 has "
                         f"{(s2.q, s2.n, s2.k)}")
    n = s1.n + 1
    k = s2.k
    if not 1 <= r <= k:
        raise ValueError(f"need 1 <= r <= k, got r={r}, k={k}")
    _require(verify_covering(s1, r - 1), "s1 is not a covering at r-1")
    _require(verify_covering(s2, r), "s2 is not a covering at r")
    place = _places(q, n)
    blocks = []
    for packed, pivots in zip(s1.packed, s1.pivots):
        # a zero last coordinate multiplies a packed row by q
        base = [row * q for row in packed]
        free = tuple([place[c] for c in range(n - 1) if c not in pivots])
        # the packed b, in itertools.product order over b's free entries
        for beta in _unit_table(q, free):
            blocks.append(span(q, n, base + [beta + 1]).packed)
    # s2's blocks in the last-coordinate-zero hyperplane, packed as P's above
    blocks += [tuple([v * q for v in packed]) for packed in s2.packed]
    design = SubspaceDesign.from_rows(q, n, k, blocks)
    expected = q ** (n - k) * len(s1) + len(s2)
    if len(design) != expected:
        raise ConstructionError(
            f"recursion block count {len(design)} != {expected}")
    _require(verify_covering(design, r), "recursive covering failed verification")
    return design


# the 399-block C_2[7,3,2] ------------------------------------------------------

# Base-set exponents for the GF(64) construction; the five quadruples have
# pairwise difference sets tiling Z_63 minus {0, 21, 42} and zero element
# sums, both asserted before any block is emitted.
GF64_QUADS = ((0, 1, 4, 16), (0, 2, 8, 32), (0, 5, 27, 40),
                (0, 7, 44, 53), (0, 11, 29, 49))
GF64_LINE_EXPONENTS = (0, 1, 4, 6, 16, 24, 33)
GF64_MODULUS = (1, 1, 0, 0, 0, 0, 1)  # x^6 + x + 1
GF64_BIT = 1  # the packed vector (0, 1) of GF(64) x GF(2)


def _check_gf64_quads(gf64: Field):
    """Each quadruple sums to zero; their difference sets tile Z_63 - {0,21,42}."""
    union = set()
    for quad in GF64_QUADS:
        diffs = {(a - b) % 63 for a in quad for b in quad if a != b}
        if len(diffs) != 12:
            raise ConstructionError(f"difference set of {quad} has size {len(diffs)}")
        union |= diffs
        acc = 0
        for j in quad:
            acc = gf64.add(acc, gf64.alpha_pow(j))
        if acc != 0:
            raise ConstructionError(f"quadruple {quad} does not sum to zero")
    if union != set(range(63)) - {0, 21, 42}:
        raise ConstructionError("difference sets do not tile Z_63 - {0,21,42}")


def gf64_orbits() -> Tuple[GroupAction, SubspaceDesign, int]:
    """The 399-block C_2[7,3,2] as a certified orbit description: the Singer
    action (beta, b) -> (alpha beta, b) on GF(64) x GF(2), the design of
    its seven base blocks and the design's block count.

    A vector (beta, b) is the vec_pack of beta's coefficient vector
    followed by b, so x^j's vector is the single bit 64 >> j.  beta ->
    (beta, 0) is linear, so _xor_span tables it from the vectors of
    x^5, ..., x, 1, the shifts 2 << i for i = 0..5 (bit j of beta picks
    x^j's), and XOR adds vectors, b is GF64_BIT, (alpha^j, 0) is power[j]
    and, as alpha = x, e_i is power[i] for i < 6.  The orbits of five
    quadruple blocks and a fixed 7-element multiplicative pattern
    have 63 blocks each, that of the diagonal block
    {0, 1, alpha^21, alpha^42} x GF(2) has 21.  The quadruples are checked,
    and read_blocks reads each base block's rows off its eight vectors,
    refusing one that is not a 3-subspace, and SubspaceDesign.from_rows
    takes them, so no Subspace is built; then verify_orbits sizes each
    base's orbit, refuses two bases in one orbit, and must find a covering
    of 399 blocks.  Orbit sizes divide 63, and six 63s and one 21 is the
    only way seven of them sum to 399, so the count fixes the sizes.
    """
    gf64 = get_gf(64)
    if gf64.modulus != GF64_MODULUS:
        raise ConstructionError(f"GF(64) modulus {gf64.modulus} is not "
                                f"x^6 + x + 1")
    _check_gf64_quads(gf64)
    vector = _xor_span([2 << i for i in range(6)])
    power = list(map(vector.__getitem__, gf64.exp))
    singer = GroupAction(7, power[1:7] + [GF64_BIT])
    bases = []  # the packed vectors of each base block
    for quad in GF64_QUADS:
        a = [power[j] for j in quad]
        bases.append([0, a[0] ^ a[1], a[0] ^ a[2], a[0] ^ a[3]]
                     + [x | GF64_BIT for x in a])
    diagonal = [0, power[0], power[21], power[42]]
    bases.append(diagonal + [x | GF64_BIT for x in diagonal])
    bases.append([0] + [power[e] for e in GF64_LINE_EXPONENTS])
    try:
        bases = SubspaceDesign.from_rows(2, 7, 3, read_blocks(7, 3, bases))
    except BlockError as exc:
        raise ConstructionError(f"base block {exc.index} {exc.fault}") from exc

    count, report = verify_orbits(singer, bases, 2)
    if count != 399:
        raise ConstructionError(f"gf64 block count {count} != 399")
    _require(report, "gf64 design is not a covering")
    return singer, bases, count


def gf64_covering_design() -> SubspaceDesign:
    """The 399-block covering design C_2[7,3,2] over GF(64) x GF(2).

    Its blocks are the orbits of the base design of gf64_orbits, which
    certifies it, under the Singer action: one GroupAction.orbit_blocks
    call reads the packed RREF rows of every base's orbit off the sorted
    images of its vectors, which the base design listed for its census,
    up to the image that is the base again, with one read_blocks call for
    all 399, and an image that is not a 3-subspace raises
    ConstructionError naming it within its base's orbit.
    SubspaceDesign.from_rows takes the rows of all 399, so no Subspace is
    built.
    """
    singer, bases, count = gf64_orbits()
    try:
        blocks = singer.orbit_blocks(bases)
    except BlockError as exc:
        raise ConstructionError(f"image {exc.index + 1} of a base block "
                                f"{exc.fault}") from exc
    design = SubspaceDesign.from_rows(2, 7, 3, blocks)
    if len(design) != count:
        raise ConstructionError(f"gf64 block count {len(design)} != {count}")
    return design


# Steiner structure conversions --------------------------------------------------

def expand_to_steiner_system(design: SubspaceDesign) -> SetSystem:
    """Expand a Steiner structure S_2[2,k,n] into a Steiner system S(3,2^k,2^n).

    Points are the vectors of F_2^n, numbered with coordinate 0 the least
    significant bit (label[v] for the vector packed as v); blocks are all
    translates of all design blocks, deduplicated.
    """
    if design.q != 2:
        raise ConstructionError("expansion is defined over GF(2) only")
    if design.n > 16:
        raise BudgetError(f"n={design.n}: expanding lists 2^{design.n} points, "
                          f"past the limit n <= 16")
    _require(verify_covering(design, 2),
             "input is not a Steiner structure S_2[2,k,n]", steiner=True)
    n, k = design.n, design.k
    label = _xor_span([1 << i for i in range(n)])  # e_i -> 2^i, tabled
    coset_blocks = set()
    # the vectors the Steiner census above listed
    for vectors in design.vector_lists:
        packed = list(map(label.__getitem__, vectors))
        for beta in range(1 << n):
            coset_blocks.add(frozenset(beta ^ x for x in packed))
    system = SetSystem.from_blocks(1 << n, [sorted(b) for b in coset_blocks])
    expected = (2 ** (n - k) * (2 ** n - 1) * (2 ** (n - 1) - 1)
                // ((2 ** k - 1) * (2 ** (k - 1) - 1)))
    if len(system.blocks) != expected:
        raise ConstructionError(
            f"expansion produced {len(system.blocks)} blocks, expected {expected}")
    _require(verify_steiner_system(system, 3),
             "expanded system failed the t=3 check", steiner=True)
    return system


def derive_steiner(design: SubspaceDesign, t: int,
                   point: Subspace) -> Tuple[SubspaceDesign, CoverageReport]:
    """Derived structure: blocks through a point, mapped to the quotient.

    Takes a Steiner structure S_q[t,k,n] and a 1-dimensional subspace; the
    blocks whose packed vectors hold its packed row are projected onto a
    fixed complement of the point and re-coordinatized to F_q^(n-1).  The
    Steiner census and that lookup share one listing, design.vector_lists.
    The method reconstructs an unstated derivation, so the output is
    re-verified and the report is returned with the design; callers must
    check report.is_steiner.

    A block B through the point maps to the vectors D(v - v[j0] * p), v in
    B, p the point's row, j0 its pivot and D the deletion of coordinate j0:
    the D images of B's vectors that are zero at j0.  p lies in B and leads
    at j0, so j0 is a pivot of B, and B's other RREF rows are zero at j0
    and span those vectors.  With column j0 deleted (the digits above it
    drop one place) they are the image's RREF, with no row reduction.
    """
    if t < 2:
        raise ValueError("derivation needs t >= 2")
    if point.dim != 1 or (point.q, point.n) != (design.q, design.n):
        raise ValueError("point must be a 1-subspace of the ambient space")
    _require(verify_covering(design, t), "input is not a Steiner structure",
             steiner=True)
    q, n = design.q, design.n
    j0 = point.pivots[0]
    key = point.packed[0]
    low = q ** (n - 1 - j0)  # the place of coordinate j0
    blocks = []
    # the vectors the Steiner census above listed, under the same budget
    for packed, pivots, vectors in zip(design.packed, design.pivots,
                                       design.vector_lists):
        if key in vectors:
            blocks.append(tuple([v // (low * q) * low + v % low
                                 for v, c in zip(packed, pivots) if c != j0]))
    out = SubspaceDesign.from_rows(q, n - 1, design.k - 1, blocks)
    return out, verify_covering(out, t - 1)


# greedy baseline -----------------------------------------------------------------

def greedy_covering(q: int, n: int, k: int, r: int) -> SubspaceDesign:
    """Greedy covering baseline: repeatedly add the block covering the most
    currently-uncovered r-subspaces, ties broken by enumeration order.

    Targets are numbered in enumeration order and keyed by their packed
    RREF rows.  Every candidate block's targets are read in one pass: the
    _local_rows reader reads them at local_row_indices off the vector
    lists that span_vector_lists builds from the grassmannian_rows packed
    rows, and zip cuts the stream into one target tuple per candidate.  The
    chosen blocks' rows go to SubspaceDesign.from_rows.  Each block keeps
    its gain, the number of its targets still uncovered, and a newly
    covered target lowers the gain of every block that holds it.
    """
    check_ambient(n)
    get_gf(q)
    if not 0 <= r <= k <= n:
        raise ValueError(f"need 0 <= r <= k <= n, got r={r}, k={k}, n={n}")
    if gaussian(n, k, q) * gaussian(k, r, q) > MAX_SUBSPACE_ENUM:
        raise BudgetError("greedy incidence budget exceeded")
    rows_of = _local_rows(q, k, r)
    index = {t: i for i, t in enumerate(grassmannian_rows(q, n, r))}
    blocks = list(grassmannian_rows(q, n, k))  # each candidate's RREF rows
    found = map(index.__getitem__, rows_of(span_vector_lists(q, n, k, blocks)))
    covers = list(zip(*[found] * gaussian(k, r, q)))  # each candidate's targets
    holders = [[] for _ in index]  # target -> the blocks that hold it
    for j, cover in enumerate(covers):
        for t in cover:
            holders[t].append(j)
    gain = list(map(len, covers))
    # Gains only fall, so each pick is the next block still at the top gain.
    picks = (j for top in range(max(gain), 0, -1) for j in range(len(blocks))
             if gain[j] == top)
    uncovered = set(range(len(index)))
    chosen = []
    while uncovered:
        best = next(picks)
        chosen.append(blocks[best])
        newly = uncovered.intersection(covers[best])
        uncovered -= newly
        for j in itertools.chain.from_iterable(map(holders.__getitem__, newly)):
            gain[j] -= 1
    design = SubspaceDesign.from_rows(q, n, k, chosen)
    _require(verify_covering(design, r), "greedy output failed verification")
    return design
