"""Exact arithmetic for Gaussian coefficients and every covering-number bound.

All values are exact integers; ratios go through fractions.Fraction so that
ceilings are taken on exact rationals, never on floats.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple


@functools.lru_cache(maxsize=None)
def gaussian(n: int, l: int, q: int) -> int:
    """Gaussian coefficient [n l]_q, the number of l-subspaces of F_q^n.

    Returns 0 when l is outside [0, n]; this convention simplifies the
    recursion edge cases.
    """
    if l < 0 or l > n:
        return 0
    num = 1
    den = 1
    for i in range(l):
        num *= q ** (n - i) - 1
        den *= q ** (l - i) - 1
    assert num % den == 0
    return num // den


def basic_ratio(n: int, k: int, r: int, q: int) -> Fraction:
    """Raw ratio [n r]_q / [k r]_q."""
    return Fraction(gaussian(n, r, q), gaussian(k, r, q))


def basic_lower(n: int, k: int, r: int, q: int) -> int:
    """Counting lower bound: ceil([n r]_q / [k r]_q).

    The raw ratio is integral exactly when a Steiner structure exists, so the
    ceiling is a valid strengthening for integer covering numbers.
    """
    if not 0 <= r <= k <= n:
        raise ValueError(f"need r <= k <= n, got ({n},{k},{r})")
    return math.ceil(basic_ratio(n, k, r, q))


def schonheim_lower(n: int, k: int, r: int, q: int) -> int:
    """Iterated q-Schonheim bound, ceilings taken at every level.

    Recursion: C_q(n,k,r) >= ceil((q^n-1)/(q^k-1) * C_q(n-1,k-1,r-1)), with
    the exact r = 1 value as the base case.
    """
    if not 1 <= r <= k <= n:
        raise ValueError(f"need 1 <= r <= k <= n, got ({n},{k},{r})")
    if r == 1:
        return math.ceil(Fraction(q ** n - 1, q ** k - 1))
    inner = schonheim_lower(n - 1, k - 1, r - 1, q)
    return math.ceil(Fraction(q ** n - 1, q ** k - 1) * inner)


def turan_decaen_lower(n: int, r: int, q: int) -> int:
    """de Caen q-analog: T_q(n, r+1, r) >= (q^(n-r)-1)(q-1)/(q^r-1)^2 [n r-1]_q."""
    val = Fraction((q ** (n - r) - 1) * (q - 1), (q ** r - 1) ** 2)
    return math.ceil(val * gaussian(n, r - 1, q))


def decaen_lower(n: int, k: int, q: int) -> int:
    """de Caen bound for the consecutive case r = k-1:

    C_q(n, k, k-1) >= ceil((q^k-1)(q-1)/(q^(n-k)-1)^2 * [n k+1]_q).
    """
    if not k < n:
        raise ValueError("requires k < n")
    val = Fraction((q ** k - 1) * (q - 1), (q ** (n - k) - 1) ** 2)
    return math.ceil(val * gaussian(n, k + 1, q))


def exact_values(n: int, k: int, r: int, q: int) -> Optional[int]:
    value = _exact_with_source(n, k, r, q)
    return value[0] if value else None


def _exact_with_source(n: int, k: int, r: int, q: int) -> Optional[Tuple[int, str]]:
    """Known exact covering numbers with a provenance tag."""
    if not 1 <= r <= k <= n:
        return None
    if k == n:
        return 1, "exact:trivial"
    if r == k:
        return gaussian(n, k, q), "exact:trivial"
    if r == 1:
        return math.ceil(Fraction(q ** n - 1, q ** k - 1)), "exact:r=1"
    if k == n - 1:
        return (q ** (r + 1) - 1) // (q - 1), "exact:k=n-1"
    if (q, n, k, r) == (2, 5, 3, 2):
        return 27, "exact:C2(5,3,2)"
    return None


def turan_upper(n: int, k: int, r: int, q: int) -> int:
    """T_q(n,k,r) <= [n-k+r r]_q (all r-subspaces of a fixed (n-k+r)-space)."""
    return gaussian(n - k + r, r, q)


def recursive_upper(n: int, k: int, r: int, q: int,
                    table: Dict[Tuple[int, int, int], int]) -> int:
    """Recursive upper bound q^(n-k) C_q(n-1,k-1,r-1) + C_q(n-1,k,r).

    The table maps (n,k,r) to known upper bounds; covering the zero subspace
    (r = 0) costs one block.
    """
    u1 = 1 if r - 1 == 0 else table.get((n - 1, k - 1, r - 1))
    u2 = table.get((n - 1, k, r))
    if u1 is None or u2 is None:
        raise KeyError(f"missing sub-parameter upper bounds for ({n},{k},{r})")
    return q ** (n - k) * u1 + u2


@dataclass
class BoundRecord:
    q: int
    n: int
    k: int
    r: int
    lower: int
    lower_src: str
    upper: int
    upper_src: str

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(
                f"bound inversion at ({self.n},{self.k},{self.r}): "
                f"{self.lower} > {self.upper}")


def bound_table(q: int, n_max: int = 12,
                extra_uppers: Optional[Dict[Tuple[int, int, int], Tuple[int, str]]] = None,
                include_constructions: bool = True) -> Dict[Tuple[int, int, int], BoundRecord]:
    """Best-known bound records for all 1 <= r <= k <= n <= n_max.

    Lower = max of the counting, Schonheim, de Caen and exact values; upper =
    min of the trivial Gaussian bound, the block-count recursion, exact values
    and registered constructed designs.  Propagation is iterated to a fixed
    point so registered uppers feed back through the recursion.
    """
    if q not in (2, 3):
        raise ValueError("bound table supports q in {2, 3}")
    if n_max > 12:
        raise ValueError("n_max capped at 12")
    registered: Dict[Tuple[int, int, int], Tuple[int, str]] = dict(extra_uppers or {})
    if include_constructions and q == 2 and n_max >= 7:
        registered.setdefault((7, 3, 2), _verified_gf64_upper())

    records: Dict[Tuple[int, int, int], BoundRecord] = {}
    uppers: Dict[Tuple[int, int, int], int] = {}
    upper_srcs: Dict[Tuple[int, int, int], str] = {}

    params = [(n, k, r)
              for n in range(1, n_max + 1)
              for k in range(1, n + 1)
              for r in range(1, k + 1)]

    changed = True
    while changed:
        changed = False
        for (n, k, r) in params:
            # by duality the Turan bound [n-k+r r]_q also bounds C_q(n,k,r)
            cands = [(turan_upper(n, k, r, q), "trivial")]
            try:
                cands.append((recursive_upper(n, k, r, q, uppers), "recursive"))
            except KeyError:
                pass
            if (n, k, r) in registered:
                cands.append(registered[(n, k, r)])
            exact = _exact_with_source(n, k, r, q)
            if exact:
                cands.append(exact)
            best, src = min(cands, key=lambda t: t[0])
            if uppers.get((n, k, r)) != best:
                uppers[(n, k, r)] = best
                upper_srcs[(n, k, r)] = src
                changed = True

    for (n, k, r) in params:
        lo_cands = [(basic_lower(n, k, r, q), "basic"),
                    (schonheim_lower(n, k, r, q), "schonheim")]
        if r == k - 1 and k < n:
            lo_cands.append((decaen_lower(n, k, q), "decaen"))
        exact = _exact_with_source(n, k, r, q)
        if exact:
            lo_cands.append(exact)
        lo, lo_src = max(lo_cands, key=lambda t: t[0])
        records[(n, k, r)] = BoundRecord(q, n, k, r, lo, lo_src,
                                         uppers[(n, k, r)], upper_srcs[(n, k, r)])
    return records


def turan_record(records: Dict[Tuple[int, int, int], BoundRecord],
                 n: int, k: int, r: int) -> BoundRecord:
    """Bounds on the Turan number T_q(n,k,r), read off the covering table.

    Uses the duality T_q(n,k,r) = C_q(n, n-r, n-k).
    """
    return records[(n, n - r, n - k)]


def _verified_gf64_upper() -> Tuple[int, str]:
    """Build and verify the 399-block C_2[7,3,2] design, then register it."""
    from .constructions import gf64_covering_design
    from .designs import verify_covering
    design = gf64_covering_design()
    report = verify_covering(design, 2)
    if not report.is_covering:
        raise RuntimeError("gf64 design failed covering verification")
    return len(design.blocks), "gf64"


def format_table(records: Dict[Tuple[int, int, int], BoundRecord],
                 csv: bool = False) -> str:
    """Aligned text or comma-separated rendering of a bound table."""
    header = ("n", "k", "r", "lower", "lower_src", "upper", "upper_src", "exact")
    rows = [header]
    for key in sorted(records):
        rec = records[key]
        rows.append((str(rec.n), str(rec.k), str(rec.r),
                     str(rec.lower), rec.lower_src,
                     str(rec.upper), rec.upper_src,
                     "yes" if rec.exact else "no"))
    if csv:
        return "\n".join(",".join(row) for row in rows)
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                     for row in rows)
