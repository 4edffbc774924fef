"""Exact arithmetic for Gaussian coefficients and every covering-number bound.

All values are exact integers.  The ceiling of a ratio a / b of positive
integers is taken as -(-a // b), in integer arithmetic, never on floats.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@functools.lru_cache(maxsize=None)
def gaussian(n: int, l: int, q: int) -> int:
    """Gaussian coefficient [n l]_q, the number of l-subspaces of F_q^n.

    Returns 0 when l is outside [0, n]; this convention simplifies the
    recursion edge cases.  q < 2 raises ValueError.
    """
    if q < 2:
        raise ValueError(f"need q >= 2, got q={q}")
    if l < 0 or l > n:
        return 0
    num = 1
    den = 1
    for i in range(l):
        num *= q ** (n - i) - 1
        den *= q ** (l - i) - 1
    quotient, rest = divmod(num, den)
    if rest:
        raise RuntimeError(f"[{n} {l}]_{q}: {num} is not a multiple of {den}")
    return quotient


def basic_lower(n: int, k: int, r: int, q: int) -> int:
    """Counting lower bound: ceil([n r]_q / [k r]_q).

    The raw ratio is integral exactly when a Steiner structure exists, so the
    ceiling is a valid strengthening for integer covering numbers.
    """
    if not 0 <= r <= k <= n:
        raise ValueError(f"need r <= k <= n, got ({n},{k},{r})")
    return -(-gaussian(n, r, q) // gaussian(k, r, q))


def schonheim_lower(n: int, k: int, r: int, q: int) -> int:
    """Iterated q-Schonheim bound, ceilings taken at every level.

    Recursion: C_q(n,k,r) >= ceil((q^n-1)/(q^k-1) * C_q(n-1,k-1,r-1)), one
    _schonheim_step from the bound at (n-1, k-1, r-1), with the exact
    r = 1 value, the step from 1, as the base case.
    """
    if not 1 <= r <= k <= n:
        raise ValueError(f"need 1 <= r <= k <= n, got ({n},{k},{r})")
    inner = 1 if r == 1 else schonheim_lower(n - 1, k - 1, r - 1, q)
    return _schonheim_step(n, k, q, inner)


def _schonheim_step(n: int, k: int, q: int, inner: int) -> int:
    """ceil((q^n-1)/(q^k-1) * inner): one level of the q-Schonheim
    recursion, the only place its formula is written."""
    return -(-(q ** n - 1) * inner // (q ** k - 1))


def decaen_lower(n: int, k: int, q: int) -> int:
    """de Caen bound for the consecutive case r = k-1:

    C_q(n, k, k-1) >= ceil((q^k-1)(q-1)/(q^(n-k)-1)^2 * [n k+1]_q).
    """
    if not k < n:
        raise ValueError("requires k < n")
    return -(-(q ** k - 1) * (q - 1) * gaussian(n, k + 1, q)
             // (q ** (n - k) - 1) ** 2)


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
        return -(-(q ** n - 1) // (q ** k - 1)), "exact:r=1"
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


def bound_table(q: int, n_max: int = 12) -> Dict[Tuple[int, int, int], BoundRecord]:
    """Best-known bound records for all 1 <= r <= k <= n <= n_max.

    Lower = max of the counting, Schonheim, de Caen and exact values; upper =
    min of the trivial Gaussian bound, the block-count recursion for k < n,
    registered designs and exact values: for q = 2 the 399-block gf64
    design at (7, 3, 2), whose count gf64_orbits certifies on its design
    of seven base blocks, building neither the 399 nor any Subspace.  Each
    bound is chosen by direct comparisons in that candidate order, and a
    tie keeps the earlier source.  The recursion reads only n - 1 entries,
    so one pass in n order is the fixed point, and registered uppers feed
    forward through it; the pass carries each row's Schonheim value the
    same way, one _schonheim_step from the value at (n-1, k-1, r-1).
    """
    if q not in (2, 3):
        raise ValueError("bound table supports q in {2, 3}")
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    if n_max > 12:
        raise ValueError("n_max capped at 12")
    registered: Dict[Tuple[int, int, int], Tuple[int, str]] = {}
    if q == 2 and n_max >= 7:
        from .constructions import gf64_orbits
        registered[(7, 3, 2)] = gf64_orbits()[2], "gf64"

    records: Dict[Tuple[int, int, int], BoundRecord] = {}
    uppers: Dict[Tuple[int, int, int], int] = {}
    schonheims: Dict[Tuple[int, int, int], int] = {}
    params = ((n, k, r) for n in range(1, n_max + 1)
              for k in range(1, n + 1) for r in range(1, k + 1))
    for key in params:
        n, k, r = key
        # by duality the Turan bound [n-k+r r]_q also bounds C_q(n,k,r)
        up, up_src = turan_upper(n, k, r, q), "trivial"
        if k < n:
            value = recursive_upper(n, k, r, q, uppers)
            if value < up:
                up, up_src = value, "recursive"
        if key in registered and registered[key][0] < up:
            up, up_src = registered[key]
        lo, lo_src = basic_lower(n, k, r, q), "basic"
        value = schonheims[key] = _schonheim_step(
            n, k, q, schonheims[n - 1, k - 1, r - 1] if r > 1 else 1)
        if value > lo:
            lo, lo_src = value, "schonheim"
        if r == k - 1 and k < n:
            value = decaen_lower(n, k, q)
            if value > lo:
                lo, lo_src = value, "decaen"
        exact = _exact_with_source(n, k, r, q)
        if exact:
            if exact[0] < up:
                up, up_src = exact
            if exact[0] > lo:
                lo, lo_src = exact
        uppers[key] = up
        records[key] = BoundRecord(q, n, k, r, lo, lo_src, up, up_src)
    return records


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
