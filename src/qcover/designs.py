"""Design containers, covering/Turan/Steiner verifiers and set-system output.

A SubspaceDesign is a duplicate-free set of equal-dimension subspaces.  The
covering verifier supports two independent strategies (expanding each block
into its r-subspaces, or scanning every target subspace against the blocks)
and the two must agree; tests cross-validate them on the whole corpus.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Iterable, List, Sequence, Tuple

from .bounds import gaussian
from .subspaces import (MAX_SUBSPACE_ENUM, AmbientMismatch, BudgetError, Subspace,
                        contains_subspace, enumerate_grassmannian, local_patterns,
                        orthogonal_complement, packed_vectors, point_key, span,
                        subspaces_of, superspaces_containing)

WITNESS_CAP = 16


@dataclass(frozen=True)
class SubspaceDesign:
    """A set of k-dimensional subspaces of F_q^n."""

    q: int
    n: int
    k: int
    blocks: Tuple[Subspace, ...]
    label: str = field(default="", compare=False)

    @staticmethod
    def from_blocks(blocks: Iterable[Subspace], label: str = "",
                    q: int = None, n: int = None, k: int = None) -> "SubspaceDesign":
        """Build a design, deduplicating by canonical form."""
        unique = sorted(set(blocks), key=lambda s: s.sort_key())
        if unique:
            q = unique[0].q if q is None else q
            n = unique[0].n if n is None else n
            k = unique[0].dim if k is None else k
        if q is None or n is None or k is None:
            raise ValueError("empty design needs explicit q, n, k")
        for b in unique:
            if (b.q, b.n, b.dim) != (q, n, k):
                raise AmbientMismatch(
                    f"block ({b.q},{b.n},dim {b.dim}) in design ({q},{n},k={k})")
        return SubspaceDesign(q, n, k, tuple(unique), label)

    def __len__(self):
        return len(self.blocks)


@dataclass(frozen=True)
class CoverageReport:
    """Exact multiplicity census of a verification run."""

    total: int
    histogram: Dict[int, int]
    min_multiplicity: int
    max_multiplicity: int
    witnesses: Tuple[Subspace, ...]

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


def _report_from_counts(q: int, n: int, r: int, counts: Counter, total: int,
                        key: Callable[[Subspace], Hashable] = None) -> CoverageReport:
    """Report of a census whose counts are keyed by key(target)."""
    histogram = Counter(counts.values())
    uncovered = total - len(counts)
    if uncovered:
        histogram[0] = uncovered
    min_mult = min(histogram) if histogram else 0
    max_mult = max(histogram) if histogram else 0
    witnesses: List[Subspace] = []
    if uncovered:
        for t in enumerate_grassmannian(q, n, r):
            if (t if key is None else key(t)) not in counts:
                witnesses.append(t)
                if len(witnesses) == WITNESS_CAP:
                    break
    assert sum(histogram.values()) == total
    return CoverageReport(total, dict(histogram), min_mult, max_mult,
                          tuple(witnesses))


def verify_covering(design: SubspaceDesign, r: int,
                    strategy: str = "auto") -> CoverageReport:
    """Multiplicity of every r-subspace of F_q^n among the design's blocks.

    strategy: "expand" enumerates each block's r-subspaces; "scan" tests each
    r-subspace of the ambient space against every block; "auto" picks the
    cheaper one by the incidence-count cost model.  Expand counts point keys:
    each block's vectors are packed once and local_patterns reads off the
    key of every r-subspace, with no row reduction per target.
    """
    q, n, k = design.q, design.n, design.k
    if not 0 <= r <= k:
        raise ValueError(f"need 0 <= r <= k, got r={r}")
    total = gaussian(n, r, q)
    if total > MAX_SUBSPACE_ENUM:
        raise BudgetError(f"[{n} {r}]_{q} exceeds the verification budget")
    if strategy == "auto":
        expand_cost = len(design.blocks) * gaussian(k, r, q)
        scan_cost = total * max(len(design.blocks), 1)
        strategy = "expand" if expand_cost <= scan_cost else "scan"
    counts: Counter = Counter()
    if strategy == "expand":
        patterns = local_patterns(q, k, r)
        for block in design.blocks:
            vectors = packed_vectors(block)
            counts.update(tuple(sorted([vectors[i] for i in pattern]))
                          for pattern in patterns)
        return _report_from_counts(q, n, r, counts, total, point_key)
    if strategy == "scan":
        for t in enumerate_grassmannian(q, n, r):
            m = sum(1 for b in design.blocks if contains_subspace(b, t))
            if m:
                counts[t] = m
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return _report_from_counts(q, n, r, counts, total)


def verify_turan(design: SubspaceDesign, k: int,
                 strategy: str = "auto") -> CoverageReport:
    """For every k-subspace, how many design blocks it contains.

    The design's blocks play the r-subspace role; the verdict is_covering
    means every k-subspace contains at least one block.
    """
    q, n, r = design.q, design.n, design.k
    if not r <= k <= n:
        raise ValueError(f"need block dim <= k <= n, got k={k}")
    total = gaussian(n, k, q)
    if total > MAX_SUBSPACE_ENUM:
        raise BudgetError(f"[{n} {k}]_{q} exceeds the verification budget")
    if strategy == "auto":
        expand_cost = len(design.blocks) * gaussian(n - r, k - r, q)
        scan_cost = total * max(len(design.blocks), 1)
        strategy = "expand" if expand_cost <= scan_cost else "scan"
    counts: Counter = Counter()
    if strategy == "expand":
        for block in design.blocks:
            counts.update(superspaces_containing(block, k))
    elif strategy == "scan":
        for t in enumerate_grassmannian(q, n, k):
            m = sum(1 for b in design.blocks if contains_subspace(t, b))
            if m:
                counts[t] = m
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return _report_from_counts(q, n, k, counts, total)


def verify_steiner(design: SubspaceDesign, r: int,
                   strategy: str = "auto") -> CoverageReport:
    """Same census as verify_covering; consult report.is_steiner."""
    return verify_covering(design, r, strategy)


def dualize(design: SubspaceDesign) -> SubspaceDesign:
    """Orthogonal complement of every block; an involution on designs."""
    blocks = [orthogonal_complement(b) for b in design.blocks]
    return SubspaceDesign.from_blocks(
        blocks, label=f"dual({design.label})" if design.label else "dual",
        q=design.q, n=design.n, k=design.n - design.k)


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


@dataclass(frozen=True)
class SetSystemReport:
    total: int
    histogram: Dict[int, int]
    min_multiplicity: int
    max_multiplicity: int
    witnesses: Tuple[Tuple[int, ...], ...]

    @property
    def is_steiner(self) -> bool:
        return self.min_multiplicity == 1 and self.max_multiplicity == 1


def point_indexing(q: int, n: int) -> Dict[Subspace, int]:
    """Deterministic index for each 1-subspace, in enumeration order."""
    return {s: i for i, s in enumerate(enumerate_grassmannian(q, n, 1))}


def to_point_set_system(design: SubspaceDesign) -> SetSystem:
    """Points are the 1-subspaces of F_q^n; a block maps to its point set."""
    if design.k < 1:
        raise ValueError("needs block dimension >= 1")
    q, n = design.q, design.n
    index = point_indexing(q, n)
    v = len(index)
    blocks = []
    for b in design.blocks:
        blocks.append(tuple(sorted(index[p] for p in subspaces_of(b, 1))))
    return SetSystem.from_blocks(v, blocks)


def verify_steiner_system(system: SetSystem, t: int) -> SetSystemReport:
    """Exact multiplicity of every t-subset of points across the blocks."""
    if t > system.block_size:
        raise ValueError("t exceeds the block size")
    total = math.comb(system.v, t)
    if total > MAX_SUBSPACE_ENUM:
        raise BudgetError(f"C({system.v},{t}) exceeds the verification budget")
    counts: Counter = Counter()
    for block in system.blocks:
        for sub in itertools.combinations(block, t):
            counts[sub] += 1
    histogram = Counter(counts.values())
    uncovered = total - len(counts)
    if uncovered:
        histogram[0] = uncovered
    witnesses: List[Tuple[int, ...]] = []
    if uncovered:
        for sub in itertools.combinations(range(system.v), t):
            if sub not in counts:
                witnesses.append(sub)
                if len(witnesses) == WITNESS_CAP:
                    break
    min_mult = min(histogram) if histogram else 0
    max_mult = max(histogram) if histogram else 0
    return SetSystemReport(total, dict(histogram), min_mult, max_mult,
                           tuple(witnesses))


# text formats ---------------------------------------------------------------

DESIGN_MAGIC = "qcover-design v1"
SETSYSTEM_MAGIC = "qcover-setsystem v1"


class FormatError(ValueError):
    """Malformed design or set-system file."""


def design_to_text(design: SubspaceDesign) -> str:
    lines = [DESIGN_MAGIC, f"q={design.q} n={design.n} k={design.k}"]
    for block in design.blocks:
        lines.append(" ".join("".join(str(c) for c in row) for row in block.rows))
    return "\n".join(lines) + "\n"


def design_from_text(text: str) -> SubspaceDesign:
    lines = text.splitlines()
    if not lines or lines[0].strip() != DESIGN_MAGIC:
        raise FormatError("missing design header")
    if len(lines) < 2:
        raise FormatError("missing parameter line")
    try:
        params = dict(item.split("=") for item in lines[1].split())
        q, n, k = int(params["q"]), int(params["n"]), int(params["k"])
    except (ValueError, KeyError) as exc:
        raise FormatError(f"bad parameter line: {lines[1]!r}") from exc
    blocks = []
    for line in lines[2:]:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        vectors = []
        for word in line.split():
            if len(word) != n or not all(ch.isdigit() for ch in word):
                raise FormatError(f"bad vector {word!r} for n={n}")
            vec = tuple(int(ch) for ch in word)
            if any(c >= q for c in vec):
                raise FormatError(f"coordinate out of GF({q}) in {word!r}")
            vectors.append(vec)
        if len(vectors) != k:
            raise FormatError(f"block with {len(vectors)} vectors, expected {k}")
        block = span(q, n, vectors)
        if block.dim != k:
            raise FormatError(f"block rank {block.dim} < k={k}: {line!r}")
        blocks.append(block)
    return SubspaceDesign.from_blocks(blocks, q=q, n=n, k=k)


def setsystem_to_text(system: SetSystem) -> str:
    lines = [SETSYSTEM_MAGIC,
             f"v={system.v} b={len(system.blocks)} size={system.block_size}"]
    for block in system.blocks:
        lines.append(" ".join(str(x) for x in block))
    return "\n".join(lines) + "\n"


def setsystem_from_text(text: str) -> SetSystem:
    lines = text.splitlines()
    if not lines or lines[0].strip() != SETSYSTEM_MAGIC:
        raise FormatError("missing set-system header")
    try:
        params = dict(item.split("=") for item in lines[1].split())
        v = int(params["v"])
    except (ValueError, KeyError, IndexError) as exc:
        raise FormatError("bad set-system parameter line") from exc
    blocks = []
    for line in lines[2:]:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        blocks.append(tuple(int(x) for x in line.split()))
    return SetSystem.from_blocks(v, blocks)


def save_design(design: SubspaceDesign, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(design_to_text(design))


def load_design(path) -> SubspaceDesign:
    with open(path, encoding="utf-8") as fh:
        return design_from_text(fh.read())


def save_setsystem(system: SetSystem, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(setsystem_to_text(system))


def load_setsystem(path) -> SetSystem:
    with open(path, encoding="utf-8") as fh:
        return setsystem_from_text(fh.read())
