"""Workloads of the qcover benchmark: input generation, ops and output checks.

A workload hands out cycles of ops.  An op is a zero-argument callable that
makes one user-facing request to qcover, checks every output of it, and
returns the number of target subspaces the request certified: the sum of
`report.total` over the censuses whose verdict the user receives.  A failed
check raises CheckFailed.

Input generation (`write_census_inputs`) is plain Python and never imports
qcover, so it can run outside the timed process.  Ops import qcover lazily.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path
from typing import Callable, List, NamedTuple, Optional

WORKLOADS = ("gf64-cli", "q3-dual", "random-census")

# sha256 of the design file `qcover construct gf64 -o <file>` writes.
GF64_SHA256 = "f8c23429033db5efcf6fb817b994fb9f6f4497e27ab4e92cbf1bcb47eb3bfe43"
GF64_CENSUS = "targets=2667 min=1 max=3 histogram[1:2604 3:63]"

# q=3 Turan point designs and their duals, (n, k).  The three cases take a
# similar time per op, so the median lands inside one case's spread whatever
# order the seed gives them.
Q3_CASES = ((5, 2), (5, 3), (6, 5))

# Random-census design classes: (q, n, k, blocks, covering r, Turan k).
# Every class costs roughly the same per op except the last q=2 class, which
# has enough blocks to be a covering most of the time (so the witness listing
# is skipped) and sets the tail.
CENSUS_CLASSES = (
    (2, 6, 3, 12, 2, 4),
    (2, 6, 2, 12, 1, 3),
    (2, 7, 3, 2, 2, 5),
    (3, 5, 2, 10, 1, 3),
    (3, 5, 2, 10, 2, 4),
    (3, 5, 3, 8, 2, 4),
    (2, 6, 5, 30, 2, 5),
)
# Seed of the warm-up inputs, which must not depend on --seed so that set-up
# time compares across seeds.
WARMUP_SEED = 0
WITNESS_CAP = 16


class CheckFailed(AssertionError):
    """An op's output differs from what the benchmark expects."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def gaussian(n: int, k: int, q: int) -> int:
    """Number of k-subspaces of F_q^n, computed independently of qcover."""
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def check_report(report, total: int, incidences: int) -> int:
    """Census invariants that hold for any design; returns report.total.

    `incidences` is the number of (block, target) containments, which is
    fixed by the parameters alone: the histogram must account for each.
    """
    hist = report.histogram
    check(report.total == total, f"total {report.total} != {total}")
    check(sum(hist.values()) == total, f"histogram sums to {sum(hist.values())}")
    counted = sum(m * c for m, c in hist.items())
    check(counted == incidences, f"incidences {counted} != {incidences}")
    uncovered = hist.get(0, 0)
    check(len(report.witnesses) == min(uncovered, WITNESS_CAP),
          f"{len(report.witnesses)} witnesses for {uncovered} uncovered")
    check(report.is_covering == (uncovered == 0), "verdict contradicts histogram")
    return report.total


# gf64-cli -------------------------------------------------------------------

def check_gf64_file(path) -> None:
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    check(digest == GF64_SHA256, f"design file sha256 {digest}")


def gf64_cli_op(path: str):
    """construct gf64 -> verify -> bounds, in process through cli.main."""
    def op() -> int:
        from qcover import cli
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes = (
                cli.main(["construct", "gf64", "-o", path]),
                cli.main(["verify", path, "--mode", "covering", "--r", "2"]),
                cli.main(["bounds", "--q", "2", "--n-max", "7",
                          "--filter", "7,3,2"]),
            )
        check(codes == (0, 0, 0), f"exit codes {codes}: {err.getvalue()!r}")
        check_gf64_file(path)
        lines = out.getvalue().splitlines()
        results = [line for line in lines if line.startswith("RESULT:")]
        expected = [
            "RESULT: construct gf64 verdict=True size=399",
            f"RESULT: verify {path} mode=covering r=2 verdict=True size=399",
            "RESULT: bounds q=2 7,3,2 verdict=381<=C<=399 size=381..399",
        ]
        check(results == expected, f"RESULT lines {results}")
        check(any(line.startswith(GF64_CENSUS) for line in lines),
              "verify census line missing")
        # construct self-check, verify, and the bound table's registration
        # each certify every 2-subspace of F_2^7.
        return 3 * gaussian(7, 2, 2)
    return op


# q3-dual --------------------------------------------------------------------

def q3_dual_op(n: int, k: int):
    """Turan point design T_3[n,k,1], its expand check, dual, covering check."""
    def op() -> int:
        from qcover import constructions, designs
        q = 3
        size = (q ** (n - k + 1) - 1) // (q - 1)
        points = constructions.turan_point_design(q, n, k, verify=False)
        check(len(points.blocks) == size, f"{len(points.blocks)} points != {size}")
        turan = designs.verify_turan(points, k, strategy="expand")
        check(turan.is_covering, f"T_3[{n},{k},1] is not a Turan design")
        # each point lies in [n-1, k-1] of the k-subspaces
        certified = check_report(turan, gaussian(n, k, q),
                                 size * gaussian(n - 1, k - 1, q))
        dual = designs.dualize(points)
        check((len(dual.blocks), dual.k) == (size, n - 1),
              f"dual has {len(dual.blocks)} blocks of dim {dual.k}")
        cover = designs.verify_covering(dual, n - k)
        check(cover.is_covering, f"dual of T_3[{n},{k},1] is not a covering")
        # each hyperplane holds [n-1, n-k] of the (n-k)-subspaces
        certified += check_report(cover, gaussian(n, n - k, q),
                                  size * gaussian(n - 1, n - k, q))
        return certified
    return op


# random-census --------------------------------------------------------------

def _rref_mod_p(rows, p: int):
    """Reduced row echelon form over the prime field GF(p)."""
    mat = [list(r) for r in rows]
    n = len(mat[0]) if mat else 0
    rank = 0
    for c in range(n):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c] % p), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][c], -1, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return tuple(tuple(r) for r in mat[:rank])


def block_key(rows) -> str:
    return " ".join("".join(str(c) for c in row) for row in rows)


def design_digest(blocks_rows) -> str:
    """Order-free digest of a design given the canonical rows of its blocks."""
    keys = sorted(block_key(rows) for rows in blocks_rows)
    return hashlib.sha256("\n".join(keys).encode()).hexdigest()


def _random_design(rng: random.Random, q: int, n: int, k: int, b: int):
    """b distinct random k-subspaces; returns (generator rows, canonical rows)."""
    seen = {}
    while len(seen) < b:
        gens = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(k)]
        canon = _rref_mod_p(gens, q)
        if len(canon) == k and canon not in seen:
            seen[canon] = gens
    return list(seen.values()), list(seen)


def write_census_inputs(directory, seed: int, cycles: int) -> Path:
    """Write `cycles` rounds of one random design per class; returns the manifest.

    Design files hold random (unreduced) generator rows, so loading them
    exercises row reduction.  The manifest pins each design's parameters and
    the digest of its canonical form.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    manifest = []
    for cycle in range(cycles):
        entries = []
        order = rng.sample(CENSUS_CLASSES, len(CENSUS_CLASSES))
        for slot, (q, n, k, b, r, turan_k) in enumerate(order):
            gens, canon = _random_design(rng, q, n, k, b)
            path = directory / f"c{cycle:04d}-{slot}-q{q}n{n}k{k}b{b}.txt"
            lines = ["qcover-design v1", f"q={q} n={n} k={k}"]
            lines += [block_key(g) for g in gens]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            entries.append({"file": path.name, "q": q, "n": n, "k": k, "b": b,
                            "r": r, "turan_k": turan_k,
                            "digest": design_digest(canon)})
        manifest.append(entries)
    manifest_path = directory / "manifest.json"
    manifest_path.write_text(json.dumps({"seed": seed, "cycles": manifest}),
                             encoding="utf-8")
    return manifest_path


def census_op(path: Path, entry: dict):
    """Load a design file; covering and Turan census by expand and by scan."""
    def op() -> int:
        from qcover import designs
        q, n, k, b = entry["q"], entry["n"], entry["k"], entry["b"]
        r, turan_k = entry["r"], entry["turan_k"]
        design = designs.load_design(path)
        check((design.q, design.n, design.k, len(design.blocks)) == (q, n, k, b),
              f"{path.name}: loaded ({design.q},{design.n},{design.k}) "
              f"with {len(design.blocks)} blocks")
        check(design_digest(blk.rows for blk in design.blocks) == entry["digest"],
              f"{path.name}: blocks differ from the generated design")
        certified = 0
        for verify, dim, total, per_block in (
                (designs.verify_covering, r, gaussian(n, r, q), gaussian(k, r, q)),
                (designs.verify_turan, turan_k, gaussian(n, turan_k, q),
                 gaussian(n - k, turan_k - k, q))):
            expand = verify(design, dim, strategy="expand")
            scan = verify(design, dim, strategy="scan")
            check(expand == scan, f"{path.name}: {verify.__name__} expand "
                  f"{expand.summary()} != scan {scan.summary()}")
            certified += check_report(expand, total, b * per_block)
            certified += check_report(scan, total, b * per_block)
        return certified
    return op


# cycles ---------------------------------------------------------------------

class Workload(NamedTuple):
    """Warm-up ops, and `cycle(i)`: the ops of cycle i, or None when the
    inputs are used up."""

    name: str
    warmup: List[Callable[[], int]]
    cycle: Callable[[int], Optional[List[Callable[[], int]]]]


def make_workload(name: str, seed: int, work_dir: Path,
                  inputs_dir: Path = None) -> Workload:
    """Build the named workload; random-census reads pre-generated inputs."""
    if name == "gf64-cli":
        op = gf64_cli_op(str(work_dir / "gf64.txt"))
        return Workload(name, [op], lambda i: [op])
    if name == "q3-dual":
        ops = {case: q3_dual_op(*case) for case in Q3_CASES}

        def cycles(i):
            order = random.Random(f"{seed}/{i}").sample(Q3_CASES, len(Q3_CASES))
            return [ops[case] for case in order]
        return Workload(name, [ops[case] for case in Q3_CASES], cycles)
    if name == "random-census":
        def load(directory):
            data = json.loads((directory / "manifest.json").read_text("utf-8"))
            return [[census_op(directory / e["file"], e) for e in entries]
                    for entries in data["cycles"]]
        warmup = load(inputs_dir / "warmup")[0]
        measured = load(inputs_dir / "measured")
        return Workload(name, warmup,
                        lambda i: measured[i] if i < len(measured) else None)
    raise ValueError(f"unknown workload {name!r}")
