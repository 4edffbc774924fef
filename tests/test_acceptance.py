"""Acceptance suite: one criterion per test.

tests/conftest.py prints one `ACCEPTANCE <n> <name>: PASS/FAIL` line per
criterion in the terminal summary.
"""

import itertools
import math
import random
from fractions import Fraction

from qcover.bounds import basic_lower, bound_table, gaussian, schonheim_lower
from qcover.constructions import (expand_to_steiner_system, gf64_covering_design,
                                  optimal_line_covering, recursive_covering,
                                  spread, trivial_steiner, turan_dual_covering,
                                  turan_point_design)
from qcover.designs import (SubspaceDesign, dualize, verify_covering,
                            verify_steiner_system, verify_turan)
from qcover.subspaces import BudgetError, enumerate_grassmannian, subspaces_of

from vector_reference import enumerate_vectors, tuple_span

# incidence-work cap for the sweep in criterion 3: verification is skipped
# (sizes are still checked exactly) when |blocks| * targets-per-block exceeds it
VERIFY_WORK_CAP = 200_000


def test_criterion_1_explicit_399_block_covering():
    design = gf64_covering_design()
    assert len(design.blocks) == 399
    assert (design.q, design.n, design.k) == (2, 7, 3)
    # block-level closure: every block is exactly a 3-subspace
    for block in design.blocks:
        assert block.dim == 3
        vecs = enumerate_vectors(block)
        assert len(set(vecs)) == 8
    report = verify_covering(design, 2)
    assert report.total == 2667
    assert report.is_covering
    assert report.min_multiplicity >= 1
    assert sum(report.histogram.values()) == 2667


def test_criterion_2_recursive_27_block_covering():
    s1 = spread(2, 2, 4)
    s2 = turan_dual_covering(2, 4, 2)
    assert len(s2.blocks) == 7
    design = recursive_covering(s1, s2, 2)
    assert len(design.blocks) == 27
    assert verify_covering(design, 2).is_covering
    table = bound_table(2, n_max=5)
    rec = table[(5, 3, 2)]
    assert rec.lower == rec.upper == 27
    assert rec.exact


def test_criterion_3_exact_formula_sweep():
    for q in (2, 3):
        for n in range(1, 8):
            for k in range(1, n + 1):
                try:
                    d = optimal_line_covering(q, n, k)
                except BudgetError:
                    continue
                expected = math.ceil(Fraction(q ** n - 1, q ** k - 1))
                assert len(d.blocks) == expected, (q, n, k)
                work = len(d.blocks) * gaussian(k, 1, q)
                if work <= VERIFY_WORK_CAP:
                    assert verify_covering(d, 1).is_covering, (q, n, k)
                t = turan_point_design(q, n, k, verify=False)
                assert len(t.blocks) == (q ** (n - k + 1) - 1) // (q - 1)
                t_work = len(t.blocks) * gaussian(n - 1, k - 1, q)
                if t_work <= VERIFY_WORK_CAP:
                    assert verify_turan(t, k).is_covering, (q, n, k)
                    dual = dualize(t)
                    if k < n:
                        d_work = len(dual.blocks) * gaussian(n - 1, n - k, q)
                        if d_work <= VERIFY_WORK_CAP:
                            assert verify_covering(dual, n - k).is_covering


def test_criterion_4_exhaustive_tiny_optimality():
    # T_2(4,2,1) = 7: no 6 of the 15 points of PG(3,2) hit all 35 lines
    points = list(enumerate_grassmannian(2, 4, 1))
    planes = list(enumerate_grassmannian(2, 4, 2))
    assert (len(points), len(planes)) == (15, 35)
    hit_mask = []
    for p in points:
        mask = 0
        for i, pl in enumerate(planes):
            if any(v in set(enumerate_vectors(pl)) for v in p.rows):
                mask |= 1 << i
        hit_mask.append(mask)
    full = (1 << 35) - 1
    for combo in itertools.combinations(range(15), 6):
        acc = 0
        for i in combo:
            acc |= hit_mask[i]
        assert acc != full
    seven = turan_point_design(2, 4, 2, verify=False)
    acc = 0
    for block in seven.blocks:
        acc |= hit_mask[points.index(block)]
    assert acc == full

    # C_2(4,3,2) = 7: no 6 of the 15 hyperplanes cover all 35 planes
    solids = list(enumerate_grassmannian(2, 4, 3))
    assert len(solids) == 15
    cover_mask = []
    for s in solids:
        mask = 0
        contained = set(subspaces_of(s, 2))
        for i, pl in enumerate(planes):
            if pl in contained:
                mask |= 1 << i
        cover_mask.append(mask)
    for combo in itertools.combinations(range(15), 6):
        acc = 0
        for i in combo:
            acc |= cover_mask[i]
        assert acc != full
    dual7 = turan_dual_covering(2, 4, 2)
    acc = 0
    for block in dual7.blocks:
        acc |= cover_mask[solids.index(block)]
    assert acc == full


def test_criterion_5_duality_property_suite():
    rng = random.Random(20260823)
    disagreements = 0
    for _ in range(100):
        k = rng.choice([2, 3])
        size = rng.randint(1, 14)
        blocks = []
        while len(blocks) < size:
            vecs = [tuple(rng.randrange(2) for _ in range(5)) for _ in range(k)]
            s = tuple_span(2, 5, vecs)
            if s.dim == k and s not in blocks:
                blocks.append(s)
        d = SubspaceDesign.from_blocks(blocks, q=2, n=5, k=k)
        dual = dualize(d)
        for r in range(1, k + 1):
            covering = verify_covering(d, r).is_covering
            turan = verify_turan(dual, 5 - r).is_covering
            if covering != turan:
                disagreements += 1
    assert disagreements == 0


def test_criterion_6_bound_consistency_sweep():
    table = bound_table(2, n_max=10)
    for (n, k, r), rec in table.items():
        assert schonheim_lower(n, k, r, 2) >= basic_lower(n, k, r, 2)
        assert rec.lower <= rec.upper
    for n in range(6, 11):
        rec = table[(n, n - 2, 2)]
        assert rec.lower >= 21
        assert rec.upper <= 27
    rec = table[(7, 3, 2)]
    assert rec.lower == 381
    assert rec.upper == 399


def test_criterion_7_steiner_system_expansion():
    small = expand_to_steiner_system(trivial_steiner(2, 3, 2))
    assert (small.v, len(small.blocks)) == (8, 14)
    assert verify_steiner_system(small, 3).is_steiner
    big = expand_to_steiner_system(trivial_steiner(2, 4, 2))
    assert (big.v, len(big.blocks)) == (16, 140)
    assert verify_steiner_system(big, 3).is_steiner
    for n, k, count in [(3, 2, 14), (4, 2, 140)]:
        formula = (2 ** (n - k) * (2 ** n - 1) * (2 ** (n - 1) - 1)
                   // ((2 ** k - 1) * (2 ** (k - 1) - 1)))
        assert formula == count


def test_criterion_8_gaussian_coefficient_oracle():
    for q in (2, 3):
        for n in range(1, 6):
            for k in range(n + 1):
                # count subspaces as distinct vector sets, independent of the
                # RREF canonical form and of the product formula
                seen = {frozenset(enumerate_vectors(s))
                        for s in enumerate_grassmannian(q, n, k)}
                assert len(seen) == gaussian(n, k, q), (q, n, k)
