"""Tests of the benchmark's own machinery (run with pytest from the repo root)."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_self_times_subtract_direct_children_only():
    spans = [
        (0, -1, "a", 0, 100),   # a: 100 long, children b (30) and d (10)
        (1, 0, "b", 10, 40),    # b: 30 long, child c (10)
        (2, 1, "c", 20, 30),
        (3, 0, "d", 50, 60),
        (4, -1, "d", 200, 205),  # a second root with the same name as d
    ]
    assert tracer.self_times(spans) == {"a": 60, "b": 20, "c": 10, "d": 15}


def _flip_one_block_line(path: Path, q: int) -> None:
    """Change one digit of one block line so it spans another k-subspace."""
    lines = path.read_text().splitlines()
    rows = [tuple(tuple(int(c) for c in w) for w in line.split()) for line in lines[2:]]
    canon = {workloads._rref_mod_p(r, q) for r in rows}
    for j, row0 in enumerate(rows[0][0]):
        changed = ((row0 + 1) % q,)
        first = rows[0][0][:j] + changed + rows[0][0][j + 1:]
        new = (first,) + rows[0][1:]
        reduced = workloads._rref_mod_p(new, q)
        if len(reduced) == len(new) and reduced not in canon:
            lines[2] = workloads.block_key(new)
            path.write_text("\n".join(lines) + "\n")
            return
    raise AssertionError("no single-digit change gives a new block")


def test_corrupted_design_file_counts_as_failed_op(tmp_path):
    workloads.write_census_inputs(tmp_path, seed=7, cycles=1)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    entries = [e for e in manifest["cycles"][0] if e["n"] <= 6][:2]
    ops = [workloads.census_op(tmp_path / e["file"], e) for e in entries]
    _flip_one_block_line(tmp_path / entries[1]["file"], entries[1]["q"])
    state = worker.measure(workloads.Workload("t", [], lambda i: ops if i == 0 else None), 0)
    assert (state["attempted"], state["failed"]) == (2, 1)
    assert "blocks differ from the generated design" in state["errors"][0]


def test_gf64_file_check_rejects_one_changed_block_line(tmp_path):
    path = tmp_path / "gf64.txt"
    op = workloads.gf64_cli_op(str(path))
    assert op() == 3 * 2667
    lines = path.read_text().splitlines()
    lines[5] = lines[6]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(workloads.CheckFailed):
        workloads.check_gf64_file(path)


def test_same_seed_gives_same_inputs(tmp_path):
    a = workloads.write_census_inputs(tmp_path / "a", seed=3, cycles=2)
    b = workloads.write_census_inputs(tmp_path / "b", seed=3, cycles=2)
    c = workloads.write_census_inputs(tmp_path / "c", seed=4, cycles=2)
    assert a.read_text() == b.read_text() != c.read_text()


def _qcover_attributes():
    import qcover.fields
    state = {}
    for name, module in sys.modules.items():
        if name == "qcover" or name.startswith("qcover."):
            state.update({(name, k): v for k, v in vars(module).items()})
    state.update({("Field", k): v for k, v in vars(qcover.fields.Field).items()})
    return state


def test_traced_run_restores_qcover_functions():
    import qcover.constructions
    import qcover.subspaces  # noqa: F401
    before = _qcover_attributes()
    op = workloads.q3_dual_op(5, 3)
    t = tracer.Tracer()
    counts = t.field_counts(op)
    assert counts["fields.calls"][0] > 0
    t.reset()
    with t.patched():
        assert qcover.constructions.span is not before[("qcover.constructions", "span")]
        op()
    layers = t.layer_metrics()
    assert layers["subspaces.superspaces_containing.yielded"][0] > 0
    assert layers["designs.verify.calls"][0] == 2
    after = _qcover_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
