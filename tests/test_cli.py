import contextlib
import hashlib
import io
import os
import re
import shlex
import subprocess
import sys
import time

import pytest

from qcover import cli, constructions, designs
from qcover.cli import main
from qcover.designs import (CoverageReport, FormatError, design_from_text,
                            design_to_text, load_design, verify_covering)
from qcover.constructions import (ConstructionError, optimal_line_covering,
                                  turan_dual_covering)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def result_line(out):
    lines = [l for l in out.splitlines() if l.startswith("RESULT: ")]
    assert len(lines) == 1
    return lines[0]


def test_construct_spread_and_verify(tmp_path, capsys):
    path = tmp_path / "spread.txt"
    code, out, _ = run(capsys, "construct", "spread",
                       "--q", "2", "--k", "2", "--n", "4", "-o", str(path))
    assert code == 0
    assert "size=5" in result_line(out)
    code, out, _ = run(capsys, "verify", str(path), "--mode", "steiner", "--r", "1")
    assert code == 0
    assert "verdict=True" in result_line(out)


def test_verify_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "d.txt"
    design = optimal_line_covering(2, 4, 2)
    text = design_to_text(design)
    # drop one block: no longer a covering
    lines = text.splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    code, out, _ = run(capsys, "verify", str(path), "--mode", "covering", "--r", "1")
    assert code == 1
    assert "verdict=False" in result_line(out)
    assert "uncovered witness" in out


def test_construct_bad_params_exit_2(capsys):
    code, _, err = run(capsys, "construct", "spread",
                       "--q", "2", "--k", "3", "--n", "7")
    assert code == 2
    assert "invalid input" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/file.txt",
                       "--mode", "covering", "--r", "1")
    assert code == 2


def test_malformed_file_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("qcover-design v1\nq=2 n=3 k=2\n110 112\n")
    code, _, err = run(capsys, "verify", str(path), "--mode", "covering", "--r", "1")
    assert code == 2


def test_budget_exit_3(capsys):
    code, _, err = run(capsys, "construct", "trivial",
                       "--q", "2", "--n", "30", "--r", "15")
    assert code == 3
    assert "budget exceeded" in err


def test_partial_spread_command(tmp_path, capsys):
    path = tmp_path / "ps.txt"
    code, out, _ = run(capsys, "construct", "partial-spread",
                       "--q", "2", "--rho", "2", "--n", "5", "-o", str(path))
    assert code == 0
    assert "residual subspace dimension: 3" in out
    assert "size=8" in result_line(out)
    assert len(load_design(str(path)).blocks) == 8


def test_line_covering_and_lift(tmp_path, capsys):
    base = tmp_path / "base.txt"
    code, out, _ = run(capsys, "construct", "line-covering",
                       "--q", "2", "--n", "4", "--k", "2", "-o", str(base))
    assert code == 0
    code, out, _ = run(capsys, "construct", "lift",
                       "--input", str(base), "--delta", "1",
                       "-o", str(tmp_path / "lifted.txt"))
    assert code == 0
    assert "size=5" in result_line(out)


def test_recursive_command(tmp_path, capsys):
    s1 = tmp_path / "s1.txt"
    s2 = tmp_path / "s2.txt"
    run(capsys, "construct", "line-covering",
        "--q", "2", "--n", "4", "--k", "2", "-o", str(s1))
    from qcover.designs import save_design
    save_design(turan_dual_covering(2, 4, 2), str(s2))
    code, out, _ = run(capsys, "construct", "recursive",
                       "--s1", str(s1), "--s2", str(s2), "--r", "2",
                       "-o", str(tmp_path / "out.txt"))
    assert code == 0
    assert "size=27" in result_line(out)


def test_bounds_filter(capsys):
    code, out, _ = run(capsys, "bounds", "--q", "2", "--n-max", "7",
                       "--filter", "7,3,2")
    assert code == 0
    assert "381" in out and "399" in out
    assert "verdict=381<=C<=399" in result_line(out)


def test_bounds_table_and_csv(capsys):
    code, out, _ = run(capsys, "bounds", "--q", "2", "--n-max", "5", "--csv")
    assert code == 0
    assert out.splitlines()[0] == "n,k,r,lower,lower_src,upper,upper_src,exact"
    code, _, err = run(capsys, "bounds", "--q", "2", "--filter", "banana")
    assert code == 2


def test_expand_command(tmp_path, capsys):
    design = tmp_path / "triv.txt"
    run(capsys, "construct", "trivial", "--q", "2", "--n", "3", "--r", "2",
        "-o", str(design))
    out_path = tmp_path / "system.txt"
    code, out, _ = run(capsys, "expand", str(design), "-o", str(out_path))
    assert code == 0
    assert "size=14" in result_line(out)
    assert out_path.read_text().startswith("qcover-setsystem v1")


def expand_trivial(tmp_path, capsys):
    design = tmp_path / "triv.txt"
    run(capsys, "construct", "trivial", "--q", "2", "--n", "5", "--r", "2",
        "-o", str(design))
    return run(capsys, "expand", str(design), "-o", str(tmp_path / "system.txt"))


def test_expand_censuses_the_system_once(tmp_path, capsys, monkeypatch):
    calls = []
    real = designs.verify_steiner_system

    def counting(system, t):
        calls.append(t)
        return real(system, t)
    monkeypatch.setattr(designs, "verify_steiner_system", counting)
    monkeypatch.setattr(constructions, "verify_steiner_system", counting)
    code, out, _ = expand_trivial(tmp_path, capsys)
    assert code == 0 and "verdict=True size=" in result_line(out)
    assert calls == [3]


UNCOVERED = CoverageReport(1, {0: 1}, 0, 0, ())


def test_expand_exits_1_when_its_census_fails(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(constructions, "verify_steiner_system",
                        lambda system, t: UNCOVERED)
    code, out, err = expand_trivial(tmp_path, capsys)
    assert code == 1 and "RESULT:" not in out
    assert err == "verification failed: expanded system failed the t=3 check\n"


# Arguments of each construction kind, the ambient dimension of its output
# and the error its construction raises when the census of that output fails.
CERTIFIED = {
    "spread": (["--k", "2", "--n", "4"], 4, "spread failed Steiner verification"),
    "lift": (["--input", "{line}", "--delta", "1"], 5,
             "lifted design failed covering check"),
    "partial-spread": (["--rho", "2", "--n", "5"], 5,
                       "partial spread parts overlap"),
    "line-covering": (["--n", "5", "--k", "2"], 5,
                      "line covering failed verification"),
    "turan-dual": (["--n", "4", "--k", "2"], 4, "dual covering failed verification"),
    "recursive": (["--s1", "{line}", "--s2", "{plane}", "--r", "2"], 5,
                  "recursive covering failed verification"),
    "gf64": ([], 7, "gf64 design is not a covering"),
    "greedy": (["--n", "4", "--k", "2", "--r", "1"], 4,
               "greedy output failed verification"),
    "trivial": (["--n", "3", "--r", "2"], 3, "trivial design failed Steiner check"),
}


@pytest.mark.parametrize("kind", list(cli.CONSTRUCTIONS))
def test_each_construction_kind_raises_with_its_failed_census(tmp_path,
                                                              monkeypatch, kind):
    argv, out_n, message = CERTIFIED[kind]
    inputs = {"line": tmp_path / "line.txt", "plane": tmp_path / "plane.txt"}
    designs.save_design(optimal_line_covering(2, 4, 2), str(inputs["line"]))
    designs.save_design(turan_dual_covering(2, 4, 2), str(inputs["plane"]))
    argv = [arg.format(**inputs) for arg in argv]
    report = UNCOVERED
    if kind == "gf64":
        monkeypatch.setattr(constructions, "verify_orbits",
                            lambda action, bases, r: (399, UNCOVERED))
    elif kind == "partial-spread":
        # certified by an exact partition check, which carries no report
        monkeypatch.setattr(constructions, "span_vector_lists",
                            lambda q, n, k, blocks: [[0, 1]] * len(blocks))
        report = None
    else:  # only the census of the output fails, not those of its inputs
        real = constructions.verify_covering
        monkeypatch.setattr(
            constructions, "verify_covering",
            lambda design, r: UNCOVERED if design.n == out_n else real(design, r))
    args = cli._parser().parse_args(["construct", kind] + argv)
    with pytest.raises(ConstructionError, match=message) as failed:
        cli.CONSTRUCTIONS[kind][1](args)
    assert failed.value.report is report


def test_derive_command(tmp_path, capsys):
    design = tmp_path / "triv.txt"
    run(capsys, "construct", "trivial", "--q", "2", "--n", "4", "--r", "2",
        "-o", str(design))
    code, out, _ = run(capsys, "derive", str(design), "--t", "2",
                       "--point", "1000", "-o", str(tmp_path / "derived.txt"))
    assert code == 0
    assert "size=7" in result_line(out)
    code, _, err = run(capsys, "derive", str(design), "--t", "2",
                       "--point", "0000")
    assert code == 2


@pytest.mark.parametrize("q", [2, 3])
def test_dualize_round_trip_byte_identical(tmp_path, capsys, q):
    design = tmp_path / "d.txt"
    run(capsys, "construct", "line-covering", "--q", str(q), "--n", "5",
        "--k", "2", "-o", str(design))
    dual = tmp_path / "dual.txt"
    back = tmp_path / "back.txt"
    code, _, _ = run(capsys, "dualize", str(design), "-o", str(dual))
    assert code == 0
    code, _, _ = run(capsys, "dualize", str(dual), "-o", str(back))
    assert code == 0
    assert back.read_bytes() == design.read_bytes()


# sha256 of the file `construct turan-dual --q 3 --n <n> --k <k>` writes.
TURAN_DUAL_Q3_SHA256 = {
    (5, 2): "1841e2ff9addeb4f5767d882101da14d573b81bf2cd4d6855763cf5cbb8fb0a0",
    (5, 3): "dd2b08a9b72ad6c35206c44c4dc4543395f25cb99d4b31d712acf11f72619f09",
    (6, 5): "f1cdac8d5767575a7b3e06f55bdd6bfb262502e801394dd84f563d6af91ca41e",
}


@pytest.mark.parametrize("n,k", sorted(TURAN_DUAL_Q3_SHA256))
def test_turan_dual_q3_files_pinned(tmp_path, capsys, n, k):
    """The files of the q = 3 duals of the Turan point designs, byte for
    byte as they were when dualize row-reduced span(q, n,
    _complement_rows(q, n, b.packed, b.pivots)) for each block b."""
    out = tmp_path / "dual.txt"
    code, _, _ = run(capsys, "construct", "turan-dual", "--q", "3", "--n",
                     str(n), "--k", str(k), "-o", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() \
        == TURAN_DUAL_Q3_SHA256[n, k]


# sha256 of the file `construct <argv>` writes, for designs of the field
# tower, byte for byte as they were when it row-reduced each block by span.
FIELD_TOWER_SHA256 = {
    ("spread", "--q", "3", "--k", "2", "--n", "6"):
        "7a4555cdb9e540338e333ad3c5d07c1bb61a759f72cd62cb6bd28f3d9a4915f1",
    ("partial-spread", "--q", "2", "--rho", "2", "--n", "7"):
        "cf1114e9c4e37b84fa3a2bcf54587450435c90202876ddf4dec5c55981b87097",
    ("line-covering", "--q", "3", "--n", "5", "--k", "2"):
        "6e560585c77e67b03d989863394e13880197bf065f4ee81a7d59762cd5086de4",
}


@pytest.mark.parametrize("argv", sorted(FIELD_TOWER_SHA256), ids=" ".join)
def test_field_tower_files_pinned(tmp_path, capsys, argv):
    out = tmp_path / "design.txt"
    code, _, _ = run(capsys, "construct", *argv, "-o", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIELD_TOWER_SHA256[argv]


# sha256 of the stdout of `bounds --q <q> --n-max 12`, byte for byte as it
# was when verify_orbits labelled one vector set per GroupAction.orbit call.
BOUNDS_SHA256 = {
    2: "cc5c561f98d2494bf52594b90ebb6e831012ae7864fd76c14d90607be9dbf3a3",
    3: "64099cdd84b2420abb98bf39c1f9cacfade461fdc8539ae0c4f45a166d915ec7",
}


@pytest.mark.parametrize("q", sorted(BOUNDS_SHA256))
def test_bounds_tables_pinned(capsys, q):
    code, out, _ = run(capsys, "bounds", "--q", str(q), "--n-max", "12")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BOUNDS_SHA256[q]


def test_gf64_design_command(tmp_path, capsys):
    code, out, _ = run(capsys, "construct", "gf64",
                       "-o", str(tmp_path / "l6.txt"))
    assert code == 0
    assert "size=399" in result_line(out)


def test_verify_agrees_on_canonical_and_unreduced_gf64_files(
        tmp_path, capsys, monkeypatch):
    """The gf64 file loads as written; the same file with every line's rows
    rotated and its first row replaced by the sum of its first two loads
    through one _span_rows call, the row reduction, per line.  verify prints
    the same census line and verdict on both."""
    canonical, unreduced = tmp_path / "gf64.txt", tmp_path / "unreduced.txt"
    assert run(capsys, "construct", "gf64", "-o", str(canonical))[0] == 0
    lines = canonical.read_text().splitlines()
    for i, line in enumerate(lines[2:], 2):
        words = line.split()
        words[0] = "".join(str(int(a) ^ int(b)) for a, b in zip(*words[:2]))
        lines[i] = " ".join(words[1:] + words[:1])
    unreduced.write_text("\n".join(lines) + "\n")
    calls, reduce = [], designs._span_rows
    monkeypatch.setattr(designs, "_span_rows", lambda q, n, vectors:
                        calls.append(n) or reduce(q, n, vectors))
    outputs = []
    for path in (canonical, unreduced):
        code, out, err = run(capsys, "verify", str(path), "--mode", "covering",
                             "--r", "2")
        outputs.append((code, out.replace(str(path), "FILE"), err))
    assert calls == [7] * 399
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0
    assert "targets=2667 min=1 max=3" in outputs[0][1]
    assert "verdict=True size=399" in result_line(outputs[0][1])


def test_derive_point_digit_outside_field_exit_2(tmp_path, capsys):
    design = tmp_path / "triv.txt"
    run(capsys, "construct", "trivial", "--q", "2", "--n", "4", "--r", "2",
        "-o", str(design))
    code, out, err = run(capsys, "derive", str(design), "--t", "2",
                         "--point", "1200")
    assert code == 2
    assert "--point" in err
    assert "RESULT:" not in out


def test_construct_spread_zero_k_exit_2(capsys):
    code, _, err = run(capsys, "construct", "spread", "--k", "0", "--n", "4")
    assert code == 2
    assert "--k" in err


def test_construct_greedy_without_r_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "greedy", "--n", "4", "--k", "2"])
    assert exc.value.code == 2
    assert "the following arguments are required: --r" in capsys.readouterr().err


# A flag that each kind does not read: the first of cli.FLAGS outside its own.
FOREIGN = {kind: next(name for name in cli.FLAGS if name not in flags)
           for kind, (flags, _) in cli.CONSTRUCTIONS.items()}


@pytest.mark.parametrize("kind", list(cli.CONSTRUCTIONS))
def test_construct_takes_only_its_own_flags(capsys, kind):
    """A flag the kind does not read, even a prefix of one it does read, and
    a missing required flag are usage errors that name the flag; parsing
    stops before any design file is read."""
    argv, _, _ = CERTIFIED[kind]
    argv = ["construct", kind] + [arg.format(line="line.txt", plane="plane.txt")
                                  for arg in argv]
    flags = cli.CONSTRUCTIONS[kind][0]
    cases = [(argv + [f"--{FOREIGN[kind]}", "1"],
              f"unrecognized arguments: --{FOREIGN[kind]} 1")]
    if "rho" in flags:
        cases.append((argv + ["--r", "1"], "unrecognized arguments: --r 1"))
    required = [name for name in flags if cli.FLAGS[name][1] is None]
    if required:
        at = argv.index(f"--{required[0]}")
        cases.append((argv[:at] + argv[at + 2:],
                      f"the following arguments are required: --{required[0]}"))
    for bad, message in cases:
        with pytest.raises(SystemExit) as exc:
            main(bad)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert message in err, (bad, err)


def test_construct_recursive_mismatched_inputs_exit_2(tmp_path, capsys):
    s1 = tmp_path / "s1.txt"
    run(capsys, "construct", "line-covering",
        "--q", "2", "--n", "4", "--k", "2", "-o", str(s1))
    code, out, err = run(capsys, "construct", "recursive",
                         "--s1", str(s1), "--s2", str(s1), "--r", "2")
    assert code == 2
    assert "--s1" in err and "--s2" in err
    assert "RESULT:" not in out


@pytest.mark.parametrize("r", [0, 4])
def test_construct_recursive_r_out_of_range_exit_2(tmp_path, capsys, r):
    """The k of --s2 bounds r; the message names --r and the value given."""
    s1, s2 = tmp_path / "s1.txt", tmp_path / "s2.txt"
    designs.save_design(optimal_line_covering(2, 4, 2), str(s1))
    designs.save_design(turan_dual_covering(2, 4, 2), str(s2))
    code, out, err = run(capsys, "construct", "recursive",
                         "--s1", str(s1), "--s2", str(s2), "--r", str(r))
    assert code == 2 and "RESULT:" not in out
    assert err == (f"invalid input: --r must be in 1..3 (at most the k of "
                   f"--s2), got {r}\n")


def test_bounds_malformed_filter_exit_2(capsys):
    code, out, err = run(capsys, "bounds", "--q", "2", "--n-max", "4",
                         "--filter", "3,2")
    assert code == 2 and "RESULT:" not in out
    assert err == "invalid input: --filter must be n,k,r, got '3,2'\n"


@pytest.mark.parametrize("triple", ["9,9,9", "3,2,-1"])
def test_bounds_filter_not_in_table_exit_2(capsys, triple):
    code, out, err = run(capsys, "bounds", "--q", "2", "--n-max", "4",
                         "--filter", triple)
    assert code == 2 and "RESULT:" not in out
    assert err == (f"invalid input: --filter ({triple}) is not in the table "
                   f"for q=2 n<=4\n")


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write fails."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [
    ["bounds", "--q", "2", "--n-max", "7"],
    ["construct", "spread", "--q", "2", "--k", "2", "--n", "4"]])
def test_closed_stdout_is_not_bad_input(argv):
    """The caller's redirected stdout stays in place and no fd is touched."""
    out, err = ClosedPipe(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
        assert sys.stdout is out
    assert code == cli.EXIT_BROKEN_PIPE == 141
    assert err.getvalue() == ""


def test_closed_stdout_pipe_exits_141_in_a_process():
    """A stdout pipe with no reader: exit 141, nothing on stderr, and no
    second failure when the interpreter flushes stdout at exit."""
    src = os.path.join(os.path.dirname(cli.__file__), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "qcover.cli", "bounds", "--q", "2",
             "--n-max", "2"],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True,
            timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, "")


def test_process_without_stdout_succeeds():
    """With fd 1 closed at start, sys.stdout is None and print does nothing;
    main's flush must not turn that into an error."""
    src = os.path.join(os.path.dirname(cli.__file__), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    command = (f"{shlex.quote(sys.executable)} -m qcover.cli bounds --q 2 "
               f"--n-max 2 >&-")
    done = subprocess.run(command, shell=True, env=env, stderr=subprocess.PIPE,
                          text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")


def test_expand_non_binary_design_exit_2(tmp_path, capsys):
    design = tmp_path / "q3.txt"
    run(capsys, "construct", "trivial", "--q", "3", "--n", "3", "--r", "2",
        "-o", str(design))
    code, out, err = run(capsys, "expand", str(design),
                         "-o", str(tmp_path / "system.txt"))
    assert code == 2
    assert str(design) in err
    assert "RESULT:" not in out


@pytest.mark.parametrize("n_max", ["-3", "0"])
def test_bounds_non_positive_n_max_exit_2(capsys, n_max):
    code, out, err = run(capsys, "bounds", "--q", "2", "--n-max", n_max)
    assert code == 2
    assert "--n-max" in err
    assert "RESULT:" not in out


def test_bounds_unsupported_q_exit_2(capsys):
    code, out, err = run(capsys, "bounds", "--q", "5")
    assert code == 2
    assert "--q" in err
    assert "RESULT:" not in out


def test_bounds_n_max_above_cap_exit_2(capsys):
    code, out, err = run(capsys, "bounds", "--q", "2", "--n-max", "13")
    assert code == 2
    assert "--n-max" in err
    assert "RESULT:" not in out


def test_derive_t_above_block_dim_exit_2(tmp_path, capsys):
    design = tmp_path / "triv.txt"
    run(capsys, "construct", "trivial", "--q", "2", "--n", "4", "--r", "2",
        "-o", str(design))
    code, out, err = run(capsys, "derive", str(design), "--t", "5",
                         "--point", "1000")
    assert code == 2
    assert "--t" in err
    assert "RESULT:" not in out


@pytest.mark.parametrize("mode", ["turan", "covering"])
def test_verify_r_out_of_range_exit_2(tmp_path, capsys, mode):
    design = tmp_path / "triv.txt"
    run(capsys, "construct", "trivial", "--q", "2", "--n", "4", "--r", "2",
        "-o", str(design))
    code, out, err = run(capsys, "verify", str(design), "--mode", mode,
                         "--r", "9")
    assert code == 2
    assert "--r" in err
    assert "RESULT:" not in out


def test_construct_k_above_n_exit_2(capsys):
    code, _, err = run(capsys, "construct", "line-covering",
                       "--q", "2", "--n", "3", "--k", "5")
    assert code == 2
    assert "--k" in err


def test_construct_q_not_prime_power_exit_2(capsys):
    code, _, err = run(capsys, "construct", "turan-dual",
                       "--q", "6", "--n", "4", "--k", "2")
    assert code == 2
    assert "--q" in err


@pytest.mark.parametrize("kind,argv", [
    ("spread", ["--k", "2", "--n", "4"]),
    ("partial-spread", ["--rho", "2", "--n", "5"]),
    ("line-covering", ["--n", "5", "--k", "2"]),
])
def test_construct_field_tower_composite_q_exit_2(capsys, kind, argv):
    code, out, err = run(capsys, "construct", kind, "--q", "4", *argv)
    assert code == 2
    assert err == f"invalid input: --q must be prime for construct {kind}, got 4\n"
    assert "RESULT:" not in out


def test_construct_trivial_r_above_n_exit_2(capsys):
    code, _, err = run(capsys, "construct", "trivial",
                       "--q", "2", "--n", "3", "--r", "5")
    assert code == 2
    assert "--r" in err


def test_construct_lift_negative_delta_exit_2(tmp_path, capsys):
    path = tmp_path / "lines.txt"
    assert run(capsys, "construct", "line-covering", "--q", "2", "--n", "4",
               "--k", "2", "-o", str(path))[0] == 0
    code, _, err = run(capsys, "construct", "lift", "--input", str(path),
                       "--delta", "-1")
    assert code == 2
    assert "--delta" in err


def test_construct_lift_zero_dimensional_input_exit_2(tmp_path, capsys):
    """A k = 0 design has no lines to cover: the message names --input and
    its k, not the census's r."""
    path = tmp_path / "points.txt"
    path.write_text("qcover-design v1\nq=2 n=3 k=0\n")
    code, out, err = run(capsys, "construct", "lift", "--input", str(path),
                         "--delta", "1")
    assert code == 2
    assert out == ""
    assert err == (f"invalid input: --input must be a line covering, with "
                   f"k >= 1: {path} has k=0\n")


def test_verify_block_past_the_vector_budget_exit_3(tmp_path, capsys):
    """A block of F_2^25 has 2^25 vectors, past the enumeration budget."""
    path = tmp_path / "big.txt"
    rows = " ".join("0" * i + "1" + "0" * (24 - i) for i in range(25))
    path.write_text(f"qcover-design v1\nq=2 n=25 k=25\n{rows}\n")
    code, out, err = run(capsys, "verify", str(path), "--mode", "covering",
                         "--r", "0")
    assert code == 3
    assert out == ""
    assert err.startswith("budget exceeded: ")


def test_construct_greedy_budget_exit_3(capsys):
    code, out, err = run(capsys, "construct", "greedy",
                         "--q", "2", "--n", "9", "--k", "4", "--r", "2")
    assert code == 3
    assert "budget exceeded" in err and "greedy" in err
    assert "RESULT:" not in out


def test_construct_huge_line_covering_exit_3_before_building(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "construct", "line-covering",
                         "--q", "2", "--n", "30", "--k", "2")
    assert time.perf_counter() - start < 0.5
    assert code == 3
    assert "budget exceeded" in err
    assert "RESULT:" not in out


def test_expand_design_with_k_below_2_exit_2(tmp_path, capsys):
    design = tmp_path / "points.txt"
    run(capsys, "construct", "trivial", "--q", "2", "--n", "3", "--r", "1",
        "-o", str(design))
    code, out, err = run(capsys, "expand", str(design),
                         "-o", str(tmp_path / "system.txt"))
    assert code == 2
    assert str(design) in err and "k=1" in err
    assert "RESULT:" not in out


@pytest.mark.parametrize("r", [0, 1])
def test_derive_design_with_k_below_2_exit_2(tmp_path, capsys, r):
    design = tmp_path / "small.txt"
    run(capsys, "construct", "trivial", "--q", "2", "--n", "3", "--r", str(r),
        "-o", str(design))
    code, out, err = run(capsys, "derive", str(design), "--t", "2",
                         "--point", "100")
    assert code == 2
    assert str(design) in err and f"k={r}" in err
    assert "RESULT:" not in out


def test_zero_dimensional_design_file_keeps_its_block(tmp_path, capsys):
    """The one block of a k = 0 design, the zero subspace, is written as an
    empty line and read back from it."""
    design = tmp_path / "zero.txt"
    code, out, _ = run(capsys, "construct", "trivial", "--q", "2", "--n", "3",
                       "--r", "0", "-o", str(design))
    assert code == 0 and "size=1" in result_line(out)
    assert design.read_text() == "qcover-design v1\nq=2 n=3 k=0\n\n"
    code, out, _ = run(capsys, "verify", str(design), "--mode", "turan",
                       "--r", "0")
    assert code == 0
    assert result_line(out).endswith("verdict=True size=1")


@pytest.mark.parametrize("argv", [
    ("spread", "--q", "2", "--k", "1", "--n", "30"),
    ("partial-spread", "--q", "2", "--rho", "2", "--n", "31"),
    # within the block budget, but the census lists [16 1]_3 > 10^7 points
    ("spread", "--q", "3", "--k", "2", "--n", "16"),
    ("line-covering", "--q", "2", "--n", "25", "--k", "12"),
    # the partition check would list 2^25 vectors
    ("partial-spread", "--q", "2", "--rho", "3", "--n", "25"),
])
def test_construct_huge_spread_exit_3_before_building(capsys, argv):
    """The message names the census past the budget: the q^n vectors of a
    partial spread's partition check, or else the [n 1]_q points of the
    line covering census."""
    flags = dict(zip(argv[1::2], argv[2::2]))
    q, n = flags["--q"], flags["--n"]
    census = (f"{q}^{n} vectors exceed" if argv[0] == "partial-spread"
              else f"[{n} 1]_{q} exceeds")
    start = time.perf_counter()
    code, out, err = run(capsys, "construct", *argv)
    assert time.perf_counter() - start < 0.5
    assert code == 3
    assert err.startswith("budget exceeded: ") and census in err
    assert len(err) < 80
    assert "RESULT:" not in out


# Each argv names an ambient dimension past MAX_AMBIENT_N = 64: as --n, as
# n + --delta of a lift, or in the header of {huge}, q=2 n=100000000 k=0.
# Each used to run until killed, end in a MemoryError, or fail to format a
# block count past Python's int-to-string limit.
@pytest.mark.parametrize("argv, n", [
    (["construct", "trivial", "--q", "2", "--n", "100000000", "--r", "50000000"],
     100000000),
    (["construct", "greedy", "--q", "2", "--n", "1000000", "--k", "500000",
      "--r", "3"], 1000000),
    (["construct", "turan-dual", "--q", "2", "--n", "100000", "--k", "2"], 100000),
    (["construct", "lift", "--input", "{line}", "--delta", "100000"], 100004),
    (["construct", "spread", "--q", "2", "--k", "1", "--n", "100000000"],
     100000000),
    (["construct", "partial-spread", "--q", "2", "--rho", "2", "--n", "100001"],
     100001),
    (["construct", "trivial", "--n", "65", "--r", "1"], 65),
    (["verify", "{huge}", "--mode", "turan", "--r", "3"], 100000000),
    (["verify", "{huge}", "--mode", "turan", "--r", "100000000"], 100000000),
    (["verify", "{huge}", "--mode", "covering", "--r", "0"], 100000000),
])
def test_ambient_dimension_past_the_cap_exit_3(tmp_path, capsys, argv, n):
    inputs = {"line": tmp_path / "line.txt", "huge": tmp_path / "huge.txt"}
    designs.save_design(optimal_line_covering(2, 4, 2), str(inputs["line"]))
    inputs["huge"].write_text("qcover-design v1\nq=2 n=100000000 k=0\n")
    start = time.perf_counter()
    code, out, err = run(capsys, *[arg.format(**inputs) for arg in argv])
    assert time.perf_counter() - start < 1
    assert code == 3 and "RESULT:" not in out
    assert err == f"budget exceeded: ambient dimension n={n} exceeds 64\n"


def test_ambient_dimension_at_the_cap_loads():
    design = design_from_text("qcover-design v1\nq=2 n=64 k=0\n")
    assert (design.n, design.k, len(design.blocks)) == (64, 0, 0)


def test_expand_past_the_size_limit_exit_3(tmp_path, capsys):
    design = tmp_path / "n17.txt"
    line = " ".join("".join("1" if j == i else "0" for j in range(17))
                    for i in range(2))
    design.write_text(f"qcover-design v1\nq=2 n=17 k=2\n{line}\n")
    code, out, err = run(capsys, "expand", str(design),
                         "-o", str(tmp_path / "system.txt"))
    assert code == 3
    assert "budget exceeded" in err and str(design) in err and "n=17" in err
    assert "RESULT:" not in out
    assert not (tmp_path / "system.txt").exists()


@pytest.mark.parametrize("word", ["\u06610", "0\u00b2"])
def test_non_ascii_digit_word_exit_2(tmp_path, capsys, word):
    """An Arabic-Indic one used to load as the vector 10 and fail the
    census with exit 1; a superscript two failed in int() without naming
    the word."""
    path = tmp_path / "d.txt"
    path.write_text(f"qcover-design v1\nq=2 n=2 k=1\n{word}\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", str(path), "--mode", "covering",
                         "--r", "1")
    assert code == 2
    assert "RESULT:" not in out
    assert f"bad vector {word!r} for n=2" in err


def test_header_repeating_a_key_exit_2(tmp_path, capsys):
    """A repeated key used to be read with its last value, so this k = 1
    line was refused as 'block with 1 vectors, expected 2'."""
    path = tmp_path / "d.txt"
    path.write_text("qcover-design v1\nq=2 n=3 k=1 k=2\n110\n")
    code, out, err = run(capsys, "verify", str(path), "--mode", "covering",
                         "--r", "1")
    assert code == 2
    assert "RESULT:" not in out
    assert "bad parameter line: 'q=2 n=3 k=1 k=2'" in err
    assert "expected 2" not in err


@pytest.mark.parametrize("n,k", [(3, 5), (3, -1), (0, 1)])
def test_header_k_outside_0_to_n_exit_2(tmp_path, capsys, n, k):
    text = f"qcover-design v1\nq=2 n={n} k={k}\n"
    with pytest.raises(FormatError, match=f"n={n} k={k}"):
        design_from_text(text)
    path = tmp_path / "d.txt"
    path.write_text(text)
    dual = tmp_path / "dual.txt"
    for argv in (["verify", str(path), "--mode", "covering", "--r", "4"],
                 ["dualize", str(path), "-o", str(dual)]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "RESULT:" not in out
        assert f"n={n} k={k}" in err
    assert not dual.exists()


def test_construct_q_above_10_exit_2_and_writes_no_file(tmp_path, capsys):
    """The design file has one digit per coordinate: a q = 11 design would
    read back as 'bad vector'."""
    path = tmp_path / "f.txt"
    code, out, err = run(capsys, "construct", "line-covering", "--q", "11",
                         "--n", "3", "--k", "2", "-o", str(path))
    assert code == 2
    assert "RESULT:" not in out
    assert "q=11" in err and "one digit per coordinate (q <= 10)" in err
    assert not path.exists()
    with pytest.raises(FormatError, match="q=11"):
        design_to_text(optimal_line_covering(11, 3, 2))


@pytest.mark.parametrize("q, message", [(6, "6 is not a prime power"),
                                        (0, "0 is not a prime power"),
                                        (1, "1 is not a prime power")])
def test_header_q_not_prime_power_without_blocks_exit_2(tmp_path, capsys,
                                                        q, message):
    """The header's q is checked even when the file has no block lines."""
    text = f"qcover-design v1\nq={q} n=3 k=1\n"
    with pytest.raises(FormatError, match=message):
        design_from_text(text)
    path = tmp_path / "d.txt"
    path.write_text(text)
    code, out, err = run(capsys, "verify", str(path), "--mode", "covering",
                         "--r", "1")
    assert code == 2
    assert "RESULT:" not in out and "witness" not in out
    assert message in err


@pytest.mark.parametrize("q, reason", [
    (6, "6 is not a prime power"),
    (131072, "field size 131072 exceeds 65536"),  # 2^17
    (1000003, "field size 1000003 exceeds 65536"),  # a prime
])
def test_construct_bad_q_names_the_reason(capsys, q, reason):
    code, out, err = run(capsys, "construct", "trivial", "--q", str(q),
                         "--n", "1", "--r", "1")
    assert code == 2
    assert "RESULT:" not in out
    assert err == f"invalid input: --q {q}: {reason}\n"


def test_huge_q_fails_fast(tmp_path, capsys):
    """A prime near 10^18 is refused by its size, with no trial division up
    to its square root, both as --q and in a design file's header."""
    q = 1000000000000000003
    path = tmp_path / "d.txt"
    path.write_text(f"qcover-design v1\nq={q} n=1 k=1\n")
    for argv in (["construct", "trivial", "--q", str(q), "--n", "1", "--r", "1"],
                 ["verify", str(path), "--mode", "covering", "--r", "1"]):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and "RESULT:" not in out
        assert f"field size {q} exceeds 65536" in err


def parse_witness(text):
    """The (q, n, rows) of a printed Subspace: one digit per coordinate up
    to q = 10, space-separated coordinates above it."""
    q, n, body = re.fullmatch(r"Subspace\(q=(\d+),n=(\d+),\[(.*)\]\)", text).groups()
    q, n = int(q), int(n)
    rows = tuple(tuple(map(int, row.split() if q > 10 else row))
                 for row in body.split(",")) if body else ()
    assert all(len(row) == n for row in rows)
    return q, n, rows


@pytest.mark.parametrize("q", [7, 11, 13])
def test_printed_witnesses_parse_back_to_their_rows(tmp_path, capsys, q):
    """Above q = 10 a coordinate can take two digits, so [1 10] is not
    [11 0]: every printed witness reads back as the report's rows."""
    path = tmp_path / "d.txt"
    path.write_text(f"qcover-design v1\nq={q} n=2 k=1\n10\n")
    code, out, _ = run(capsys, "verify", str(path), "--mode", "covering",
                       "--r", "1")
    assert code == 1
    printed = [parse_witness(line.split(": ", 1)[1]) for line in out.splitlines()
               if line.startswith("uncovered witness: ")]
    report = verify_covering(load_design(path), 1)
    assert printed == [(q, 2, w.rows) for w in report.witnesses]
    assert len(printed) == min(q, 16)
    assert any(max(row) >= 10 for _, _, rows in printed for row in rows) == (q > 10)


def test_q17_file_exits_1_without_blocks_and_3_with_one(tmp_path, capsys):
    """Without blocks every point is uncovered (the row table is not built:
    tests/test_designs.py); one block has 17^6 vectors, past the budget."""
    path = tmp_path / "d.txt"
    path.write_text("qcover-design v1\nq=17 n=6 k=6\n")
    code, out, _ = run(capsys, "verify", str(path), "--mode", "covering",
                       "--r", "1")
    assert code == 1
    assert "targets=1508598 min=0 max=0" in out
    rows = " ".join("".join("1" if j == i else "0" for j in range(6))
                    for i in range(6))
    path.write_text(f"qcover-design v1\nq=17 n=6 k=6\n{rows}\n")
    code, out, err = run(capsys, "verify", str(path), "--mode", "covering",
                         "--r", "1")
    assert code == 3
    assert "budget" in err and "RESULT:" not in out


def test_unexpected_exception_exits_2_on_one_line(tmp_path, capsys,
                                                  monkeypatch):
    """An exception no handler names becomes exit 2 and one stderr line with
    its type and message, multi-line messages flattened, no traceback."""
    def broken(path):
        raise RuntimeError("disk on fire\n  twice")
    monkeypatch.setattr(designs, "load_design", broken)
    code, out, err = run(capsys, "verify", str(tmp_path / "d.txt"),
                         "--mode", "covering", "--r", "1")
    assert code == 2 and out == ""
    assert err == "unexpected error: RuntimeError: disk on fire twice\n"


def test_usage_error_system_exit_passes_through(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "d.txt", "--mode", "bogus", "--r", "1"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def run_calls(calls, fresh):
    """(exit code, stdout, stderr) of each main call; fresh builds a new
    parser before every call."""
    results = []
    for argv in calls:
        if fresh:
            cli._parser.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
        results.append((code, out.getvalue(), err.getvalue()))
    return results


def test_reused_parser_carries_no_state_between_calls(tmp_path):
    path = str(tmp_path / "gf64.txt")
    verify = ["verify", path, "--mode", "covering", "--r", "2"]
    calls = [["construct", "gf64", "-o", path], verify,
             ["construct", "spread", "--n", "x"],
             ["bounds", "--q", "2", "--n-max", "5", "--csv"], verify]
    reused = run_calls(calls, fresh=False)
    assert reused == run_calls(calls, fresh=True)
    assert [code for code, _, _ in reused] == [0, 0, ("SystemExit", 2), 0, 0]
    assert "invalid int value: 'x'" in reused[2][2]
    assert cli._parser.cache_info().currsize == 1


def test_usage_error_after_reuse_lands_in_redirected_stderr(capsys):
    main(["bounds", "--q", "2", "--n-max", "2"])
    capsys.readouterr()
    assert cli._parser.cache_info().currsize == 1
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit):
        main(["bounds", "--n-max", "two"])
    assert "invalid int value: 'two'" in err.getvalue()
    assert capsys.readouterr().err == ""


def test_import_builds_no_parser():
    """The parser is built on the first main call, not at import."""
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "from qcover import cli\n"
        "print(len(built), cli._parser.cache_info().currsize)\n")
    src = os.path.join(os.path.dirname(cli.__file__), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "0 0\n"), done.stderr
