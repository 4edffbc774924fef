import pytest

from qcover.cli import main
from qcover.designs import design_to_text, load_design
from qcover.constructions import optimal_line_covering, turan_dual_covering


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


def test_dualize_round_trip_byte_identical(tmp_path, capsys):
    design = tmp_path / "d.txt"
    run(capsys, "construct", "line-covering", "--q", "2", "--n", "5", "--k", "2",
        "-o", str(design))
    dual = tmp_path / "dual.txt"
    back = tmp_path / "back.txt"
    code, _, _ = run(capsys, "dualize", str(design), "-o", str(dual))
    assert code == 0
    code, _, _ = run(capsys, "dualize", str(dual), "-o", str(back))
    assert code == 0
    assert back.read_bytes() == design.read_bytes()


def test_gf64_design_command(tmp_path, capsys):
    code, out, _ = run(capsys, "construct", "gf64",
                       "-o", str(tmp_path / "l6.txt"))
    assert code == 0
    assert "size=399" in result_line(out)


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
    code, _, err = run(capsys, "construct", "greedy", "--n", "4", "--k", "2")
    assert code == 2
    assert "--r" in err


def test_construct_recursive_mismatched_inputs_exit_2(tmp_path, capsys):
    s1 = tmp_path / "s1.txt"
    run(capsys, "construct", "line-covering",
        "--q", "2", "--n", "4", "--k", "2", "-o", str(s1))
    code, out, err = run(capsys, "construct", "recursive",
                         "--s1", str(s1), "--s2", str(s1), "--r", "2")
    assert code == 2
    assert "--s1" in err and "--s2" in err
    assert "RESULT:" not in out


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
