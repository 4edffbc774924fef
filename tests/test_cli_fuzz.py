"""Property-based fuzz of the CLI: `qcover verify`, `derive`, `dualize` and
`expand` on generated design files, and `qcover construct` and `bounds` on
generated arguments.

The header's q runs over 0..20 (prime powers, composites, 0 and 1), n over
0..8 and k over -1..9; the block lines mix words that load with words that
do not, and the mode and --r (-1..9) are drawn too.  Whatever the file,
main must return one of the CLI's exit codes (0 verified, 1 not, 2 bad
input, 3 over budget), and no exception may reach main's catch-all for
unexpected errors.  The same holds for every construct argv of the kinds
that read q and small integers, for every bounds argv, and for derive,
dualize and expand on files with n at most 5.  The examples are
derandomized, so the run is the same every time, and bounded to keep the
suite fast.
"""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qcover.cli import CONSTRUCTIONS, main  # noqa: E402


@st.composite
def design_files(draw, n_max=8):
    """(design text, q, n, k).  Half the draws take a small prime power, a k
    in 0..n and block lines of k words that load if q does, so that many
    files reach a census."""
    q = draw(st.one_of(st.sampled_from([2, 3, 4, 5]), st.integers(0, 20)))
    n = draw(st.integers(0, n_max))
    k = draw(st.one_of(st.integers(0, n), st.integers(-1, n_max + 1)))
    digits = "0123456789"[:max(1, min(q, 10))]
    good = st.lists(st.text(alphabet=digits, min_size=n, max_size=n),
                    min_size=max(k, 0), max_size=max(k, 0))
    word = st.one_of(st.text(alphabet="0123456789", max_size=9),
                     st.text(max_size=4))
    line = st.one_of(good, good, st.lists(word, max_size=max(k, 0) + 1))
    lines = draw(st.lists(line.map(" ".join), max_size=3))
    header = draw(st.sampled_from([f"q={q} n={n} k={k}"] * 6 + [
        f"q={q} n={n}", f"q={q} n={n} k={k} x", f"q={q}={n} k={k}"]))
    return "\n".join(["qcover-design v1", header] + lines) + "\n", q, n, k


@st.composite
def loadable_files(draw):
    """(design text, q, n, k) of a header that loads and up to three block
    lines of k words of n digits below q, which load when they span k
    dimensions: q in {2, 3, 4} and 1 <= k <= n <= 5."""
    q = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, n))
    word = st.text(alphabet="0123"[:q], min_size=n, max_size=n)
    lines = draw(st.lists(st.lists(word, min_size=k, max_size=k).map(" ".join),
                          max_size=3))
    text = "\n".join(["qcover-design v1", f"q={q} n={n} k={k}"] + lines) + "\n"
    return text, q, n, k


@st.composite
def verify_cases(draw):
    """(design text, mode, r), with an r in 0..n half the time."""
    text, _, n, _ = draw(design_files())
    mode = draw(st.sampled_from(["covering", "turan", "steiner"]))
    r = draw(st.one_of(st.integers(0, n), st.integers(-1, 9)))
    return text, mode, r


def run_main(argv):
    """(exit code, stdout, stderr) of main(argv), which must return one of
    the CLI's exit codes without reaching its catch-all."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (code, argv, err.getvalue())
    # main's catch-all would hide an escaping exception as exit 2
    assert "unexpected error:" not in err.getvalue(), (argv, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(case=verify_cases())
def test_verify_exits_with_a_contract_code(tmp_path_factory, case):
    text, mode, r = case
    path = tmp_path_factory.getbasetemp() / "fuzz-design.txt"
    path.write_text(text, encoding="utf-8")
    code, out, _ = run_main(["verify", str(path), "--mode", mode, "--r", str(r)])
    # a verdict, and only a verdict, prints the RESULT: line
    assert (code in (0, 1)) == ("RESULT:" in out), (code, text)


# n's upper end for a field size q: the largest census of a valid draw then
# stays near [5 2]_3 = 1210 blocks.
N_CAP = {q: 5 if q <= 3 else 3 if q <= 9 else 2 for q in range(31)}


@st.composite
def construct_cases(draw):
    """argv of `qcover construct` for a kind built from q and small integer
    arguments.  q runs over 0..30, mostly small prime powers.  k, r and rho
    come from their valid ranges half the time and otherwise reach one past
    them on either side; n does so too, or is N_CAP[q], where a partial
    spread (n > 2 rho) can first be built.  The argv holds only the flags
    the kind reads, so that every drawn value reaches its range checks."""
    kind = draw(st.sampled_from(["spread", "partial-spread", "line-covering",
                                 "turan-dual", "trivial", "greedy"]))
    q = draw(st.one_of(st.sampled_from([2, 3, 4, 5]), st.integers(0, 30)))
    n = draw(st.one_of(st.integers(1, N_CAP[q]), st.just(N_CAP[q]),
                       st.integers(-1, N_CAP[q])))
    k = draw(st.one_of(st.integers(1, max(n, 1)), st.integers(-1, n + 1)))
    r = draw(st.one_of(st.integers(0, max(k, 0)), st.integers(-1, k + 1)))
    rho = draw(st.one_of(st.just(2), st.integers(-1, 3)))
    values = {"q": q, "n": n, "k": k, "r": r, "rho": rho}
    return ["construct", kind] + [arg for name in CONSTRUCTIONS[kind][0]
                                  for arg in (f"--{name}", str(values[name]))]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(argv=construct_cases())
def test_construct_exits_with_a_contract_code(argv):
    code, out, _ = run_main(argv)
    # construct prints the RESULT: line only for a certified design
    assert (code == 0) == ("RESULT:" in out), (code, argv)


@st.composite
def bounds_cases(draw):
    """argv of `qcover bounds`: q and --n-max mostly in range, and maybe a
    --filter, an n,k,r triple of small integers two times in three and any
    text otherwise."""
    q = draw(st.one_of(st.sampled_from([2, 3]), st.integers(-1, 5)))
    n_max = draw(st.one_of(st.integers(1, 8), st.integers(-1, 13)))
    argv = ["bounds", "--q", str(q), "--n-max", str(n_max)]
    triple = st.tuples(*[st.integers(-1, 9)] * 3).map(
        lambda t: ",".join(map(str, t)))
    spec = draw(st.one_of(st.none(), triple, triple, st.text(max_size=6)))
    if spec is not None:  # "=" keeps a leading "-" from reading as a flag
        argv.append(f"--filter={spec}")
    if draw(st.booleans()):
        argv.append("--csv")
    return argv


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(argv=bounds_cases())
def test_bounds_exits_with_a_contract_code(argv):
    code, out, _ = run_main(argv)
    assert code in (0, 2), (code, argv)
    assert (code == 0) == ("RESULT:" in out), (code, argv)


@st.composite
def file_command_cases(draw):
    """(design text, argv after the design path) of derive, dualize or
    expand, on a file that loads half the time.  n is at most 5, so that an
    expanded system stays small; derive draws --t in -1..6, or in 2..k half
    the time, and a --point of n digits below q half the time."""
    text, q, n, k = draw(st.one_of(design_files(n_max=5), loadable_files()))
    command = draw(st.sampled_from(["derive", "dualize", "expand"]))
    if command != "derive":
        return text, [command]
    digits = "0123456789"[:max(1, min(q, 10))]
    point = draw(st.one_of(st.text(alphabet=digits, min_size=n, max_size=n),
                           st.text(max_size=4)))
    t = draw(st.one_of(st.integers(2, max(k, 2)), st.integers(-1, 6)))
    return text, [command, "--t", str(t), f"--point={point}"]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=file_command_cases())
def test_file_commands_exit_with_a_contract_code(tmp_path_factory, case):
    text, (command, *options) = case
    base = tmp_path_factory.getbasetemp()
    path = base / "fuzz-design.txt"
    path.write_text(text, encoding="utf-8")
    argv = [command, str(path), *options, "-o", str(base / "fuzz-out.txt")]
    code, out, _ = run_main(argv)
    # a certified result prints the RESULT: line, and only a verdict does
    assert code != 0 or "RESULT:" in out, (code, argv, text)
    assert code in (0, 1) or "RESULT:" not in out, (code, argv, text)
