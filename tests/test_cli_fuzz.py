"""Property-based fuzz of `qcover verify` on generated design files, and of
`qcover construct` on generated arguments.

The header's q runs over 0..20 (prime powers, composites, 0 and 1), n over
0..8 and k over -1..9; the block lines mix words that load with words that
do not, and the mode and --r (-1..9) are drawn too.  Whatever the file,
main must return one of the CLI's exit codes (0 verified, 1 not, 2 bad
input, 3 over budget), and no exception may reach main's catch-all for
unexpected errors.  The same holds for every construct argv of the kinds
that read q and small integers.  The examples are derandomized, so the run
is the same every time, and bounded to keep the suite fast.
"""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qcover.cli import main  # noqa: E402


@st.composite
def verify_cases(draw):
    """(design text, mode, r).  Half the draws take a small prime power, a
    k in 0..n, an r in 0..n and block lines of k words that load if q does,
    so that many files reach a census."""
    q = draw(st.one_of(st.sampled_from([2, 3, 4, 5]), st.integers(0, 20)))
    n = draw(st.integers(0, 8))
    k = draw(st.one_of(st.integers(0, n), st.integers(-1, 9)))
    digits = "0123456789"[:max(1, min(q, 10))]
    good = st.lists(st.text(alphabet=digits, min_size=n, max_size=n),
                    min_size=max(k, 0), max_size=max(k, 0))
    word = st.one_of(st.text(alphabet="0123456789", max_size=9),
                     st.text(max_size=4))
    line = st.one_of(good, good, st.lists(word, max_size=max(k, 0) + 1))
    lines = draw(st.lists(line.map(" ".join), max_size=3))
    header = draw(st.sampled_from([f"q={q} n={n} k={k}"] * 6 + [
        f"q={q} n={n}", f"q={q} n={n} k={k} x", f"q={q}={n} k={k}"]))
    text = "\n".join(["qcover-design v1", header] + lines) + "\n"
    mode = draw(st.sampled_from(["covering", "turan", "steiner"]))
    r = draw(st.one_of(st.integers(0, n), st.integers(-1, 9)))
    return text, mode, r


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(case=verify_cases())
def test_verify_exits_with_a_contract_code(tmp_path_factory, case):
    text, mode, r = case
    path = tmp_path_factory.getbasetemp() / "fuzz-design.txt"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(path), "--mode", mode, "--r", str(r)])
    assert code in (0, 1, 2, 3), (code, text, err.getvalue())
    # main's catch-all would hide an escaping exception as exit 2
    assert "unexpected error:" not in err.getvalue(), (text, err.getvalue())
    # a verdict, and only a verdict, prints the RESULT: line
    assert (code in (0, 1)) == ("RESULT:" in out.getvalue()), (code, text)


# n's upper end for a field size q: the largest census of a valid draw then
# stays near [5 2]_3 = 1210 blocks.
N_CAP = {q: 5 if q <= 3 else 3 if q <= 9 else 2 for q in range(31)}


@st.composite
def construct_cases(draw):
    """argv of `qcover construct` for a kind built from q and small integer
    arguments.  q runs over 0..30, mostly small prime powers.  k, r and rho
    come from their valid ranges half the time and otherwise reach one past
    them on either side; n does so too, or is N_CAP[q], where a partial
    spread (n > 2 rho) can first be built."""
    kind = draw(st.sampled_from(["spread", "partial-spread", "line-covering",
                                 "turan-dual", "trivial", "greedy"]))
    q = draw(st.one_of(st.sampled_from([2, 3, 4, 5]), st.integers(0, 30)))
    n = draw(st.one_of(st.integers(1, N_CAP[q]), st.just(N_CAP[q]),
                       st.integers(-1, N_CAP[q])))
    k = draw(st.one_of(st.integers(1, max(n, 1)), st.integers(-1, n + 1)))
    r = draw(st.one_of(st.integers(0, max(k, 0)), st.integers(-1, k + 1)))
    rho = draw(st.one_of(st.just(2), st.integers(-1, 3)))
    return ["construct", kind, "--q", str(q), "--n", str(n), "--k", str(k),
            "--r", str(r), "--rho", str(rho)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(argv=construct_cases())
def test_construct_exits_with_a_contract_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (code, argv, err.getvalue())
    assert "unexpected error:" not in err.getvalue(), (argv, err.getvalue())
    # construct prints the RESULT: line only for a certified design
    assert (code == 0) == ("RESULT:" in out.getvalue()), (code, argv)
