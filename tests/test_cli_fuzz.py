"""Property-based fuzz of `qcover verify` on generated design files.

The header's q runs over 0..20 (prime powers, composites, 0 and 1), n over
0..8 and k over -1..9; the block lines mix words that load with words that
do not, and the mode and --r (-1..9) are drawn too.  Whatever the file,
main must return one of the CLI's exit codes (0 verified, 1 not, 2 bad
input, 3 over budget), and no exception may reach main's catch-all for
unexpected errors.  The examples are derandomized, so the run is the same
every time, and bounded to keep the suite fast.
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
