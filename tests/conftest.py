import re

import pytest

from qcover import subspaces

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL line per acceptance criterion after the run."""
    results = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            when = getattr(report, "when", "call")
            if when not in ("call", "collect"):
                continue
            match = _CRITERION.search(report.nodeid)
            if match:
                number = int(match.group(1))
                name = match.group(2)
                results[number] = (name, outcome == "passed")
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(results):
        name, ok = results[number]
        terminalreporter.write_line(
            f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture
def subspace_builds(monkeypatch):
    """A list that gets one entry, the block's q, per Subspace built while
    the test runs.  A block gets its fields only through the slot writers
    that subspaces binds once: __init__ calls them, and Subspace(...),
    map(Subspace, ...), copy and pickle all run __init__.  The counter wraps
    the first writer, so it counts builds by any of those routes and by
    any that writes the slots without __init__."""
    built = []
    set_q = subspaces._set_q

    def counted(block, q):
        built.append(q)
        set_q(block, q)
    monkeypatch.setattr(subspaces, "_set_q", counted)
    return built
