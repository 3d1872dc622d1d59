from __future__ import annotations

import sys

import pytest


@pytest.fixture(autouse=True)
def _score_cache(tmp_path_factory, monkeypatch):
    """Each test's score cache in a directory of its own, out of tmp_path
    (whose listing some tests compare) and out of the user's cache: no test
    is served an entry another test, or another run, wrote."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-criteria verdict lines past output capture."""
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "_LINES", None) if module else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
