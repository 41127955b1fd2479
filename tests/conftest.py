from hypothesis import settings

import _report

# Hypothesis draws the same examples on every run, so tier-1 stays deterministic.
settings.register_profile("tier-1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier-1")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _report.LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _report.LINES:
        terminalreporter.write_line(line)
