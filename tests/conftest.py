import acceptance_report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_report.LINES:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_report.LINES:
            terminalreporter.write_line(line)
    if acceptance_report.DP_STATES:
        terminalreporter.section("frontier DP at 20-60 points")
        for test, states in sorted(acceptance_report.DP_STATES.items()):
            terminalreporter.write_line(f"{test}: largest pass {states} states")
