"""Shared test plumbing: caps each test's run time, collects
acceptance-criterion verdicts to print one line per criterion in the
terminal summary, and holds the tests' one pairwise alternation oracle."""
import signal

import pytest

TEST_SECONDS = 60  # the slowest test takes under 3 s

acceptance_results: list[tuple[int, str, str]] = []


class TimeCapExceeded(Exception):
    """A test ran past TEST_SECONDS.  Neither a ValueError nor an OSError,
    so that ``cli.main`` cannot turn it into exit code 2."""


@pytest.fixture(autouse=True)
def _time_cap():
    """Fail a test that runs past TEST_SECONDS instead of hanging the suite
    (a search fault can make a query run for hours); a no-op on platforms
    without SIGALRM."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeCapExceeded(f"test ran past {TEST_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def restriction_alternates(letters, x, y):
    """Pairwise oracle, written from the definition: the restriction of the
    token sequence ``letters`` to {x, y} has no two equal neighbours."""
    kept = [t for t in letters if t == x or t == y]
    return all(a != b for a, b in zip(kept, kept[1:]))


def record_criterion(number: int, description: str, passed: bool) -> None:
    acceptance_results.append((number, description, "PASS" if passed else "FAIL"))


def pytest_terminal_summary(terminalreporter):
    if not acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, verdict in sorted(acceptance_results):
        terminalreporter.write_line(f"{verdict}  criterion {number}: {description}")
