"""Shared pytest wiring.

The acceptance tests register one verdict line each; the hook below
echoes them in the terminal summary so the pass/fail roll-up survives
output capturing.  Property tests run without hypothesis's per-example
deadline, which a loaded two-core machine can overrun; each test keeps
its own ``max_examples``.
"""

import contextlib
import signal

from hypothesis import settings

settings.register_profile("birthdeath", deadline=None)
settings.load_profile("birthdeath")

ACCEPTANCE_LINES: list[str] = []


@contextlib.contextmanager
def alarm(seconds: int):
    """Fail the block with ``TimeoutError`` if it runs ``seconds`` seconds, so a hang fails its test."""
    def stop(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def record_acceptance(number: int, passed: bool, detail: str) -> str:
    verdict = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {number}: {verdict} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return line


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES, key=lambda s: int(s.split()[1].rstrip(":"))):
        terminalreporter.write_line(line)
