"""Shared pytest wiring.

The acceptance tests register one verdict line each; the hook below
echoes them in the terminal summary so the pass/fail roll-up survives
output capturing.  Property tests run without hypothesis's per-example
deadline, which a loaded two-core machine can overrun; each test keeps
its own ``max_examples``.  The target-piece tables serve the dimension
rule's tests in several modules.
"""

import contextlib
import signal

from hypothesis import settings
from hypothesis import strategies as st

from birthdeath import (
    AllInRegion,
    BallSet,
    BoxRegion,
    Configuration,
    EmptySingleton,
    ExactPointTarget,
    HyperplaneTarget,
    LayerSet,
    PairDistanceTarget,
    ProductOfDisjointBoxes,
    RhoBall,
)

settings.register_profile("birthdeath", deadline=None)
settings.load_profile("birthdeath")

# Quarter-grid coordinates, so drawn points often sit on boxes' faces and balls' spheres.
COORDINATES = st.integers(-8, 8).map(lambda k: k / 4)


def points(dimension: int, min_size: int = 0, max_size: int = 3):
    """Strategy: distinct points with ``dimension`` quarter-grid coordinates each."""
    point = st.tuples(*[COORDINATES] * dimension)
    return st.lists(point, min_size=min_size, max_size=max_size, unique=True)


def _unit_box(dimension: int, lower: float) -> BoxRegion:
    return BoxRegion((lower,) * dimension, (lower + 1.0,) * dimension)


# Every kind of target piece, by its class (a layer set by its shape's): a strategy, for a
# dimension d from 1 to 3, of a piece together with the model dimensions it fits.  The
# hyperplane's axis runs from 0 to 3 whatever d is.
TARGET_KINDS = {
    EmptySingleton: lambda d: st.just((LayerSet(0, EmptySingleton()), lambda m: True)),
    AllInRegion: lambda d: st.integers(0, 3).map(
        lambda n: (LayerSet(n, AllInRegion(_unit_box(d, -0.5))), lambda m: m == d)),
    ProductOfDisjointBoxes: lambda d: st.integers(1, 3).map(
        lambda n: (LayerSet(n, ProductOfDisjointBoxes(tuple(_unit_box(d, k - 1.0) for k in range(n)))),
                   lambda m: m == d)),
    BallSet: lambda d: st.tuples(points(d, 1), st.sampled_from([0.25, 0.5, 1.0])).map(
        lambda c: (LayerSet(len(c[0]), BallSet(RhoBall(Configuration(c[0]), c[1]))), lambda m: m == d)),
    ExactPointTarget: lambda d: points(d, 1, 1).map(lambda p: (ExactPointTarget(p[0]), lambda m: m == d)),
    HyperplaneTarget: lambda d: st.tuples(st.integers(0, 3), COORDINATES).map(
        lambda a: (HyperplaneTarget(*a), lambda m: m > a[0])),
    PairDistanceTarget: lambda d: st.sampled_from([0.25, 0.5, 1.0]).map(
        lambda r: (PairDistanceTarget(r), lambda m: True)),
}

# A piece of each kind that no state of a 1-D model can meet, and the refusal naming both dimensions.
MISFITS = {
    "all-in-region": (LayerSet(1, AllInRegion(_unit_box(2, 0.0))), "is 2-D, the model is 1-D"),
    "product-boxes": (LayerSet(2, ProductOfDisjointBoxes((_unit_box(2, 0.0), _unit_box(2, 1.0)))),
                      "is 2-D, the model is 1-D"),
    "ball": (LayerSet(3, BallSet(RhoBall(Configuration([(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)]), 0.25))),
             "is 2-D, the model is 1-D"),
    "exact-point": (ExactPointTarget((0.1, 0.2)), "is 2-D, the model is 1-D"),
    "hyperplane": (HyperplaneTarget(3, 0.0), "needs 4 or more dimensions, the model is 1-D"),
}

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
