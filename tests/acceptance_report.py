"""Shared registry for the lines a plain ``pytest`` run should show.

test_acceptance.py records one line per criterion here, and test_fuzz.py
the most frontier DP states one pass of each metamorphic test visited;
conftest.py prints both in pytest's terminal summary.
"""

import functools

LINES = []
DP_STATES = {}


def dp_states(test: str, states: int) -> None:
    DP_STATES[test] = max(states, DP_STATES.get(test, 0))


def record(number: int, status: str, description: str) -> None:
    line = f"ACCEPTANCE {number:2d} {status}: {description}"
    LINES.append(line)
    print(line)


def criterion(number: int, description: str):
    """Decorator: emit the PASS/FAIL line for one acceptance criterion."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record(number, "FAIL", description)
                raise
            record(number, "PASS", description)
            return result

        return wrapper

    return deco
