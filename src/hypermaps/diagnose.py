"""Cycle text read token by token, to name the first fault of a line.

``cli`` reads a well-formed line in one pass and loads this module only for
a line it refuses, so a command pays for the walk only on bad input.
"""

from __future__ import annotations

import re
from typing import List, Optional

from .cli import MAX_DIGITS, InputError, _int

# A token of cycle text: a point, that is a digit run that a separator run or
# ')' ends (group 1); '(' (2); ')' (3); a separator run; a digit run that
# something else ends (4); any other character (5).
_TOKEN = re.compile(r"([0-9]+)(?:[ \t,]+|(?=\)))|(\()|(\))|[ \t,]+|([0-9]+)|(.)", re.S)


def walk_cycle_text(line: str, where: str, first_col: int) -> List[List[int]]:
    """The cycles of a line read token by token, or InputError at its first fault."""
    cycles: List[List[int]] = []
    current: Optional[List[int]] = None
    stray = None  # a digit run that '(', an unexpected character or the end follows
    for m in _TOKEN.finditer(line):
        kind = m.lastindex
        if kind == 1:
            digits = m.group(1)
            if current is None:
                raise InputError(f"{where}: point {digits} outside any cycle")
            if len(digits) > MAX_DIGITS:
                _int(digits, f"{where}:{first_col + m.start()}", "point")
            current.append(int(digits))
        elif kind == 3:
            if current is None:
                raise InputError(f"{where}:{first_col + m.start()}: unmatched ')'")
            if not current:
                raise InputError(f"{where}:{first_col + m.start()}: empty cycle")
            cycles.append(current)
            current = None
        elif kind == 2:
            if current is not None:
                raise InputError(f"{where}:{first_col + m.start()}: nested '('")
            if stray is not None:
                raise InputError(f"{where}: point {stray} outside any cycle")
            current = []
        elif kind == 4:
            stray = m.group(4)
        elif kind == 5:
            raise InputError(
                f"{where}:{first_col + m.start()}: unexpected character {m.group(5)!r}"
            )
    if current is not None:
        raise InputError(f"{where}: unterminated cycle")
    if stray is not None:
        raise InputError(f"{where}: point {stray} outside any cycle")
    return cycles
