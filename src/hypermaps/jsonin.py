"""The reader of a hypermap document given as a JSON object.

``cli.load_document`` imports it for a document whose first non-blank
character is ``{`` or ``[``, so a command on cycle text compiles neither
this module nor ``json``.  The cycles are checked as cycle text's are, by
``cli._build_document``.  A fault is named by its file, and an integer of
more than ``cli.MAX_DIGITS`` digits or an ``n`` above ``cli.MAX_POINTS`` by
its line as well.
"""

from __future__ import annotations

import json
import re

from . import cli
from .cli import HypermapDocument, InputError, _build_document, _int

# MAX_DIGITS, MAX_POINTS and _LONG_RUN are read off cli at each call, so a
# limit changed there holds here too.


def _long_integer_line(text: str) -> int:
    """Line of the first JSON integer longer than MAX_DIGITS, strings blanked."""
    bare = re.sub(r'"(?:[^"\\]|\\.)*"', '""', text)
    long_int = r"(?<![-+.eE0-9])-?[0-9]{%d,}(?![.eE0-9])" % (cli.MAX_DIGITS + 1)
    found = re.search(long_int, bare)
    return bare.count("\n", 0, found.start() if found else 0) + 1


def _top_level_key_line(text: str, key: str) -> int:
    """Line of the last top-level ``key`` of a JSON object, the one json keeps."""
    line, depth = 1, 0
    for m in re.finditer(r'("(?:[^"\\]|\\.)*")(\s*:)?|[\[{]|[\]}]', text):
        if m.group(1) is None:
            depth += 1 if m.group() in "[{" else -1
        elif depth == 1 and m.group(2) and json.loads(m.group(1)) == key:
            line = text.count("\n", 0, m.start()) + 1
    return line


def parse_hypermap_json(text: str, filename: str = "<input>") -> HypermapDocument:
    parse_int = None  # json's own int(), unless some integer may be too long
    if cli._LONG_RUN.search(text):
        def parse_int(digits: str) -> int:  # looks the line up only if it refuses
            return _int(digits, filename if len(digits) <= cli.MAX_DIGITS
                        else f"{filename}:{_long_integer_line(text)}", "integer")

    try:
        obj = json.loads(text, parse_int=parse_int)
    except json.JSONDecodeError as exc:
        raise InputError(f"{filename}: invalid JSON: {exc}") from None
    except RecursionError:
        raise InputError(f"{filename}: JSON nested too deeply") from None
    if not isinstance(obj, dict):
        raise InputError(f"{filename}: top level must be an object")
    unknown = set(obj) - {"n", "sigma", "alpha", "name"}
    if unknown:
        raise InputError(f"{filename}: unknown keys {json.dumps(sorted(unknown))}")
    for key in ("sigma", "alpha"):
        if key not in obj:
            raise InputError(f"{filename}: missing key {json.dumps(key)}")
        val = obj[key]
        if not isinstance(val, list) or not set(map(type, val)) <= {list}:
            raise InputError(f"{filename}: {key} must be a list of cycles")
    n = obj.get("n")
    if n is not None and (not isinstance(n, int) or isinstance(n, bool) or n < 0):
        raise InputError(f"{filename}: n must be a nonnegative integer")
    if n is not None and n > cli.MAX_POINTS:
        line = _top_level_key_line(text, "n")
        raise InputError(f"{filename}:{line}: n must be at most {cli.MAX_POINTS}")
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise InputError(f"{filename}: name must be a string")
    where = {"sigma": filename, "alpha": filename, "n": filename}
    return _build_document(obj["sigma"], obj["alpha"], n, name, where)
