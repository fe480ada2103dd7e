"""The text of ``hypermap --json``; ``cli`` loads it only under ``--json``.

``dumps(payload)`` is exactly ``json.dumps(payload, indent=2, sort_keys=True)``
for every payload the command line prints, without the pure-Python encoder
that ``indent`` makes CPython fall back to.
"""

from itertools import chain
from json.encoder import encode_basestring_ascii as _string


def dumps(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for the values a payload
    holds: dicts with str keys, lists, str, int, bool and None.

    Strings go through json's own C encoder and each container is one join;
    a list of plain ints is one join over ``int.__repr__``, and a list of
    lists of plain ints is read off its repr.  Both test ``type(x) is int``,
    which leaves bools (an int subclass) to print as ``true`` and ``false``.
    """
    return _write(value, "\n")


def _write(v, pad: str) -> str:
    """The text of v, each of its lines after the first opened by pad."""
    t = type(v)
    if t is str:
        return _string(v)
    if t is int:
        return int.__repr__(v)
    if t is bool:
        return "true" if v else "false"
    if v is None:
        return "null"
    if t is not list and t is not dict:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
    if not v:
        return "[]" if t is list else "{}"
    inner = pad + "  "
    sep = "," + inner
    if t is dict:
        items = [_string(k) + ": " + _write(x, inner) for k, x in sorted(v.items())]
        return "{" + inner + sep.join(items) + pad + "}"
    kinds = set(map(type, v))
    if kinds == {int}:
        body = sep.join(map(int.__repr__, v))
    elif kinds == {list} and all(v) and set(map(type, chain.from_iterable(v))) == {int}:
        # cycles or edges: repr writes them as "[[1, 2], [3]]", and no int
        # holds "]" or ", ", so the line breaks go in by two replaces
        deeper = inner + "  "
        cells = repr(v)[2:-2].replace("], [", f"{inner}],{inner}[{deeper}")
        body = f"[{deeper}{cells.replace(', ', ',' + deeper)}{inner}]"
    else:
        body = sep.join([_write(x, inner) for x in v])
    return "[" + inner + body + pad + "]"
