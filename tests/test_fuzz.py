"""Property-based fuzzing of the input parsers, the command line and the
polynomial text form.

Every drawn text must either parse or raise ``ValueError`` (the CLI turns
that into exit 2 with a one-line ``error:``), and nothing else, within a
fixed deadline per example.  Every drawn command line must exit 0, or 2
with one ``error:`` line.

Drawn values of ``n`` are either small (at most ``SMALL_N``) or above
``cli.MAX_POINTS``, up to 10^40, where the parsers must refuse them with
``ValueError`` before any point table is built.  Examples that set ``n``
in between are skipped: they parse, but build tables of up to a million
entries, which is slow rather than wrong.
"""

import contextlib
import io
import json
import sys
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypermaps.cli import (
    COMMANDS,
    MAX_POINTS,
    main,
    parse_digraph,
    parse_hypermap_json,
    parse_hypermap_text,
)
from hypermaps.poly import BiPoly, UniPoly

FUZZ = settings(
    max_examples=150,
    deadline=500,
    database=None,
    derandomize=True,
)

SMALL_N = 12
large_n = st.integers(min_value=MAX_POINTS + 1, max_value=10 ** 40)

points = st.integers(min_value=-2, max_value=SMALL_N + 2)
cycles = st.lists(st.lists(points, max_size=5), max_size=4)


def _cycle_text(cs):
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cs)


junk = st.text(alphabet="()0123456789 ,\t#:-xn", max_size=15)
text_lines = st.one_of(
    cycles.map(lambda cs: "sigma: " + _cycle_text(cs)),
    cycles.map(lambda cs: "alpha: " + _cycle_text(cs)),
    st.integers(min_value=-1, max_value=SMALL_N).map(lambda n: f"n: {n}"),
    large_n.map(lambda n: f"n: {n}"),
    junk.map(lambda s: "sigma: " + s),
    junk.map(lambda s: "alpha: " + s),
    junk.map(lambda s: "name: " + s),
    junk,
    st.text(max_size=15),
)


def _midsized(n):
    return isinstance(n, int) and SMALL_N < n <= MAX_POINTS


def _no_midsized_n(text):
    """False when some line sets n above SMALL_N but within MAX_POINTS."""
    for raw in text.splitlines():
        key, sep, value = raw.split("#", 1)[0].partition(":")
        if sep and key.strip().lower() == "n":
            try:
                if _midsized(int(value.strip())):
                    return False
            except ValueError:
                pass
    return True


def _parses_or_value_error(parse, text):
    try:
        parse(text)
    except ValueError:
        pass


@FUZZ
@given(st.lists(text_lines, max_size=5).map("\n".join))
def test_hypermap_text_parses_or_raises_value_error(text):
    assume(_no_midsized_n(text))
    _parses_or_value_error(parse_hypermap_text, text)


@FUZZ
@given(st.text(max_size=40))
def test_arbitrary_text_parses_or_raises_value_error(text):
    assume(_no_midsized_n(text))
    _parses_or_value_error(parse_hypermap_text, text)


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=SMALL_N),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=5),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=12,
)
json_documents = st.fixed_dictionaries(
    {"sigma": cycles, "alpha": cycles},
    optional={
        "n": st.one_of(
            st.integers(min_value=-1, max_value=SMALL_N), large_n, json_scalars
        ),
        "name": json_scalars,
    },
)
json_objects = st.dictionaries(
    st.sampled_from(["n", "sigma", "alpha", "name", "extra"]), json_values
)
json_texts = st.one_of(json_documents, json_objects, json_values).map(json.dumps)
nested_json = st.integers(min_value=1, max_value=10 ** 4).map(
    lambda depth: '{"sigma": ' + "[" * depth + "]" * depth + "}"
)


@FUZZ
@given(st.one_of(json_texts, nested_json))
def test_hypermap_json_parses_or_raises_value_error(text):
    _parses_or_value_error(parse_hypermap_json, text)


@FUZZ
@given(st.text(alphabet='{}[]",:0123456789 .-naeulsigmphrt', max_size=40))
def test_broken_json_parses_or_raises_value_error(text):
    try:
        n = json.loads(text)["n"]
    except (ValueError, TypeError, KeyError):
        n = None
    assume(not _midsized(n))
    _parses_or_value_error(parse_hypermap_json, text)


@FUZZ
@given(cycles, cycles, large_n)
def test_n_above_max_points_is_refused(sigma, alpha, n):
    text = f"n: {n}\nsigma: {_cycle_text(sigma)}\nalpha: {_cycle_text(alpha)}\n"
    with pytest.raises(ValueError, match=f"n must be at most {MAX_POINTS}"):
        parse_hypermap_text(text)
    with pytest.raises(ValueError, match=f"n must be at most {MAX_POINTS}"):
        parse_hypermap_json(json.dumps({"n": n, "sigma": sigma, "alpha": alpha}))


digraph_lines = st.one_of(
    st.tuples(points, points).map(lambda e: f"{e[0]} {e[1]}"),
    st.tuples(points, points).map(lambda e: f"{e[0]},{e[1]}  # edge"),
    st.text(alphabet="0123456789 ,#-x\t", max_size=12),
    st.text(max_size=12),
)


@FUZZ
@given(st.lists(digraph_lines, max_size=6).map("\n".join))
def test_digraph_parses_or_raises_value_error(text):
    _parses_or_value_error(parse_digraph, text)


# Command lines: drawn from each COMMANDS row's flags, whole or cut to a
# prefix, with good, bad or missing values, among junk tokens.  Those have no
# "/" or ".", so it names no file that exists; "-" reads the document.
DOCUMENTS = {"hypermap": "sigma: (1 4)(2 5)(3)\nalpha: (1 2 3)(4 5)\n",
             "digraph": "1 2\n2 1\n", None: ""}
flag_values = st.one_of(
    st.integers(min_value=-3, max_value=12).map(str),
    st.sampled_from(["brute", "phi", "psi", "dp", "all", "magic", "", "x", "1e3"]),
    st.text(alphabet="-=0123456789x \n", max_size=6),
)
arg_junk = st.one_of(
    st.sampled_from(["-", "--", "-h", "--help", "--version", "-x", "--=1"]),
    st.text(alphabet="-=0123456789abx \n", max_size=8),
)


@st.composite
def flag_tokens(draw, command):
    flag = draw(st.sampled_from(command.flags))
    name = flag.name[:draw(st.integers(min_value=3, max_value=len(flag.name)))]
    form = draw(st.sampled_from(["bare", "joined", "split"]))
    if form == "bare":
        return [name]
    value = draw(flag_values)
    return [f"{name}={value}"] if form == "joined" else [name, value]


@st.composite
def command_lines(draw):
    commands = st.sampled_from(sorted(COMMANDS))
    name = draw(st.one_of(commands, commands, commands, arg_junk))
    command = COMMANDS.get(name)
    parts = arg_junk.map(lambda t: [t])
    if command:
        parts = st.one_of(parts, flag_tokens(command), flag_tokens(command))
    argv = [name] + [t for part in draw(st.lists(parts, max_size=5)) for t in part]
    return argv, DOCUMENTS[command.kind if command else None]


@FUZZ
@given(command_lines())
def test_command_lines_exit_0_or_2_with_one_error_line(case):
    argv, document = case
    out, err = io.StringIO(), io.StringIO()
    limit = sys.getrecursionlimit()  # main raises it; hypothesis wants it back
    # --n-max may reach 10; the selftest itself has tests of its own
    with mock.patch("hypermaps.selftest.run_selftest", return_value=[]), \
            mock.patch.object(sys, "stdin", io.StringIO(document)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        finally:
            sys.setrecursionlimit(limit)
    if rc == 0:
        assert err.getvalue() == "", (argv, err.getvalue())
    else:
        assert rc == 2, (argv, rc, err.getvalue())
        assert err.getvalue().startswith("error:"), (argv, err.getvalue())
        assert err.getvalue().count("\n") == 1, (argv, err.getvalue())


exponents = st.integers(min_value=-3, max_value=6)
coefficients = st.integers(min_value=-(10 ** 30), max_value=10 ** 30)


@FUZZ
@given(st.dictionaries(st.tuples(exponents, exponents), coefficients, max_size=8))
def test_bipoly_text_round_trip(terms):
    p = BiPoly(terms)
    assert BiPoly.parse(str(p)) == p


@FUZZ
@given(st.dictionaries(exponents, coefficients, max_size=8))
def test_unipoly_text_round_trip(terms):
    p = UniPoly(terms)
    assert UniPoly.parse(str(p)) == p
