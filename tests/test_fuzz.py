"""Property-based fuzzing of the input parsers and the polynomial text form.

Every drawn text must either parse or raise ``ValueError`` (the CLI turns
that into exit 2 with a one-line ``error:``), and nothing else, within a
fixed deadline per example.

Drawn values of ``n`` stay small.  A large ``n`` is a known open defect,
not something these tests hide: ``{"n": 1000000000, ...}`` (or the text
line ``n: 1000000000``) makes ``_build_document`` allocate a label table of
n entries before any size check runs, so it exhausts memory instead of
failing fast.  Capping n at parse time is on the ROADMAP.
"""

import json

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypermaps.cli import parse_digraph, parse_hypermap_json, parse_hypermap_text
from hypermaps.poly import BiPoly, UniPoly

FUZZ = settings(
    max_examples=150,
    deadline=500,
    database=None,
    derandomize=True,
)

SMALL_N = 12

points = st.integers(min_value=-2, max_value=SMALL_N + 2)
cycles = st.lists(st.lists(points, max_size=5), max_size=4)


def _cycle_text(cs):
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cs)


junk = st.text(alphabet="()0123456789 ,\t#:-xn", max_size=15)
text_lines = st.one_of(
    cycles.map(lambda cs: "sigma: " + _cycle_text(cs)),
    cycles.map(lambda cs: "alpha: " + _cycle_text(cs)),
    st.integers(min_value=-1, max_value=SMALL_N).map(lambda n: f"n: {n}"),
    junk.map(lambda s: "sigma: " + s),
    junk.map(lambda s: "alpha: " + s),
    junk.map(lambda s: "name: " + s),
    junk,
    st.text(max_size=15),
)


def _n_is_small(text):
    """False when some line sets n above SMALL_N (the known allocation)."""
    for raw in text.splitlines():
        key, sep, value = raw.split("#", 1)[0].partition(":")
        if sep and key.strip().lower() == "n":
            try:
                if int(value.strip()) > SMALL_N:
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
    assume(_n_is_small(text))
    _parses_or_value_error(parse_hypermap_text, text)


@FUZZ
@given(st.text(max_size=40))
def test_arbitrary_text_parses_or_raises_value_error(text):
    assume(_n_is_small(text))
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
        "n": st.one_of(st.integers(min_value=-1, max_value=SMALL_N), json_scalars),
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
    assume(not isinstance(n, int) or n <= SMALL_N)
    _parses_or_value_error(parse_hypermap_json, text)


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
