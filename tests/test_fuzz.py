"""Property-based fuzzing of the input parsers, the command line and the
polynomial text form.

Every drawn text must either parse or raise ``ValueError`` (the CLI turns
that into exit 2 with a one-line ``error:``), and nothing else, within a
fixed deadline per example.  Every drawn command line must exit 0, or 2
with one ``error:`` line, and so must every subcommand run on a drawn
collection of at most 7 points (the selftest's generators, under drawn
labels) or a drawn Eulerian digraph, with flags left out, valid or bad.
Well-formed drawn documents, written as cycle text with drawn separator runs,
zero-padded and ``MAX_DIGITS``-digit points and comments, and as JSON, must
load to the collection and labels that a reference built with
``Permutation.from_cycles`` gives, and every drawn line of cycle text must
read as the token walk reads it.  The ``--json`` writer must print every
drawn payload value exactly as ``json.dumps(value, indent=2, sort_keys=True)``.

Drawn values of ``n`` are either small (at most ``SMALL_N``) or above
``cli.MAX_POINTS``, up to 10^40, where the parsers must refuse them with
``ValueError`` before any point table is built.  Examples that set ``n``
in between are skipped: they parse, but build tables of up to a million
entries, which is slow rather than wrong.
"""

import contextlib
import io
import json
import operator
import sys
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypermaps import cli
from hypermaps.cli import (
    COMMANDS,
    MAX_DIGITS,
    MAX_POINTS,
    load_document,
    main,
    parse_digraph,
    parse_hypermap_text,
)
from hypermaps.diagnose import walk_cycle_text
from hypermaps.hypermap import Hypermap
from hypermaps.jsonin import parse_hypermap_json
from hypermaps.jsonout import dumps
from hypermaps.perm import Permutation
from hypermaps.poly import BiPoly, UniPoly
from hypermaps.selftest import random_collection, random_eulerian_digraph, random_map

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


# Well-formed documents written with every liberty the cycle text allows:
# separator runs between points, and runs that may be empty inside the
# parentheses, between cycles and at both ends of the line.
separators = st.text(alphabet=" \t,", min_size=1, max_size=4)
gaps = st.text(alphabet=" \t,", max_size=4)
comments = st.sampled_from(["", "  # a comment", "\t# (1 2) sigma: 3", "#"])


@st.composite
def drawn_cycles(draw, labels):
    """Some of the labels, in drawn order, cut into cycles."""
    order = draw(st.permutations(labels))
    order = order[:draw(st.integers(min_value=0, max_value=len(order)))]
    cuts = draw(st.sets(st.integers(min_value=1, max_value=max(len(order) - 1, 1))))
    bounds = [0, *sorted(c for c in cuts if c < len(order)), len(order)]
    return [order[a:b] for a, b in zip(bounds, bounds[1:]) if a < b]


@st.composite
def written_cycles(draw, cycles):
    """Cycle text for the cycles, with drawn separator runs around the points
    and points zero-padded up to MAX_DIGITS digits or not."""
    if not cycles and draw(st.booleans()):
        return "()"

    def point(p):
        pad = draw(st.sampled_from([0, 0, 1, 3]))
        return "0" * min(pad, MAX_DIGITS - len(str(p))) + str(p)

    out = draw(gaps)
    for cyc in cycles:
        out += "(" + draw(gaps)
        out += "".join(point(p) + draw(separators) for p in cyc[:-1]) + point(cyc[-1])
        out += draw(gaps) + ")" + draw(gaps)
    return out


@st.composite
def written_documents(draw):
    """Drawn cycles of sigma and alpha on labels that need not be 1..n, and
    the same document as cycle text and as JSON."""
    if draw(st.booleans()):
        labels = list(range(1, draw(st.integers(min_value=0, max_value=9)) + 1))
    else:
        longest = st.integers(min_value=10 ** (MAX_DIGITS - 1),
                              max_value=10 ** MAX_DIGITS - 1)
        labels = draw(st.lists(st.integers(min_value=1, max_value=10 ** 12) | longest,
                               unique=True, max_size=9))
    sigma, alpha = draw(drawn_cycles(labels)), draw(drawn_cycles(labels))
    lines = [f"sigma: {draw(written_cycles(sigma))}{draw(comments)}",
             f"alpha: {draw(written_cycles(alpha))}{draw(comments)}"]
    lines = draw(st.permutations(lines + ["", "# a comment line"]))
    text = "\n".join(lines)
    return sigma, alpha, text, json.dumps({"sigma": sigma, "alpha": alpha})


@FUZZ
@given(written_documents())
def test_cycle_text_and_json_load_as_the_reference(case):
    sigma, alpha, text, json_text = case
    labels = sorted({p for cyc in sigma + alpha for p in cyc})
    index = {p: i for i, p in enumerate(labels, 1)}
    reference = Hypermap(*(
        Permutation.from_cycles(len(labels), [[index[p] for p in c] for c in cycles])
        for cycles in (sigma, alpha)
    ))
    for document in (text, json_text):
        doc = load_document(document)
        assert doc.hypermap == reference, document
        assert doc.labels == tuple(labels), document


# Lines of cycle text, well formed or not: the one-pass reader must give the
# cycles, or the error, that the token walk gives.
cycle_lines = st.one_of(
    junk,
    st.text(alphabet="() 0123456789,\t", max_size=30),
    st.lists(st.integers(min_value=0, max_value=99), unique=True, max_size=8)
    .flatmap(drawn_cycles).flatmap(written_cycles),
)


@FUZZ
@given(cycle_lines)
def test_cycle_lines_read_as_the_token_walk_reads_them(line):
    assume(line != "()")  # no points; the walk would call it an empty cycle

    def read(parse):
        try:
            return parse(line, "<stdin>:1", 8)
        except ValueError as exc:
            return str(exc)

    assert read(cli._parse_cycle_text) == read(walk_cycle_text)


# Every type a --json payload holds, nested: strings with what json escapes
# (quotes, backslashes, control characters, lone surrogates, non-ASCII), ints
# of either sign and past 4,300 digits, bools among ints, None, and empty
# lists and dicts.
payload_strings = st.text(st.characters() | st.characters(categories=["Cs"])
                          | st.sampled_from('"\\\x00\x1f\x7f\u2028'))
long_ints = st.integers(min_value=10 ** 4300, max_value=10 ** 4400)
payload_ints = st.integers() | long_ints | long_ints.map(operator.neg)
int_or_bool = payload_ints | st.booleans()
payload_values = st.recursive(
    st.none() | st.booleans() | payload_ints | payload_strings,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(payload_strings, inner, max_size=4)
    | st.lists(int_or_bool, max_size=6)
    | st.lists(st.lists(int_or_bool, max_size=4), max_size=4),
    max_leaves=20,
)


@FUZZ
@given(payload_values)
def test_json_writer_prints_what_json_dumps_prints(value):
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)  # as cli.main does
    try:
        assert dumps(value) == json.dumps(value, indent=2, sort_keys=True)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


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


def _exits_0_or_2_with_one_error_line(argv, document):
    out, err = io.StringIO(), io.StringIO()
    # --n-max may reach 10; the selftest itself has tests of its own
    with mock.patch("hypermaps.selftest.run_selftest", return_value=[]), \
            mock.patch.object(sys, "stdin", io.StringIO(document)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    if rc == 0:
        assert err.getvalue() == "", (argv, err.getvalue())
    else:
        assert rc == 2, (argv, rc, err.getvalue())
        assert err.getvalue().startswith("error:"), (argv, err.getvalue())
        assert err.getvalue().count("\n") == 1, (argv, err.getvalue())


@FUZZ
@given(command_lines())
def test_command_lines_exit_0_or_2_with_one_error_line(case):
    _exits_0_or_2_with_one_error_line(*case)


# Values a run reads, then values it must refuse; genus-bound commands refuse
# other genera too, and a small refinement cap refuses most inputs.
GOOD = {"--q": ("2", "3", "5"), "--method": ("dp", "brute", "phi", "psi", "all")}
BAD = ("-1", "4", "x", "", "magic")


@st.composite
def labelled_document(draw):
    """A collection of at most 7 points from the selftest's generators, its
    points renamed by distinct labels, written as cycle text or JSON."""
    rng = draw(st.randoms(use_true_random=False))
    h = draw(st.sampled_from([random_collection, random_map]))(rng, n_max=7)
    labels = draw(st.lists(st.integers(min_value=1, max_value=99), unique=True,
                           min_size=h.n, max_size=h.n))
    sigma, alpha = ([[labels[p - 1] for p in c] for c in perm.cycles()]
                    for perm in (h.sigma, h.alpha))
    if draw(st.booleans()):
        return json.dumps({"sigma": sigma, "alpha": alpha})
    return f"sigma: {_cycle_text(sigma)}\nalpha: {_cycle_text(alpha)}\n"


@st.composite
def subcommand_runs(draw):
    """A subcommand on a drawn input, each flag left out or given a value,
    and a refinement cap."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    command = COMMANDS[name]
    argv = [name]
    for flag in command.flags:
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            continue
        if flag.kind == "switch":
            argv.append(flag.name)
        else:
            bad = draw(st.integers(min_value=0, max_value=4)) == 0
            values = BAD if bad else GOOD.get(flag.name, ("1", "2", "3", "30"))
            argv.append(f"{flag.name}={draw(st.sampled_from(values))}")
    if command.kind == "hypermap":
        document = draw(labelled_document())
    elif command.kind == "digraph":
        rng = draw(st.randoms(use_true_random=False))
        edges = random_eulerian_digraph(rng, max_vertices=4, max_edges=7).edges
        document = "".join(f"{a} {b}\n" for a, b in edges)
    else:
        document = ""
    return argv, document, draw(st.sampled_from((1, 2, 3, 30, cli.MAX_REFINEMENTS)))


@settings(FUZZ, max_examples=300)
@given(subcommand_runs())
def test_subcommands_on_drawn_collections_exit_0_or_2(case):
    argv, document, cap = case
    with mock.patch.object(cli, "MAX_REFINEMENTS", cap):
        _exits_0_or_2_with_one_error_line(argv, document)


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
