import io
import json
import random
import re
import subprocess
import sys
import time

import pytest

from hypermaps import cli, medial, nclattice
from hypermaps.poly import BiPoly
from hypermaps.selftest import random_collection
from hypermaps.whitney import whitney_phi

RUNNING = "sigma: (1 4)(2 5)(3)\nalpha: (1 2 3)(4 5)\n"
RUNNING_ECHO = {"n": 5, "sigma": [[1, 4], [2, 5], [3]], "alpha": [[1, 2, 3], [4, 5]]}
R_TEXT = "u^2 + u*v + 4*u + v + 3"
DIGRAPH = "1 2\n2 1\n"


def run_cli(args, stdin="", python_flags=(), timeout=300):
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "hypermaps", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_whitney_default():
    r = run_cli(["whitney"], RUNNING)
    assert r.returncode == 0
    assert r.stdout.strip() == "u^2 + u*v + 4*u + v + 3"
    assert r.stderr == ""


def test_whitney_all_methods_agree():
    r = run_cli(["whitney", "--method=all"], RUNNING)
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert len(lines) == 4
    assert len(set(lines)) == 1


def test_whitney_check_flag():
    r = run_cli(["whitney", "--check"], RUNNING)
    assert r.returncode == 0
    assert r.stdout.strip() == "u^2 + u*v + 4*u + v + 3"


def test_whitney_json_payload():
    r = run_cli(["whitney", "--json"], RUNNING)
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert set(payload) == {"input_echo", "result", "method", "stats"}
    assert payload["result"] == "u^2 + u*v + 4*u + v + 3"
    assert payload["method"] == "dp"
    assert payload["input_echo"]["n"] == 5
    assert payload["input_echo"]["alpha"] == [[1, 2, 3], [4, 5]]


def test_json_input_accepted():
    doc = json.dumps(
        {"n": 5, "sigma": [[1, 4], [2, 5]], "alpha": [[1, 2, 3], [4, 5]]}
    )
    r = run_cli(["whitney"], doc)
    assert r.returncode == 0
    assert r.stdout.strip() == "u^2 + u*v + 4*u + v + 3"


def test_file_input(tmp_path):
    path = tmp_path / "doc.txt"
    path.write_text(RUNNING)
    r = run_cli(["genus", str(path)])
    assert r.returncode == 0
    assert r.stdout.strip() == "0"


def test_arbitrary_labels_compacted():
    doc = "sigma: (10 40)(20 50)\nalpha: (10 20 30)(40 50)\n"
    r = run_cli(["dual"], doc)
    assert r.returncode == 0
    assert r.stdout == "sigma: (10 50)(20 40 30)\nalpha: (10 30 20)(40 50)\n"


def test_comments_and_blank_lines_ignored():
    doc = "# a comment\n\nsigma: (1 4)(2 5)(3)  # trailing\nalpha: (1 2 3)(4 5)\n"
    r = run_cli(["genus"], doc)
    assert r.returncode == 0
    assert r.stdout.strip() == "0"


def test_genus_json():
    r = run_cli(["genus", "--json"], RUNNING)
    payload = json.loads(r.stdout)
    assert payload["result"] == {"genus": 0, "kappa": 1}


def test_medial_output():
    r = run_cli(["medial"], RUNNING)
    assert r.returncode == 0
    assert "sigma': (1- 1+ 2- 2+ 3- 3+)(4- 4+ 5- 5+)" in r.stdout


def test_circuit_partition():
    r = run_cli(["circuit-partition"], RUNNING)
    assert r.returncode == 0
    assert r.stdout.strip() == "2*x^3 + 5*x^2 + 3*x"
    r = run_cli(["circuit-partition", "--json"], RUNNING)
    assert json.loads(r.stdout)["method"] == "dp"
    torus = "sigma: (1 2 3 4)\nalpha: (1 3)(2 4)\n"
    r = run_cli(["circuit-partition", "--json"], torus)
    assert r.returncode == 0
    assert json.loads(r.stdout)["method"] == "states"


def test_wet_dry():
    r = run_cli(["wet-dry"], RUNNING)
    assert r.returncode == 0
    assert r.stdout.strip() == "u^3 + u^2*v + 4*u^2 + u*v + 3*u"


def test_charpoly_and_flowpoly():
    four = "sigma: (1)(2)(3)(4)\nalpha: (1 2 3 4)\nn: 4\n"
    r = run_cli(["charpoly"], four)
    assert r.stdout.strip() == "t^3 - 6*t^2 + 10*t - 5"
    r = run_cli(["flowpoly"], four)
    assert r.returncode == 0


def test_flows_counts():
    doc = "sigma: (1 5)(2 6)(3 7)(4 8)\nalpha: (1 2 3 4)(5 6)(7 8)\n"
    r = run_cli(["flows", "--q=3"], doc)
    assert r.stdout.strip() == "9"
    r = run_cli(["flows", "--q=3", "--json"], doc)
    payload = json.loads(r.stdout)
    assert payload["result"] == {"count": 9, "dimension": 2, "q": 3}


def test_flows_modulus_checks():
    doc = "sigma: (1 2)\nalpha: (1 2)\n"
    r = run_cli(["flows", f"--q={10 ** 400}"], doc)
    assert r.returncode == 2
    assert r.stderr.startswith("error:") and r.stderr.count("\n") == 1
    assert "Traceback" not in r.stderr
    r = run_cli(["flows", f"--q={10 ** 18 + 3}"], doc, timeout=30)
    assert r.returncode == 0
    assert r.stdout.strip() == str(10 ** 18 + 3)
    for q in ("4", "1", "0", "-7", str(4294967291 * 4294967279)):
        r = run_cli(["flows", f"--q={q}"], doc)
        assert r.returncode == 2, q
        assert r.stderr.startswith("error: q must be prime"), q


def test_colorings():
    r = run_cli(["colorings", "--m=2"], RUNNING)
    assert r.stdout.strip() == "0"
    r = run_cli(["colorings", "--m=2", "--eulerian"], RUNNING)
    assert r.stdout.strip() == "42"
    for argv in (["colorings", "--m=0"], ["colorings", "--eulerian", "--m=0"]):
        r = run_cli(argv, RUNNING)
        assert r.returncode == 0, argv
        assert r.stdout.strip() == "0", argv
    for argv in (["colorings", "--m=-1"], ["colorings", "--eulerian", "--m=-2"]):
        r = run_cli(argv, RUNNING)
        assert r.returncode == 2, argv
        assert r.stdout == "", argv
        assert r.stderr.startswith("error:") and r.stderr.count("\n") == 1, argv
        assert "--m" in r.stderr, argv


def test_eulerian_coloring_sum_of_a_ten_cycle(monkeypatch, capsys):
    # identity sigma on alpha = (1 ... 10): 2^10 colorings, each of which
    # the definitional sum pairs with all 16,796 matchings of one vertex
    doc = "sigma: (1)\nalpha: (" + " ".join(map(str, range(1, 11))) + ")\n"
    h = cli.load_document(doc, "<stdin>").hypermap
    want = 2 ** h.kappa * whitney_phi(h).polynomial.evaluate(2, 2)
    argv = ["colorings", "--eulerian", "--m=2"]
    assert run_in_process(argv, doc, monkeypatch, capsys) == (0, f"{want}\n", "")


def refused_without_listing(doc, monkeypatch, capsys):
    # a 14-cycle has Cat(14) = 2,674,440 states; the refusal counts them
    # from Catalan numbers, without listing a refinement or running the DP
    def refuse(*args, **kwargs):
        raise AssertionError("states listed")

    monkeypatch.setattr(nclattice, "refinements", refuse)
    monkeypatch.setattr(medial, "refinement_profile", refuse)
    rc, out, err = run_in_process(["circuit-partition"], doc, monkeypatch, capsys)
    assert (rc, out) == (2, "")
    assert err == "error: 2674440 matchings exceed the cap of 1000000\n"


FOURTEEN_CYCLE = "alpha: (" + " ".join(map(str, range(1, 15))) + ")\n"


def test_positive_genus_state_cap_lists_no_matching(monkeypatch, capsys):
    doc = "sigma: (1 3)(2 4)\n" + FOURTEEN_CYCLE
    assert cli.load_document(doc, "<stdin>").hypermap.genus > 0
    refused_without_listing(doc, monkeypatch, capsys)


def test_genus_zero_state_cap_lists_no_refinement(monkeypatch, capsys):
    # nested pairs (1 14)(2 13)...(7 8) keep the DP from collapsing states
    doc = "sigma: " + "".join(f"({i} {15 - i})" for i in range(1, 8)) + "\n"
    doc += FOURTEEN_CYCLE
    assert cli.load_document(doc, "<stdin>").hypermap.genus == 0
    refused_without_listing(doc, monkeypatch, capsys)


def test_from_digraph():
    r = run_cli(["from-digraph"], "1 2\n2 1\n")
    assert r.returncode == 0
    assert "sigma:" in r.stdout and "alpha:" in r.stdout


def test_from_digraph_rejects_unbalanced():
    r = run_cli(["from-digraph"], "1 2\n")
    assert r.returncode == 2
    assert r.stderr.startswith("error:")


def test_selftest_passes():
    r = run_cli(["selftest", "--n-max=4", "--seed=0"])
    assert r.returncode == 0
    assert "30/30 checks passed" in r.stdout


def test_selftest_n_max_bounds(monkeypatch, capsys):
    # refused before any check runs, with one line naming the flag; past
    # 10 the run time about triples per step
    def refuse(*args, **kwargs):
        raise AssertionError("selftest ran")

    monkeypatch.setattr("hypermaps.selftest.run_selftest", refuse)
    for n in (0, -3, 11):
        argv = ["selftest", f"--n-max={n}"]
        err = f"error: --n-max must be between 1 and 10, got {n}\n"
        assert run_in_process(argv, "", monkeypatch, capsys) == (2, "", err)


def test_negative_caps_are_refused(monkeypatch, capsys):
    # refused before any input is read, with one line naming the flag, even
    # when --no-size-guard would ignore the cap
    def refuse(*args, **kwargs):
        raise AssertionError("input read")

    monkeypatch.setattr(cli, "_read_input", refuse)
    for argv, flag, cap in (
        (["whitney", "--max-refinements=-1"], "--max-refinements", -1),
        (["whitney", "--no-size-guard", "--max-refinements=-2"],
         "--max-refinements", -2),
        (["circuit-partition", "--max-refinements=-5"], "--max-refinements", -5),
    ):
        err = f"error: {flag} must be nonnegative, got {cap}\n"
        assert run_in_process(argv, "", monkeypatch, capsys) == (2, "", err)
    monkeypatch.undo()
    # a cap of 0 is a cap
    err = ("error: 10 refinements exceed the cap of 0"
           " (raise with --max-refinements or --no-size-guard)\n")
    argv = ["whitney", "--max-refinements=0"]
    assert run_in_process(argv, RUNNING, monkeypatch, capsys) == (2, "", err)


def test_determinism_byte_identical():
    for args in (
        ["whitney", "--method=all"],
        ["whitney", "--json"],
        ["medial"],
        ["charpoly"],
    ):
        a = run_cli(args, RUNNING)
        b = run_cli(args, RUNNING)
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode == 0


def test_answers_do_not_depend_on_assert():
    for args in (
        ["whitney", "--method=dp"],
        ["wet-dry"],
        ["circuit-partition"],
        ["colorings", "--eulerian", "--m=2"],
        ["charpoly"],
        ["flowpoly"],
        ["medial"],
        ["flows", "--q=3", "--nowhere-zero"],
    ):
        normal = run_cli(args, RUNNING)
        optimized = run_cli(args, RUNNING, python_flags=["-O"])
        assert normal.returncode == optimized.returncode == 0, args
        assert optimized.stdout == normal.stdout, args
    torus = "sigma: (1 2 3 4)\nalpha: (1 3)(2 4)\n"
    normal = run_cli(["circuit-partition"], torus)
    optimized = run_cli(["circuit-partition"], torus, python_flags=["-O"])
    assert normal.returncode == optimized.returncode == 0
    assert optimized.stdout == normal.stdout


def test_selftest_reports_failures_under_optimize():
    script = (
        "from hypermaps import selftest\n"
        "from hypermaps.poly import BiPoly\n"
        "real = selftest.whitney_psi\n"
        "def broken(h):\n"
        "    result = real(h)\n"
        "    result.polynomial = result.polynomial + BiPoly.const(1)\n"
        "    return result\n"
        "selftest.whitney_psi = broken\n"
        "print([r.name for r in selftest.run_selftest(4, 0) if not r.ok])\n"
    )
    r = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True,
        timeout=300,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "['whitney-three-routes']"


def test_main_in_process_matches_a_fresh_process(monkeypatch, capsys):
    doc = "sigma: (1 5)(2 6)(3 7)(4 8)\nalpha: (1 2 3 4)(5 6)(7 8)\n"
    calls = [
        (["whitney", "--json"], RUNNING),
        (["genus"], RUNNING),
        (["whitney", "--method=magic"], RUNNING),
        (["flows", "--q=3", "--json"], doc),
        (["circuit-partition"], RUNNING),
        (["charpoly"], RUNNING),
    ]
    for argv, text in calls:
        rc, out, err = run_in_process(argv, text, monkeypatch, capsys)
        fresh = run_cli(argv, text)
        assert (rc, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def test_importing_the_cli_loads_no_argparse():
    r = subprocess.run(
        [sys.executable, "-c", "import sys, hypermaps.cli\n"
         "print(sorted({'argparse', 'gettext'} & set(sys.modules)))"],
        capture_output=True, text=True, timeout=300,
    )
    assert (r.returncode, r.stdout, r.stderr) == (0, "[]\n", "")


# Each line reads as its last entry does: prefixes, "--flag value", a
# repeated flag whose last value wins, the input anywhere, "--".
@pytest.mark.parametrize(
    "argv",
    [
        ["whitney", "--meth=phi", "--jso"],
        ["whitney", "--method", "phi", "--json"],
        ["whitney", "--method=brute", "--json", "--method=phi"],
        ["whitney", "-", "--json", "--method=phi"],
        ["whitney", "--json", "--method=phi", "--", "-"],
        ["whitney", "--method=phi", "--json"],
    ],
)
def test_flag_forms_read_alike(argv, monkeypatch, capsys):
    expected = run_in_process(
        ["whitney", "--method=phi", "--json"], RUNNING, monkeypatch, capsys
    )
    assert run_in_process(argv, RUNNING, monkeypatch, capsys) == expected
    assert expected[0] == 0


def test_an_exact_flag_wins_over_a_longer_one(monkeypatch, capsys):
    assert cli._match("--m", ("--max", "--m", "--method")) == "--m"
    assert cli._match("--ma", ("--max", "--m", "--method")) == "--max"
    with pytest.raises(cli.InputError, match="ambiguous flag '--me'"):
        cli._match("--me", ("--method", "--meta"))
    two = run_in_process(["colorings", "--m=2"], RUNNING, monkeypatch, capsys)
    assert run_in_process(["colorings", "--m", "2"], RUNNING, monkeypatch, capsys) == two
    # a negative number is a value, not a flag
    assert run_in_process(["colorings", "--m", "-1"], RUNNING, monkeypatch, capsys) == (
        2, "", "error: --m must be nonnegative, got -1\n")


@pytest.mark.parametrize(
    "argv, error",
    [
        ([], "missing command: one of whitney, genus,"),
        (["magic"], "unknown command 'magic': one of whitney,"),
        (["--bogus"], "unknown flag '--bogus'"),
        (["whitney", "--bogus"], "unknown flag '--bogus'"),
        (["whitney", "-x"], "unknown flag '-x'"),
        (["whitney", "--m=dp"], "ambiguous flag '--m': --max-refinements, --method"),
        (["whitney", "--method"], "--method needs a value"),
        (["whitney", "--method", "--json"], "--method needs a value"),
        (["whitney", "--method=magic"],
         "--method must be one of brute, phi, psi, dp, all, got 'magic'"),
        (["whitney", "--max-refinements=ten"], "--max-refinements: value 'ten' is not"),
        (["colorings", "--m=" + "9" * 4301], "--m: value has more than 4300 digits"),
        (["flows"], "flows needs --q"),
        (["colorings", "--json=yes", "--m=2"], "--json takes no value, got 'yes'"),
        (["genus", "a", "b"], "unexpected argument 'b'"),
        (["selftest", "x"], "unexpected argument 'x'"),
        (["whitney", "--bad\nflag"], "unknown flag '--bad\\nflag'"),
    ],
)
def test_bad_command_lines_exit_2_with_one_line(argv, error, monkeypatch, capsys):
    rc, out, err = run_in_process(argv, RUNNING, monkeypatch, capsys)
    assert (rc, out) == (2, "")
    assert err.startswith("error: " + error) and err.count("\n") == 1, err


def test_help_lists_the_table(monkeypatch, capsys):
    rc, out, err = run_in_process(["--help"], "", monkeypatch, capsys)
    assert (rc, err) == (0, "")
    assert all(f"  {name} " in out for name in cli.COMMANDS)
    for argv in (["whitney", "-h"], ["whitney", "--he"], ["whitney", "--json", "--help"]):
        rc, out, err = run_in_process(argv, "", monkeypatch, capsys)
        assert (rc, err) == (0, "")
        assert out.startswith("usage: hypermap whitney [INPUT] [FLAGS]\n")
        assert "--method={brute,phi,psi,dp,all}" in out and "(default dp)" in out
    rc, out, _ = run_in_process(["flows", "-h"], "", monkeypatch, capsys)
    assert "--q=N" in out and "(required)" in out


def test_malformed_inputs_diagnose_cleanly():
    cases = [
        "sigma: (1 4\nalpha: (1 2)\n",          # unterminated cycle
        "sigma: (1 1)\nalpha: (1)\n",            # duplicate point
        "alpha: (1 2)\n",                        # missing sigma
        "sigma: (1 2)\nalpha: (1 2)\nwhat\n",    # junk line
        "sigma: (1 2)\nalpha: (1 3)\nn: 2\n",    # out of range
        '{"sigma": [[1, 2]]}',                   # missing alpha key
        '{"sigma": [[1, 2]], "alpha": "x"}',     # wrong type
        '{"sigma": [], "alpha": [[]]}',          # empty cycle
        '{"sigma": ' + "[" * 10 ** 5 + "]" * 10 ** 5 + "}",  # nested too deeply
        "{not json",                             # invalid json
    ]
    for doc in cases:
        r = run_cli(["genus"], doc)
        assert r.returncode == 2, doc
        assert r.stderr.startswith("error:"), doc
        assert "Traceback" not in r.stderr, doc


# Values from a JSON document are shown as JSON, as the user wrote them; a
# point of cycle text is an int, which JSON shows alike.
@pytest.mark.parametrize(
    "stdin, error",
    [
        ('{"sigma": [[true, 2]], "alpha": [[1, 2]]}', "<stdin>: bad point true"),
        ('{"sigma": [[1, null]], "alpha": []}', "<stdin>: bad point null"),
        ('{"sigma": [], "alpha": [["1"]]}', '<stdin>: bad point "1"'),
        ('{"sigma": [[2.5]], "alpha": []}', "<stdin>: bad point 2.5"),
        ('{"sigma": [[[1]]], "alpha": []}', "<stdin>: bad point [1]"),
        ("sigma: (0 1)\nalpha: (1)\n", "<stdin>:1: bad point 0"),
        ('{"sigma": [], "alpha": [], "b": 1, "a": 2}', '<stdin>: unknown keys ["a", "b"]'),
        ('{"sigma": []}', '<stdin>: missing key "alpha"'),
    ],
    ids=["true", "null", "string", "float", "list", "text-zero", "unknown-keys",
         "missing-key"],
)
def test_json_input_errors_show_json(stdin, error, monkeypatch, capsys):
    rc, out, err = run_in_process(["genus"], stdin, monkeypatch, capsys)
    assert (rc, out, err) == (2, "", f"error: {error}\n")


# Input that opens with "[" can only be JSON, whose top level must be an object.
@pytest.mark.parametrize(
    "stdin, error",
    [
        ("[]", "<stdin>: top level must be an object"),
        ('\n  [{"sigma": [], "alpha": []}]', "<stdin>: top level must be an object"),
        ("[1,", "<stdin>: invalid JSON: Expecting value: line 1 column 4 (char 3)"),
    ],
    ids=["empty-list", "list-of-documents", "truncated"],
)
def test_documents_opening_with_a_bracket_read_as_json(
    stdin, error, monkeypatch, capsys
):
    rc, out, err = run_in_process(["genus"], stdin, monkeypatch, capsys)
    assert (rc, out, err) == (2, "", f"error: {error}\n")


def test_empty_collection_reads_back_what_it_prints(monkeypatch, capsys):
    # n = 0 prints each permutation as "()", which reads back as no cycles;
    # an empty cycle next to others, or with a space inside, is still refused
    empty = '{"n": 0, "sigma": [], "alpha": []}'
    printed = "sigma: ()\nalpha: ()\n"
    assert run_in_process(["dual"], empty, monkeypatch, capsys) == (0, printed, "")
    assert run_in_process(["genus"], printed, monkeypatch, capsys) == (0, "0\n", "")
    for doc, col in (
        ("sigma: (1 2)()\nalpha: (1 2)\n", 14),
        ("sigma: ()()\nalpha: ()\n", 9),
        ("sigma: ( )\nalpha: ()\n", 10),
    ):
        err = f"error: <stdin>:1:{col}: empty cycle\n"
        assert run_in_process(["genus"], doc, monkeypatch, capsys) == (2, "", err)


ALPHA_LINE = "alpha: (1 2 3)\n"


# Points, n and digraph vertices are ASCII digits only: str.isdigit and int()
# also take superscripts, other scripts' digits, underscores and signs.
@pytest.mark.parametrize(
    "argv, stdin, error",
    [
        (["genus"], "sigma: (1 ²)\n" + ALPHA_LINE,
         "<stdin>:1:11: unexpected character '²'"),
        (["genus"], "sigma: (1 ٣)\n" + ALPHA_LINE,
         "<stdin>:1:11: unexpected character '٣'"),
        (["genus"], "n: 1_0\nsigma: (1 2)\n" + ALPHA_LINE,
         "<stdin>:1: n must be a nonnegative integer"),
        (["genus"], "sigma: (1 2)\n" + ALPHA_LINE + "n: +5\n",
         "<stdin>:3: n must be a nonnegative integer"),
        (["from-digraph"], "1 2\n1 ٣\n", "<stdin>:2: vertices must be integers"),
        (["from-digraph"], "1_0 2\n", "<stdin>:1: vertices must be integers"),
        (["from-digraph"], "+1 2\n", "<stdin>:1: vertices must be integers"),
    ],
    ids=["superscript-point", "arabic-indic-point", "n-underscore", "n-plus",
         "arabic-indic-vertex", "vertex-underscore", "vertex-plus"],
)
def test_only_ascii_digits_are_numbers(argv, stdin, error):
    r = run_cli(argv, stdin)
    assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: {error}\n")


LONG = "9" * 5000  # past the 4,300 digits that int(str) takes by default


# Integers are refused by their length before int() is called, so the
# message does not depend on the interpreter's own limit.
@pytest.mark.parametrize(
    "argv, stdin, error",
    [
        (["genus"], f"sigma: (1 {LONG})\n" + ALPHA_LINE,
         "<stdin>:1:11: point has more than 4300 digits"),
        (["genus"], f"sigma: (1 2)\n{ALPHA_LINE}n: {LONG}\n",
         "<stdin>:3: n has more than 4300 digits"),
        (["from-digraph"], f"1 2\n2 -{LONG}\n",
         "<stdin>:2: vertex has more than 4300 digits"),
        (["genus"], f'{{"sigma": [[1, 2]],\n "alpha": [[1, 2]],\n "n": {LONG}}}',
         "<stdin>:3: integer has more than 4300 digits"),
        # the same digits in a string or in a float before it are not the integer
        (["genus"], f'{{"name": "{LONG}",\n "sigma": [[1, 2]], "alpha": [[1, 2]],\n'
                    f' "n": {LONG}}}',
         "<stdin>:3: integer has more than 4300 digits"),
        (["genus"], f'{{"sigma": [[{LONG}.5, -{LONG}e1]],\n "alpha": [[1, 2]],\n'
                    f' "n": -{LONG}}}',
         "<stdin>:3: integer has more than 4300 digits"),
    ],
    ids=["cycle-point", "n", "digraph-vertex", "json-n", "json-n-after-name",
         "json-n-after-floats"],
)
def test_long_integers_refused_by_length(argv, stdin, error):
    r = run_cli(argv, stdin)
    assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: {error}\n")


def test_longest_accepted_integer_round_trips():
    label = "9" * 4300
    r = run_cli(["dual"], f"sigma: (1 {label})\nalpha: (1 {label})\n")
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout == f"sigma: (1)({label})\nalpha: (1 {label})\n"


# Every integer passes the length check, so many accepted long ones must stay cheap.
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_many_long_integers_parse_quickly(fmt):
    labels = [str(10 ** 4299 + k) for k in range(40)]
    pairs = [labels[i:i + 2] for i in range(0, 40, 2)]
    if fmt == "json":
        text = '{"name": "%s", "sigma": %s, "alpha": [[%s]]}' % (
            labels[0], str(pairs).replace("'", ""), ", ".join(labels))
    else:
        text = ("sigma: " + "".join(f"({a} {b})" for a, b in pairs)
                + "\nalpha: (" + " ".join(labels) + ")\n")
    start = time.perf_counter()
    doc = cli.load_document(text)
    assert time.perf_counter() - start < 1.0
    assert doc.labels == tuple(int(x) for x in labels)
    assert doc.hypermap.n == 40


def imported_modules(args, stdin=""):
    """Modules a fresh ``python <args>`` process imports, read off -X importtime."""
    r = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        input=stdin, capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    return set(re.findall(r"^import time:\s+\d+ \|\s+\d+ \| *(\S+)$", r.stderr, re.M))


def test_cold_subcommands_import_only_what_they_run():
    # against a bare interpreter: site may load modules of its own
    bare = imported_modules(["-c", "pass"])
    heavy = {"hypermaps.selftest", "hypermaps.oracles", "hypermaps.medial",
             "dataclasses", "json", "fractions", "decimal"}
    optional = {"hypermaps.charflow", "hypermaps.medial", "hypermaps.oracles",
                "hypermaps.selftest", "fractions", "decimal"}
    for commands, runs, unwanted in ((("charpoly", "flowpoly"), "charflow", heavy),
                                     (("whitney", "genus", "wet-dry"), "whitney", optional)):
        for command in commands:
            added = imported_modules(["-m", "hypermaps", command], RUNNING) - bare
            assert f"hypermaps.{runs}" in added, command
            assert not added & unwanted, (command, sorted(added & unwanted))


# n is refused before tuple(range(1, n + 1)) could overflow or allocate.
@pytest.mark.parametrize(
    "stdin, error",
    [
        ("sigma: (1 2)\n" + ALPHA_LINE + "n: 99999999999999999999\n",
         "<stdin>:3: n must be at most 1000000"),
        ('{"sigma": [[1, 2]],\n "name": "n",\n "alpha": [[1, 2, 3]],\n'
         ' "n": 1000000000}', "<stdin>:4: n must be at most 1000000"),
    ],
    ids=["text", "json"],
)
def test_n_above_max_points_refused(stdin, error, monkeypatch, capsys):
    assert cli.MAX_POINTS == 10 ** 6
    rc, out, err = run_in_process(["genus"], stdin, monkeypatch, capsys)
    assert (rc, out, err) == (2, "", f"error: {error}\n")


# Without n the distinct points set the table size; six exceed a cap of five.
@pytest.mark.parametrize(
    "document",
    ["sigma: (10 20)\nalpha: (30 40 50 60)\n",
     '{"sigma": [[10, 20]], "alpha": [[30, 40, 50, 60]]}'],
    ids=["text", "json"],
)
def test_distinct_points_above_max_points_refused(
    document, tmp_path, monkeypatch, capsys
):
    path = tmp_path / "many.txt"
    path.write_text(document)
    monkeypatch.setattr(cli, "MAX_POINTS", 6)
    rc, out, err = run_in_process(["genus", str(path)], "", monkeypatch, capsys)
    assert (rc, out, err) == (0, "0\n", "")

    def no_tables(*args):
        raise AssertionError("a point table was built")

    monkeypatch.setattr(cli, "MAX_POINTS", 5)
    monkeypatch.setattr(cli.Permutation, "from_cycles", no_tables)
    rc, out, err = run_in_process(["genus", str(path)], "", monkeypatch, capsys)
    assert (rc, out, err) == (2, "", f"error: {path}: 6 distinct points, more than 5\n")


def test_flows_run_no_elimination(monkeypatch, capsys):
    # the dimension is n + kappa - z(sigma) - z(alpha), and the nowhere-zero
    # count one flow polynomial value, so neither mode lists or eliminates
    from hypermaps import charflow

    def refuse(*args):
        raise AssertionError("flow_space called")

    monkeypatch.setattr(charflow, "flow_space", refuse)
    doc = "sigma: (1 5)(2 6)(3 7)(4 8)\nalpha: (1 2 3 4)(5 6)(7 8)\n"
    for argv, count in ((["flows", "--q=3", "--json"], 9),
                        (["flows", "--q=3", "--nowhere-zero", "--json"], 4)):
        rc, out, err = run_in_process(argv, doc, monkeypatch, capsys)
        assert (rc, err) == (0, "")
        assert json.loads(out)["result"] == {"count": count, "dimension": 2, "q": 3}
    help_text = run_cli(["flows", "--help"]).stdout
    assert "--max-vectors" not in help_text and "--no-size-guard" not in help_text


def test_flows_answer_without_enumeration():
    # a ring of 10,000 two-point vertices and hyperedges: 20,000 points, dimension 1
    n = 20000
    ring = ("sigma: " + "".join(f"({2 * i - 1} {2 * i})" for i in range(1, n // 2 + 1))
            + "\nalpha: " + "".join(f"({2 * i} {2 * i + 1})" for i in range(1, n // 2))
            + f"({n} 1)\n")
    start = time.perf_counter()
    r = run_cli(["flows", "--q=3"], ring)
    assert (r.returncode, r.stdout, r.stderr) == (0, "3\n", "")
    assert time.perf_counter() - start < 5
    # two vertices joined by 15 edges: dimension 14, so 3^14 vectors; the
    # nowhere-zero ones are the 15 nonzero values summing to 0, (2^15 - 2) / 3
    k = 15
    banana = ("sigma: (" + " ".join(str(2 * e + 1) for e in range(k)) + ")("
              + " ".join(str(2 * e + 2) for e in range(k)) + ")\nalpha: "
              + "".join(f"({2 * e + 1} {2 * e + 2})" for e in range(k)) + "\n")
    r = run_cli(["flows", "--q=3", "--nowhere-zero", "--json"], banana)
    assert (r.returncode, r.stderr) == (0, "")
    assert json.loads(r.stdout)["result"] == {"count": 10922, "dimension": 14, "q": 3}


def render_document(h, label, as_json):
    """h as cycle text or JSON, point p written as label[p]."""
    cycles = {key: [[label[p] for p in c] for c in perm.cycles()]
              for key, perm in (("sigma", h.sigma), ("alpha", h.alpha))}
    if as_json:
        return json.dumps(cycles)
    return "".join(
        f"{key}: " + "".join("(" + " ".join(map(str, c)) + ")" for c in cyc) + "\n"
        for key, cyc in cycles.items()
    )


def test_default_whitney_matches_check_routes(monkeypatch, capsys):
    rng = random.Random(1313)
    seen = set()
    for i in range(48):
        h = random_collection(rng, n_max=7, max_cycle=4)
        if i % 3 == 0:  # disjoint union with a second collection
            h = h.disjoint_union(random_collection(rng, n_max=4, max_cycle=3))
        gaps = [rng.randint(1, 3) if i % 2 else 1 for _ in range(h.n)]
        label = {p: sum(gaps[:p]) for p in range(1, h.n + 1)}
        doc = render_document(h, label, as_json=i % 4 < 2)
        seen |= {("disconnected", h.kappa > 1), ("positive genus", h.genus > 0),
                 ("json", doc.startswith("{")),
                 ("non-compact", label[h.n] != h.n)}
        rc, default, err = run_in_process(["whitney"], doc, monkeypatch, capsys)
        assert (rc, err) == (0, "")
        for method in ("phi", "psi", "brute"):
            argv = ["whitney", f"--method={method}"]
            assert run_in_process(argv, doc, monkeypatch, capsys) == (0, default, ""), (
                doc, method)
    assert {name for name, hit in seen if hit} == {
        "disconnected", "positive genus", "json", "non-compact"}


def test_colorings_on_many_vertices_need_no_recursion():
    # more vertices than the recursion limit main sets: 20,000 buds, and a
    # path on 15,001 vertices {1}, {2, 3}, ..., {30000} joined by (2i-1 2i)
    buds = "n: 20000\nsigma: (1)\nalpha: (1)\n"
    k = 15000
    path = ("sigma: " + "".join(f"({2 * i} {2 * i + 1})" for i in range(1, k))
            + "\nalpha: " + "".join(f"({2 * i - 1} {2 * i})" for i in range(1, k + 1))
            + "\n")
    for m, doc, count in ((1, buds, "1"), (2, path, "2")):
        r = run_cli(["colorings", f"--m={m}"], doc)
        assert (r.returncode, r.stdout, r.stderr) == (0, count + "\n", ""), m


def test_colorings_of_a_long_path_are_not_listed():
    # 200 vertices {1}, {2, 3}, ..., {398, 399}, {400}: 3 * 2^199 colorings
    k = 199
    path = ("sigma: " + "".join(f"({2 * i} {2 * i + 1})" for i in range(1, k))
            + "\nalpha: " + "".join(f"({2 * i - 1} {2 * i})" for i in range(1, k + 1))
            + "\n")
    start = time.perf_counter()
    r = run_cli(["colorings", "--m=3"], path)
    assert (r.returncode, r.stdout, r.stderr) == (0, f"{3 * 2 ** 199}\n", "")
    assert time.perf_counter() - start < 1.0


def test_colorings_of_many_buds_factor_by_component():
    # 20 isolated vertices: 3^20, one factor of 3 each, not 3^19 steps
    r = run_cli(["colorings", "--m=3"], "n: 20\nsigma: (1)\nalpha: (1)\n", timeout=60)
    assert (r.returncode, r.stdout, r.stderr) == (0, "3486784401\n", "")


def test_counts_past_4300_digits_print():
    # 10,000 buds: 3^10000, past the int-to-str limit of Python 3.11+
    r = run_cli(["colorings", "--m=3"], "n: 10000\nsigma: (1)\nalpha: (1)\n",
                timeout=60)
    assert (r.returncode, r.stderr) == (0, "")
    digits = r.stdout.strip()
    assert len(digits) == 4772
    assert int(digits[-30:]) == 3 ** 10000 % 10 ** 30


def test_huge_counts_are_named_by_length_in_refusals():
    # a path of 15,000 edges has 2^15000 refinements, a 4,516-digit count
    edges = 15000
    text = ("sigma: (1)" + "".join(f"({2 * i} {2 * i + 1})" for i in range(1, edges))
            + f"({2 * edges})\nalpha: "
            + "".join(f"({2 * i + 1} {2 * i + 2})" for i in range(edges)) + "\n")
    for command, things in (("whitney", "refinements"), ("circuit-partition", "matchings")):
        r = run_cli([command], text)
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr.startswith(
            f"error: a 4,516-digit count of {things} exceeds the cap of 1000000"
        ), r.stderr
        assert r.stderr.count("\n") == 1


def test_negative_digraph_vertices_still_parse():
    r = run_cli(["from-digraph"], "-1 2\n2 -1\n")
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("sigma:")


def test_unknown_method_is_a_usage_error():
    r = run_cli(["whitney", "--method=magic"], RUNNING)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == (
        "error: --method must be one of brute, phi, psi, dp, all, got 'magic'\n"
    )


def test_size_guard_reports_cleanly():
    r = run_cli(["whitney", "--max-refinements=2"], RUNNING)
    assert r.returncode == 2
    assert r.stderr.startswith("error:")
    r = run_cli(["whitney", "--max-refinements=2", "--no-size-guard"], RUNNING)
    assert r.returncode == 0


def test_version_flag():
    r = run_cli(["--version"])
    assert r.returncode == 0
    assert r.stdout.strip()


def run_in_process(argv, stdin, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def json_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# (argv, stdin, plain text, --json result, --json method, --json stats)
PINNED = [
    (["whitney"], RUNNING, R_TEXT, R_TEXT, "dp",
     {"memo_hits": 0, "nodes": 9, "terms": 5}),
    (["whitney", "--method=brute"], RUNNING, R_TEXT, R_TEXT, "brute",
     {"memo_hits": 0, "nodes": 10, "terms": 5}),
    (["whitney", "--method=psi"], RUNNING, R_TEXT, R_TEXT, "psi",
     {"memo_hits": 5, "nodes": 10, "terms": 5}),
    (["whitney", "--method=dp"], RUNNING, R_TEXT, R_TEXT, "dp",
     {"memo_hits": 0, "nodes": 9, "terms": 5}),
    (["whitney", "--method=all"], RUNNING, "\n".join([R_TEXT] * 4),
     {"brute": R_TEXT, "phi": R_TEXT, "psi": R_TEXT, "dp": R_TEXT}, "all",
     {"brute": {"memo_hits": 0, "nodes": 10}, "phi": {"memo_hits": 5, "nodes": 10},
      "psi": {"memo_hits": 5, "nodes": 10}, "dp": {"memo_hits": 0, "nodes": 9}}),
    (["whitney", "--check"], RUNNING, R_TEXT, R_TEXT, "dp",
     {"memo_hits": 0, "nodes": 9, "terms": 5}),
    (["genus"], RUNNING, "0", {"genus": 0, "kappa": 1}, "euler", {}),
    (["dual"], RUNNING, "sigma: (1 5)(2 4 3)\nalpha: (1 3 2)(4 5)",
     {"sigma": [[1, 5], [2, 4, 3]], "alpha": [[1, 3, 2], [4, 5]]}, "dual", {}),
    (["medial"], RUNNING,
     "sigma': (1- 1+ 2- 2+ 3- 3+)(4- 4+ 5- 5+)\n"
     "alpha': (1- 4+)(1+ 4-)(2- 5+)(2+ 5-)(3- 3+)",
     {"sigma_prime": [["1-", "1+", "2-", "2+", "3-", "3+"], ["4-", "4+", "5-", "5+"]],
      "alpha_prime": [["1-", "4+"], ["1+", "4-"], ["2-", "5+"], ["2+", "5-"],
                      ["3-", "3+"]],
      "genus": 0}, "medial", {}),
    (["circuit-partition"], RUNNING, "2*x^3 + 5*x^2 + 3*x", "2*x^3 + 5*x^2 + 3*x",
     "dp", {}),
    (["wet-dry"], RUNNING, "u^3 + u^2*v + 4*u^2 + u*v + 3*u",
     "u^3 + u^2*v + 4*u^2 + u*v + 3*u", "dp", {}),
    (["charpoly"], RUNNING, "t^2 - 3*t + 2", "t^2 - 3*t + 2", "dp", {}),
    (["flowpoly"], RUNNING, "0", "0", "dp", {}),
    (["flows", "--q=3"], RUNNING, "3", {"count": 3, "dimension": 1, "q": 3},
     "euler", {}),
    (["flows", "--q=3", "--nowhere-zero"], RUNNING, "0",
     {"count": 0, "dimension": 1, "q": 3}, "dp", {}),
    (["colorings", "--m=2"], RUNNING, "0", {"count": 0, "m": 2}, "dp", {}),
    (["colorings", "--m=2", "--eulerian"], RUNNING, "42", {"count": 42, "m": 2},
     "dp", {}),
    (["from-digraph"], DIGRAPH, "sigma: (1 2)\nalpha: (1)(2)",
     {"n": 2, "sigma": [[1, 2]], "alpha": [[1], [2]]}, "greedy-interleave", {}),
]


@pytest.mark.parametrize(
    "argv, stdin, plain, result, method, stats",
    PINNED,
    ids=[" ".join(case[0]) for case in PINNED],
)
def test_pinned_outputs(argv, stdin, plain, result, method, stats, monkeypatch, capsys):
    assert run_in_process(argv, stdin, monkeypatch, capsys) == (0, plain + "\n", "")
    echo = {"edges": [[1, 2], [2, 1]]} if stdin == DIGRAPH else RUNNING_ECHO
    payload = {"input_echo": echo, "result": result, "method": method, "stats": stats}
    rc, out, err = run_in_process(argv + ["--json"], stdin, monkeypatch, capsys)
    assert (rc, out, err) == (0, json_text(payload), "")


SELFTEST_TEXT = """\
ok   genus-arithmetic (80 random collections)
ok   map-euler-genus (60 random maps)
ok   relabel-invariance (40 relabelings, dp and phi)
ok   refinement-catalan-counts (cycle lengths 1..8 against Catalan numbers)
ok   refinement-membership (264 candidate permutations, exhaustive)
ok   mobius-recursion (Catalans m<=7, recursion on 91 intervals, products x20)
ok   poly-print-parse (40 random polynomials, print/parse/print)
ok   poly-ring-axioms (30 random triples)
ok   whitney-three-routes (60 collections, brute == phi == psi)
ok   whitney-frontier-dp (60 collections and unions, dp == brute)
ok   whitney-multiplicative (25 disjoint unions and merges)
ok   planar-duality (40 genus zero duals)
ok   map-subset-expansion (40 maps against graph subset expansion)
ok   narayana-coefficients (identity sigma with full cycle, n = 2..7)
ok   specializations (40 collections: R(0,0), R(0,1), R(v^-1, v))
ok   wet-dry (30 genus zero instances, wet/dry == u^kappa R(u, v))
ok   medial-shape (40 collections, shape and genus preserved)
ok   matching-bijection (25 collections, matchings == refinements, circuit counts)
ok   circuit-partition-polynomial (25 genus zero instances, j(x) == x^kappa R(x, x))
ok   map-state-count (25 maps, 2^edges coherent states)
ok   eulerian-coloring-sum (10 genus zero instances, m = 1, 2, 3 against m^kappa R(m, m))
ok   chromatic-identities (25 collections, interval sums collapse)
ok   flow-identity (25 collections, flow sum collapses)
ok   flow-planar-identity (20 genus zero instances)
ok   flow-chi-duality (25 genus zero collections, C(h) == chi(dual h))
ok   map-charflow-oracles (30 maps against graph oracles and the R(-t, -1) route)
ok   small-edge-theorems (20 collections with hyperedges <= 3, m = q = 2, 3)
ok   flow-space-dimension (30 collections, q = 2, 3, 5)
ok   digraph-roundtrip (50 Eulerian digraphs, medial round-trip)
ok   valence-legality (10 instances, per-vertex valence vs global state)
selftest: 30/30 checks passed (seed=0, n-max=4)
"""


def test_pinned_selftest_outputs(monkeypatch, capsys):
    argv = ["selftest", "--n-max=4", "--seed=0"]
    assert run_in_process(argv, "", monkeypatch, capsys) == (0, SELFTEST_TEXT, "")
    checks = [line[5:-1].split(" (", 1) for line in SELFTEST_TEXT.splitlines()[:-1]]
    payload = {
        "input_echo": {"n_max": 4, "seed": 0},
        "result": [{"name": n, "ok": True, "detail": d} for n, d in checks],
        "method": "selftest",
        "stats": {"passed": 30, "failed": 0},
    }
    rc, out, err = run_in_process(argv + ["--json"], "", monkeypatch, capsys)
    assert (rc, out, err) == (0, json_text(payload), "")


def test_whitney_check_reports_disagreement(monkeypatch, capsys):
    real = cli.whitney

    def skewed(h, method="phi", **kwargs):
        result = real(h, method, **kwargs)
        if method == "psi":
            result.polynomial = result.polynomial + BiPoly.const(1)
        return result

    monkeypatch.setattr(cli, "whitney", skewed)
    expected = (
        f"brute: {R_TEXT}\ndp: {R_TEXT}\nphi: {R_TEXT}\n"
        "psi: u^2 + u*v + 4*u + v + 4\nerror: whitney methods disagree\n"
    )
    for argv in (["whitney", "--check"], ["whitney", "--method=psi", "--check"],
                 ["whitney", "--method=all", "--check", "--json"]):
        assert run_in_process(argv, RUNNING, monkeypatch, capsys) == (1, "", expected)
