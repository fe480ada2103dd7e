import json
import os
import random
import re
import subprocess
import sys
import time

import pytest

from builders import run_cli, run_in_process
from hypermaps import cli, medial, nclattice, selftest
from hypermaps.poly import BiPoly
from hypermaps.selftest import random_collection
from hypermaps.whitney import whitney_phi

RUNNING = "sigma: (1 4)(2 5)(3)\nalpha: (1 2 3)(4 5)\n"
RUNNING_ECHO = {"n": 5, "sigma": [[1, 4], [2, 5], [3]], "alpha": [[1, 2, 3], [4, 5]]}
R_TEXT = "u^2 + u*v + 4*u + v + 3"
DIGRAPH = "1 2\n2 1\n"


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


def test_medial_names_points_by_the_documents_labels(monkeypatch):
    # point 30 is alpha's fixed point; dual and medial both print labels
    doc = "sigma: (10 20)\nalpha: (20 30)\n"
    rc, out, err = run_in_process(["medial"], doc, monkeypatch)
    assert (rc, err) == (0, "")
    assert out == ("sigma': (10- 10+)(20- 20+ 30- 30+)\n"
                   "alpha': (10- 20+)(10+ 20-)(30- 30+)\n")
    rc, out, err = run_in_process(["medial", "--json"], doc, monkeypatch)
    assert json.loads(out)["result"] == {
        "sigma_prime": [["10-", "10+"], ["20-", "20+", "30-", "30+"]],
        "alpha_prime": [["10-", "20+"], ["10+", "20-"], ["30-", "30+"]],
        "genus": 0,
    }
    rc, out, err = run_in_process(["dual"], doc, monkeypatch)
    assert out == "sigma: (10 30 20)\nalpha: (10)(20 30)\n"


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


def test_eulerian_coloring_sum_of_a_ten_cycle(monkeypatch):
    # identity sigma on alpha = (1 ... 10): 2^10 colorings, each of which
    # the definitional sum pairs with all 16,796 matchings of one vertex
    doc = "sigma: (1)\nalpha: (" + " ".join(map(str, range(1, 11))) + ")\n"
    h = cli.load_document(doc, "<stdin>").hypermap
    want = 2 ** h.kappa * whitney_phi(h).polynomial.evaluate(2, 2)
    argv = ["colorings", "--eulerian", "--m=2"]
    assert run_in_process(argv, doc, monkeypatch) == (0, f"{want}\n", "")


def refused_without_listing(doc, monkeypatch):
    # a 14-cycle has Cat(14) = 2,674,440 states; the refusal counts them
    # from Catalan numbers, without listing a refinement or running the DP
    def refuse(*args, **kwargs):
        raise AssertionError("states listed")

    monkeypatch.setattr(nclattice, "refinements", refuse)
    monkeypatch.setattr(medial, "refinement_profile", refuse)
    rc, out, err = run_in_process(["circuit-partition"], doc, monkeypatch)
    assert (rc, out) == (2, "")
    assert err == ("error: 2674440 matchings exceed the cap of 1000000"
                   " (override with --no-size-guard)\n")


FOURTEEN_CYCLE = "alpha: (" + " ".join(map(str, range(1, 15))) + ")\n"


def test_positive_genus_state_cap_lists_no_matching(monkeypatch):
    doc = "sigma: (1 3)(2 4)\n" + FOURTEEN_CYCLE
    assert cli.load_document(doc, "<stdin>").hypermap.genus > 0
    refused_without_listing(doc, monkeypatch)


def test_genus_zero_state_cap_lists_no_refinement(monkeypatch):
    # nested pairs (1 14)(2 13)...(7 8) keep the DP from collapsing states
    doc = "sigma: " + "".join(f"({i} {15 - i})" for i in range(1, 8)) + "\n"
    doc += FOURTEEN_CYCLE
    assert cli.load_document(doc, "<stdin>").hypermap.genus == 0
    refused_without_listing(doc, monkeypatch)


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


def test_selftest_n_max_bounds(monkeypatch):
    # refused before any check runs, with one line naming the flag; past
    # 10 the run time about triples per step
    def refuse(*args, **kwargs):
        raise AssertionError("selftest ran")

    monkeypatch.setattr("hypermaps.selftest.run_selftest", refuse)
    for n in (0, -3, 11):
        argv = ["selftest", f"--n-max={n}"]
        err = f"error: --n-max must be between 1 and 10, got {n}\n"
        assert run_in_process(argv, "", monkeypatch) == (2, "", err)


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


def test_selftest_reports_a_raising_route_as_failed(monkeypatch):
    # a route's own checks (require_total, the recursion's parity and weight
    # checks) raise ValueError: each check that calls the route FAILs with
    # the message, the others still run, and the command exits 1
    def boom(h):
        raise ValueError("boom")

    monkeypatch.setattr(selftest, "whitney_dp", boom)
    results = selftest.run_selftest(n_max=3)
    assert [r.name for r in results] == [name for name, _ in selftest.CHECKS]
    failed = {r.name: r.detail for r in results if not r.ok}
    assert failed == {"relabel-invariance": "boom", "whitney-frontier-dp": "boom"}
    rc, out, err = run_in_process(["selftest", "--n-max=3"], "", monkeypatch)
    assert (rc, err) == (1, "")
    assert "\nFAIL whitney-frontier-dp (boom)\n" in out
    assert out.endswith("selftest: 28/30 checks passed (seed=0, n-max=3)\n")


def test_main_in_process_matches_a_fresh_process(monkeypatch):
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
        rc, out, err = run_in_process(argv, text, monkeypatch)
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
def test_flag_forms_read_alike(argv, monkeypatch):
    expected = run_in_process(
        ["whitney", "--method=phi", "--json"], RUNNING, monkeypatch
    )
    assert run_in_process(argv, RUNNING, monkeypatch) == expected
    assert expected[0] == 0


def test_an_exact_flag_wins_over_a_longer_one(monkeypatch):
    assert cli._match("--m", ("--max", "--m", "--method")) == "--m"
    assert cli._match("--ma", ("--max", "--m", "--method")) == "--max"
    with pytest.raises(cli.InputError, match="ambiguous flag '--me'"):
        cli._match("--me", ("--method", "--meta"))
    two = run_in_process(["colorings", "--m=2"], RUNNING, monkeypatch)
    assert run_in_process(["colorings", "--m", "2"], RUNNING, monkeypatch) == two
    # a negative number is a value, not a flag
    assert run_in_process(["colorings", "--m", "-1"], RUNNING, monkeypatch) == (
        2, "", "error: --m must be nonnegative, got -1\n")


@pytest.mark.parametrize(
    "argv, error",
    [
        ([], "missing command: one of whitney, genus,"),
        (["magic"], "unknown command 'magic': one of whitney,"),
        (["--bogus"], "unknown flag '--bogus'"),
        (["whitney", "--bogus"], "unknown flag '--bogus'"),
        (["whitney", "-x"], "unknown flag '-x'"),
        (["whitney", "--max-refinements=5"], "unknown flag '--max-refinements'"),
        (["whitney", "--method"], "--method needs a value"),
        (["whitney", "--method", "--json"], "--method needs a value"),
        (["whitney", "--method=magic"],
         "--method must be one of brute, phi, psi, dp, all, got 'magic'"),
        (["colorings", "--m=ten"], "--m: value 'ten' is not"),
        (["colorings", "--m=" + "9" * 4301], "--m: value has more than 4300 digits"),
        (["flows"], "flows needs --q"),
        (["colorings", "--json=yes", "--m=2"], "--json takes no value, got 'yes'"),
        (["genus", "a", "b"], "unexpected argument 'b'"),
        (["selftest", "x"], "unexpected argument 'x'"),
        (["whitney", "--bad\nflag"], "unknown flag '--bad\\nflag'"),
    ],
)
def test_bad_command_lines_exit_2_with_one_line(argv, error, monkeypatch):
    rc, out, err = run_in_process(argv, RUNNING, monkeypatch)
    assert (rc, out) == (2, "")
    assert err.startswith("error: " + error) and err.count("\n") == 1, err


def test_ambiguous_flag_prefix_exits_2_with_one_line(monkeypatch):
    # no command has two flags that one prefix names, so this row is built
    row = cli.Command("two flags that share a prefix", None,
                      (cli._integer("--max", "a bound", 1), cli._switch("--method", "")),
                      lambda args, _: pytest.fail("computed"))
    monkeypatch.setitem(cli.COMMANDS, "pair", row)
    assert vars(cli.parse_args(["pair", "--ma=2", "--me"])) == {
        "command": "pair", "max": 2, "method": True}
    err = "error: ambiguous flag '--m': --max, --method\n"
    assert run_in_process(["pair", "--m=2"], "", monkeypatch) == (2, "", err)


def test_help_lists_the_table(monkeypatch):
    rc, out, err = run_in_process(["--help"], "", monkeypatch)
    assert (rc, err) == (0, "")
    assert all(f"  {name} " in out for name in cli.COMMANDS)
    for argv in (["whitney", "-h"], ["whitney", "--he"], ["whitney", "--json", "--help"]):
        rc, out, err = run_in_process(argv, "", monkeypatch)
        assert (rc, err) == (0, "")
        assert out.startswith("usage: hypermap whitney [INPUT] [FLAGS]\n")
        assert "--method={brute,phi,psi,dp,all}" in out and "(default dp)" in out
    rc, out, _ = run_in_process(["flows", "-h"], "", monkeypatch)
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
def test_json_input_errors_show_json(stdin, error, monkeypatch):
    rc, out, err = run_in_process(["genus"], stdin, monkeypatch)
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
    stdin, error, monkeypatch
):
    rc, out, err = run_in_process(["genus"], stdin, monkeypatch)
    assert (rc, out, err) == (2, "", f"error: {error}\n")


# A byte-order mark that an editor puts first is dropped before the format
# is chosen, whether the document comes from a file or from stdin.
@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("document", [RUNNING, json.dumps(RUNNING_ECHO)],
                         ids=["text", "json"])
def test_a_leading_byte_order_mark_is_dropped(
    document, source, tmp_path, monkeypatch
):
    text, argv = "\ufeff" + document, ["dual"]
    if source == "file":
        path = tmp_path / "marked.txt"
        path.write_text(text, encoding="utf-8")
        text, argv = "", argv + [str(path)]
    assert run_in_process(argv, text, monkeypatch) == (
        0, "sigma: (1 5)(2 4 3)\nalpha: (1 3 2)(4 5)\n", "")


# An input that cannot be read names its file in one line.  Stdin is decoded
# from its bytes as strict UTF-8, as a file is, under any locale: the C
# locale's own decoding would pass the bad byte on as a character.
@pytest.mark.parametrize(
    "name, content, error",
    [
        ("missing.txt", None, "No such file or directory"),
        ("latin1.txt", b"\xff", "'utf-8' codec can't decode byte 0xff in position 0:"
                                " invalid start byte"),
        ("-", b"sigma: (1 2)\nalpha: (1 \xe9)\n", "'utf-8' codec can't decode"
                                                  " byte 0xe9 in position 23:"
                                                  " invalid continuation byte"),
    ],
    ids=["missing-file", "undecodable-file", "undecodable-stdin"],
)
def test_unreadable_inputs_are_named(name, content, error, tmp_path):
    path = name if name == "-" else str(tmp_path / name)
    if content is not None and name != "-":
        (tmp_path / name).write_bytes(content)
    r = subprocess.run([sys.executable, "-m", "hypermaps", "genus", path],
                       input=content if name == "-" else b"", capture_output=True,
                       env={**os.environ, "LC_ALL": "C"}, timeout=300)
    shown = "<stdin>" if name == "-" else path
    assert (r.returncode, r.stdout, r.stderr.decode()) == (
        2, b"", f"error: cannot read {shown!r}: {error}\n")


def test_empty_collection_reads_back_what_it_prints(monkeypatch):
    # n = 0 prints each permutation as "()", which reads back as no cycles;
    # an empty cycle next to others, or with a space inside, is still refused
    empty = '{"n": 0, "sigma": [], "alpha": []}'
    printed = "sigma: ()\nalpha: ()\n"
    assert run_in_process(["dual"], empty, monkeypatch) == (0, printed, "")
    assert run_in_process(["genus"], printed, monkeypatch) == (0, "0\n", "")
    signed = "sigma': ()\nalpha': ()\n"
    assert run_in_process(["medial"], printed, monkeypatch) == (0, signed, "")
    rc, out, err = run_in_process(["medial", "--json"], printed, monkeypatch)
    assert (rc, err) == (0, "")
    assert json.loads(out)["result"] == {
        "alpha_prime": [], "genus": 0, "sigma_prime": []}
    for doc, col in (
        ("sigma: (1 2)()\nalpha: (1 2)\n", 14),
        ("sigma: ()()\nalpha: ()\n", 9),
        ("sigma: ( )\nalpha: ()\n", 10),
    ):
        err = f"error: <stdin>:1:{col}: empty cycle\n"
        assert run_in_process(["genus"], doc, monkeypatch) == (2, "", err)


# A number that stands outside the parentheses is refused, also where a
# cycle opens right after it and would otherwise take its digits.
@pytest.mark.parametrize(
    "sigma, error",
    [
        ("(1 2)3(4)", "<stdin>:1: point 3 outside any cycle"),
        ("12(3)", "<stdin>:1: point 12 outside any cycle"),
        ("(1 2) 3", "<stdin>:1: point 3 outside any cycle"),
    ],
    ids=["between-cycles", "before-the-first-cycle", "after-the-last-cycle"],
)
def test_points_outside_the_parentheses_are_refused(sigma, error, monkeypatch):
    doc = f"sigma: {sigma}\nalpha: (1 2)\n"
    assert run_in_process(["genus"], doc, monkeypatch) == (
        2, "", f"error: {error}\n")


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
    # against a bare interpreter: site may load modules of its own; the
    # check routes (routes), the oracles and checks load only where they run,
    # the coloring and flow counts (counting) only in colorings and flows,
    # the JSON reader (jsonin) only on a JSON document, the --json writer
    # only under --json, the token walk only on bad input
    bare = imported_modules(["-c", "pass"])
    heavy = {"hypermaps.selftest", "hypermaps.oracles", "hypermaps.checks",
             "hypermaps.medial", "hypermaps.routes", "hypermaps.jsonout",
             "hypermaps.jsonin", "hypermaps.diagnose", "dataclasses", "json",
             "fractions", "decimal"}
    optional = {"hypermaps.charflow", "hypermaps.counting", "hypermaps.medial",
                "hypermaps.oracles", "hypermaps.checks", "hypermaps.selftest",
                "hypermaps.routes", "hypermaps.jsonout", "hypermaps.jsonin",
                "hypermaps.diagnose", "fractions", "decimal"}
    evaluating = heavy - {"fractions", "decimal"}  # UniPoly.evaluate loads fractions
    document = json.dumps(RUNNING_ECHO)
    for commands, stdin, runs, unwanted in (
        ((["charpoly"], ["flowpoly"]), RUNNING, "charflow",
         heavy | {"hypermaps.counting"}),
        ((["flows", "--q=3"],), RUNNING, "counting", heavy | {"hypermaps.charflow"}),
        ((["colorings", "--m=3"], ["flows", "--q=3", "--nowhere-zero"]), RUNNING,
         "counting", evaluating | {"hypermaps.charflow"}),
        ((["whitney"], ["genus"], ["wet-dry"]), RUNNING, "whitney", optional),
        ((["whitney", "--method=phi"], ["whitney", "--check"]), RUNNING, "routes",
         optional - {"hypermaps.routes"}),
        ((["genus"],), document, "jsonin", optional - {"hypermaps.jsonin"}),
    ):
        for argv in commands:
            added = imported_modules(["-m", "hypermaps", *argv], stdin) - bare
            assert f"hypermaps.{runs}" in added, argv
            assert not added & unwanted, (argv, sorted(added & unwanted))


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
def test_n_above_max_points_refused(stdin, error, monkeypatch):
    assert cli.MAX_POINTS == 10 ** 6
    rc, out, err = run_in_process(["genus"], stdin, monkeypatch)
    assert (rc, out, err) == (2, "", f"error: {error}\n")


# Without n the distinct points set the table size; six exceed a cap of five.
@pytest.mark.parametrize(
    "document",
    ["sigma: (10 20)\nalpha: (30 40 50 60)\n",
     '{"sigma": [[10, 20]], "alpha": [[30, 40, 50, 60]]}'],
    ids=["text", "json"],
)
def test_distinct_points_above_max_points_refused(
    document, tmp_path, monkeypatch
):
    path = tmp_path / "many.txt"
    path.write_text(document)
    monkeypatch.setattr(cli, "MAX_POINTS", 6)
    rc, out, err = run_in_process(["genus", str(path)], "", monkeypatch)
    assert (rc, out, err) == (0, "0\n", "")

    def no_tables(*args):
        raise AssertionError("a point table was built")

    monkeypatch.setattr(cli, "MAX_POINTS", 5)
    monkeypatch.setattr(cli.Permutation, "from_cycles", no_tables)
    rc, out, err = run_in_process(["genus", str(path)], "", monkeypatch)
    assert (rc, out, err) == (2, "", f"error: {path}: 6 distinct points, more than 5\n")


def test_flows_run_no_elimination():
    # the dimension is n + kappa - z(sigma) - z(alpha), and the nowhere-zero
    # count one flow polynomial value, so neither mode lists or eliminates:
    # oracles, home of the elimination, is never imported
    script = (
        "import io, json, sys\n"
        "from hypermaps import cli\n"
        "doc = 'sigma: (1 5)(2 6)(3 7)(4 8)\\nalpha: (1 2 3 4)(5 6)(7 8)\\n'\n"
        "for argv in (['flows', '--q=3', '--json'],\n"
        "             ['flows', '--q=3', '--nowhere-zero', '--json']):\n"
        "    sys.stdin, out, sys.stdout = io.StringIO(doc), sys.stdout, io.StringIO()\n"
        "    rc = cli.main(argv)\n"
        "    result = json.loads(sys.stdout.getvalue())['result']\n"
        "    sys.stdout = out\n"
        "    print(rc, result['count'], result['dimension'])\n"
        "print('hypermaps.oracles' in sys.modules)\n"
    )
    r = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert (r.returncode, r.stdout, r.stderr) == (0, "0 9 2\n0 4 2\nFalse\n", "")
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


def test_default_whitney_matches_check_routes(monkeypatch):
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
        rc, default, err = run_in_process(["whitney"], doc, monkeypatch)
        assert (rc, err) == (0, "")
        for method in ("phi", "psi", "brute"):
            argv = ["whitney", f"--method={method}"]
            assert run_in_process(argv, doc, monkeypatch) == (0, default, ""), (
                doc, method)
    assert {name for name, hit in seen if hit} == {
        "disconnected", "positive genus", "json", "non-compact"}


def test_colorings_on_many_vertices_need_no_recursion():
    # more vertices than the default recursion limit: 20,000 buds, and a
    # path on 15,001 vertices {1}, {2, 3}, ..., {30000} joined by (2i-1 2i)
    buds = "n: 20000\nsigma: (1)\nalpha: (1)\n"
    k = 15000
    path = ("sigma: " + "".join(f"({2 * i} {2 * i + 1})" for i in range(1, k))
            + "\nalpha: " + "".join(f"({2 * i - 1} {2 * i})" for i in range(1, k + 1))
            + "\n")
    for m, doc, count in ((1, buds, "1"), (2, path, "2")):
        r = run_cli(["colorings", f"--m={m}"], doc)
        assert (r.returncode, r.stdout, r.stderr) == (0, count + "\n", ""), m


def test_a_recursion_too_deep_exits_2_with_one_line():
    # main keeps the interpreter's recursion limit; phi on a path with 19
    # edges, the deepest the default size guard admits, goes 47 frames deep
    edges = 19
    doc = ("sigma: (1)" + "".join(f"({2 * i} {2 * i + 1})" for i in range(1, edges))
           + f"({2 * edges})\nalpha: "
           + "".join(f"({2 * i - 1} {2 * i})" for i in range(1, edges + 1)) + "\n")
    script = ("import sys\nfrom hypermaps import cli\nsys.setrecursionlimit(30)\n"
              "sys.exit(cli.main(['whitney', '--method=phi']))\n")
    r = subprocess.run([sys.executable, "-c", script], input=doc,
                       capture_output=True, text=True, timeout=300)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1, r.stderr


def test_running_out_of_memory_exits_2_with_one_line(monkeypatch):
    # a large instance under --no-size-guard may exhaust memory inside a
    # route; the route is stood in for, so nothing large is allocated
    def exhausted(h, method="dp", **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "whitney", exhausted)
    for argv in (["whitney"], ["whitney", "--method=phi", "--no-size-guard", "--json"]):
        rc, out, err = run_in_process(argv, RUNNING, monkeypatch)
        assert (rc, out, err) == (2, "", "error: out of memory\n"), argv


def test_colorings_of_a_long_path_are_not_listed():
    # k edges, k + 1 vertices {1}, {2, 3}, ..., {2k}: 3 * 2^k colorings
    for k in (30, 199):
        path = ("sigma: " + "".join(f"({2 * i} {2 * i + 1})" for i in range(1, k))
                + "\nalpha: "
                + "".join(f"({2 * i - 1} {2 * i})" for i in range(1, k + 1)) + "\n")
        start = time.perf_counter()
        r = run_cli(["colorings", "--m=3"], path)
        assert (r.returncode, r.stdout, r.stderr) == (0, f"{3 * 2 ** k}\n", ""), k
        assert time.perf_counter() - start < 1.0, k


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


def test_main_gives_back_the_int_to_str_limit(monkeypatch):
    # main lifts the limit of Python 3.11+ so that 3^10000 prints, and puts
    # the caller's limit back before it returns
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(4321)  # a limit that main must give back
    try:
        doc = "n: 10000\nsigma: (1)\nalpha: (1)\n"
        rc, out, err = run_in_process(["colorings", "--m=3"], doc, monkeypatch)
        assert (rc, err) == (0, "")
        assert len(out.strip()) == 4772
        assert int(out[-31:]) == 3 ** 10000 % 10 ** 30
        if limit is not None:
            assert sys.get_int_max_str_digits() == 4321
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


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


def test_size_guard_reports_cleanly(monkeypatch):
    # the running example has 10 refinements: a cap of 10 answers, and a cap
    # of 9 refuses unless --no-size-guard is given
    assert cli.MAX_REFINEMENTS == 10 ** 6
    for command, things in (("whitney", "refinements"), ("circuit-partition", "matchings")):
        monkeypatch.setattr(cli, "MAX_REFINEMENTS", 10)
        rc, answer, err = run_in_process([command], RUNNING, monkeypatch)
        assert (rc, err) == (0, "") and answer, command
        monkeypatch.setattr(cli, "MAX_REFINEMENTS", 9)
        err = f"error: 10 {things} exceed the cap of 9 (override with --no-size-guard)\n"
        assert run_in_process([command], RUNNING, monkeypatch) == (2, "", err)
        argv = [command, "--no-size-guard"]
        assert run_in_process(argv, RUNNING, monkeypatch) == (0, answer, "")


def test_version_flag():
    r = run_cli(["--version"])
    assert r.returncode == 0
    assert r.stdout.strip()


def json_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# (argv, stdin, plain text, --json result, --json method, --json stats)
PINNED = [
    (["whitney"], RUNNING, R_TEXT, R_TEXT, "dp",
     {"memo_hits": 0, "nodes": 9, "terms": 5}),
    (["whitney", "--method=brute"], RUNNING, R_TEXT, R_TEXT, "brute",
     {"memo_hits": 0, "nodes": 10, "terms": 5}),
    (["whitney", "--method=psi"], RUNNING, R_TEXT, R_TEXT, "psi",
     {"memo_hits": 3, "nodes": 7, "terms": 5}),
    (["whitney", "--method=dp"], RUNNING, R_TEXT, R_TEXT, "dp",
     {"memo_hits": 0, "nodes": 9, "terms": 5}),
    (["whitney", "--method=all"], RUNNING, "\n".join([R_TEXT] * 4),
     {"brute": R_TEXT, "phi": R_TEXT, "psi": R_TEXT, "dp": R_TEXT}, "all",
     {"brute": {"memo_hits": 0, "nodes": 10}, "phi": {"memo_hits": 3, "nodes": 7},
      "psi": {"memo_hits": 3, "nodes": 7}, "dp": {"memo_hits": 0, "nodes": 9}}),
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
def test_pinned_outputs(argv, stdin, plain, result, method, stats, monkeypatch):
    assert run_in_process(argv, stdin, monkeypatch) == (0, plain + "\n", "")
    echo = {"edges": [[1, 2], [2, 1]]} if stdin == DIGRAPH else RUNNING_ECHO
    payload = {"input_echo": echo, "result": result, "method": method, "stats": stats}
    rc, out, err = run_in_process(argv + ["--json"], stdin, monkeypatch)
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


def test_pinned_selftest_outputs(monkeypatch):
    argv = ["selftest", "--n-max=4", "--seed=0"]
    assert run_in_process(argv, "", monkeypatch) == (0, SELFTEST_TEXT, "")
    checks = [line[5:-1].split(" (", 1) for line in SELFTEST_TEXT.splitlines()[:-1]]
    payload = {
        "input_echo": {"n_max": 4, "seed": 0},
        "result": [{"name": n, "ok": True, "detail": d} for n, d in checks],
        "method": "selftest",
        "stats": {"passed": 30, "failed": 0},
    }
    rc, out, err = run_in_process(argv + ["--json"], "", monkeypatch)
    assert (rc, out, err) == (0, json_text(payload), "")


def test_whitney_check_reports_disagreement(monkeypatch):
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
        assert run_in_process(argv, RUNNING, monkeypatch) == (1, "", expected)
