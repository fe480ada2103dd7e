import io
import json
import subprocess
import sys

from hypermaps import cli

RUNNING = "sigma: (1 4)(2 5)(3)\nalpha: (1 2 3)(4 5)\n"


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
    assert len(lines) == 3
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
    assert payload["method"] == "phi"
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
    assert "28/28 checks passed" in r.stdout


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
        ["wet-dry"],
        ["circuit-partition"],
        ["colorings", "--eulerian", "--m=2"],
        ["charpoly"],
        ["flowpoly"],
    ):
        normal = run_cli(args, RUNNING)
        optimized = run_cli(args, RUNNING, python_flags=["-O"])
        assert normal.returncode == optimized.returncode == 0, args
        assert optimized.stdout == normal.stdout, args


def test_main_reuses_one_parser(monkeypatch, capsys):
    built = []
    build_parser = cli.build_parser

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
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
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        out, err = capsys.readouterr()
        fresh = run_cli(argv, text)
        assert (rc, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert len(built) == 1


def test_malformed_inputs_diagnose_cleanly():
    cases = [
        "sigma: (1 4\nalpha: (1 2)\n",          # unterminated cycle
        "sigma: (1 1)\nalpha: (1)\n",            # duplicate point
        "alpha: (1 2)\n",                        # missing sigma
        "sigma: (1 2)\nalpha: (1 2)\nwhat\n",    # junk line
        "sigma: (1 2)\nalpha: (1 3)\nn: 2\n",    # out of range
        '{"sigma": [[1, 2]]}',                   # missing alpha key
        '{"sigma": [[1, 2]], "alpha": "x"}',     # wrong type
        "{not json",                             # invalid json
    ]
    for doc in cases:
        r = run_cli(["genus"], doc)
        assert r.returncode == 2, doc
        assert r.stderr.startswith("error:"), doc
        assert "Traceback" not in r.stderr, doc


def test_unknown_method_is_argparse_error():
    r = run_cli(["whitney", "--method=magic"], RUNNING)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr


def test_size_guard_reports_cleanly():
    r = run_cli(["whitney", "--max-refinements=2"], RUNNING)
    assert r.returncode == 2
    assert r.stderr.startswith("error:")
    r = run_cli(["whitney", "--max-refinements=2", "--no-size-guard"], RUNNING)
    assert r.returncode == 0


def test_parallel_brute_matches():
    r = run_cli(["whitney", "--method=brute", "--parallel"], RUNNING)
    assert r.returncode == 0
    assert r.stdout.strip() == "u^2 + u*v + 4*u + v + 3"


def test_version_flag():
    r = run_cli(["--version"])
    assert r.returncode == 0
    assert r.stdout.strip()
