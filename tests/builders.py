"""Builders and runners that several test modules share.

``make`` builds a collection from cycle lists, ``run_cli`` runs the command
line in a fresh process, ``run_in_process`` runs ``cli.main`` in this one,
and ``phi_expansion`` lists the top-level branches of phi.  Pytest rewrites
the asserts of test modules only, so nothing here asserts.
"""

import contextlib
import io
import subprocess
import sys

from hypermaps import cli
from hypermaps.hypermap import Hypermap
from hypermaps.perm import Permutation
from hypermaps.routes import branch, pivot_cycle
from hypermaps.whitney import whitney_phi


def make(n, sigma_cycles, alpha_cycles):
    return Hypermap(
        Permutation.from_cycles(n, sigma_cycles),
        Permutation.from_cycles(n, alpha_cycles),
    )


def run_cli(args, stdin="", python_flags=(), timeout=300):
    """``python [python_flags] -m hypermaps args`` with stdin; the result.

    Under ``python -O`` the child runs with ``-O`` too, so a suite run
    without ``assert`` checks the command line without it as well.
    """
    if sys.flags.optimize and "-O" not in python_flags:
        python_flags = ("-O", *python_flags)
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "hypermaps", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def run_in_process(argv, stdin, monkeypatch):
    """``cli.main(argv)`` reading stdin: (exit code, stdout, stderr)."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def phi_expansion(h):
    """Top level branches: (child, eu, ev, child polynomial) per k.

    Empty when alpha has no cycle of length >= 2.
    """
    pivot = pivot_cycle(h.alpha)
    if pivot is None:
        return []
    out = []
    for k in range(1, len(pivot) + 1):
        child, eu, ev = branch(h, pivot, k, keep_connected=False)
        out.append((child, eu, ev, whitney_phi(child).polynomial))
    return out
