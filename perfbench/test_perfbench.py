"""Tests of the benchmark itself: smoke runs, and perturbed answers caught.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
import verify as V  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(*args, cwd=HERE.parent):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run(workload, trace):
    p = bench("--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", trace, "--smoke")
    assert p.returncode == 0, p.stderr
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, p.stderr
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end" if trace == "0" else "per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == names


def test_traced_counts_repeat():
    def counts():
        p = bench("--workload", "cli-corpus", "--seed", "5", "--seconds", "0.3", "--trace", "1", "--smoke")
        metrics = json.loads(p.stdout.strip().splitlines()[-1])["metrics"]
        return {k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "calls/op")}

    first = counts()
    assert first["nclattice.betas"] > 0 and first["poly.ops"] > 0
    assert counts() == first


def test_same_seed_same_inputs():
    for w in gen.WORKLOADS:
        a, b = gen.build(w, 11, smoke=True), gen.build(w, 11, smoke=True)
        assert [o["stdin"] for o in a[1]] == [o["stdin"] for o in b[1]]


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = bench("--workload", "cli-corpus", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert p.returncode != 0 and p.stdout.strip() == ""


def perturb(op, out):
    """A wrong answer of the same form as ``out``."""
    if op.get("json"):
        doc = json.loads(out)
        doc["result"] = wrong(op["kind"], doc["result"])
        return json.dumps(doc)
    return wrong(op["kind"], out)


def wrong(kind, value):
    if kind in ("whitney", "wet-dry", "circuit-partition", "charpoly", "flowpoly"):
        return value.strip() + " + 1"
    if kind in ("genus", "flows", "colorings"):
        if isinstance(value, dict):
            key = "genus" if "genus" in value else "count"
            return {**value, key: value[key] + 1}
        return str(int(value) + 1)
    if kind == "from-digraph":
        if isinstance(value, dict):
            return {**value, "alpha": []}
        return value.split("alpha:")[0] + "alpha: ()\n"
    if isinstance(value, dict):  # dual, medial: swap the two permutations
        a, b = [k for k in value if isinstance(value[k], list)]
        return {**value, a: value[b], b: value[a]}
    (ka, va), (kb, vb) = (line.split(": ", 1) for line in value.strip().splitlines())
    return f"{ka}: {vb}\n{kb}: {va}\n"


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_perturbed_answers_are_caught(workload):
    instances, ops, extras = gen.build(workload, 2, smoke=True)
    res = run.run_in_process(ops, extras, 0.01, False, run.child_env())
    outputs = res["outputs"]
    assert run.check_all(instances, ops, extras, outputs, res["extras"]) == []
    for i, op in enumerate(ops):
        for k, (rc, out, err) in enumerate(outputs[i]):
            bad = [list(o) for o in outputs]
            bad[i][k] = [rc, perturb(op, out), err]
            found = run.check_all(instances, ops, extras, bad, res["extras"])
            assert found, f"perturbed answer of op {i} {op['argv']} passed"
    for j, (rc, out) in enumerate(res["extras"]):
        bad = list(res["extras"])
        bad[j] = [rc, out.strip() + " + u^9"]
        assert run.check_all(instances, ops, extras, outputs, bad)


def test_closed_form_mobius_matches_the_recursive_definition():
    # mu(x, top) on NC(m) from mu(x, x) = 1 and zero sums over [x, y], with
    # partitions as sets of blocks; a block read in increasing order is the
    # cycle that refines the cycle (1 2 ... m).
    def leq(a, b):
        return all(any(x <= y for y in b) for x in a)

    for m in range(1, 6):
        parts = sorted((frozenset(map(frozenset, p)) for p in V.nc_partitions(m)), key=len, reverse=True)
        top = V.from_cycles(m, [list(range(1, m + 1))])
        for x in parts:
            mu = {}
            for y in parts:
                if leq(x, y):
                    mu[y] = 1 if y == x else -sum(v for z, v in mu.items() if leq(z, y))
            beta = V.from_cycles(m, [sorted(i + 1 for i in b) for b in x])
            assert mu[parts[-1]] == V.mu_closed(beta, top)


def test_union_reference_is_the_product_of_its_pieces():
    parts = [(4, [[1, 3], [2], [4]], [[1, 2, 3, 4]]), (3, [[1, 2, 3]], [[1, 3, 2]])]
    inst = gen.make_instance(7, [[1, 3], [2], [4], [5, 6, 7]], [[1, 2, 3, 4], [5, 7, 6]], ref_limit=100)
    R = gen.union_reference(parts, 100)
    assert R == inst["ref"]["R"]
    assert gen.union_reference(parts, 10) is None
    # Swapping u and v keeps R(1,1) and the routes' agreement; only the
    # reference catches it.
    inst["ref"] = {"R": R}
    assert V.check_whitney(inst, R) == []
    assert V.swap_uv(R) != R and V.check_whitney(inst, V.swap_uv(R)) != []
