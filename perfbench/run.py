"""Benchmark of the ``hypermap`` command: seeded workloads, checked answers.

Run from the root of a checkout::

    python3 perfbench/run.py --workload whitney-recursion --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones (``setup_s``, ``wall_s``, ``op_p50_s``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer ones of a traced
run.  Details of every run, and the spans of traced runs, are written under
``perfbench/out/``.  ``--smoke`` runs the same code on tiny inputs.

The program runs in child processes only, from ``src/`` of the checkout:
one long-lived worker that calls ``hypermaps.cli.main`` in-process, or, for
``mobius-cold``, one ``python -m hypermaps`` process per operation.  This
process generates the inputs and checks every answer with its own code.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import tracer  # noqa: E402
import verify as V  # noqa: E402
import worker  # noqa: E402

SETUP_STARTS = 15
SETUP_CAL_SAMPLES = 3
CHILD_TIMEOUT = 150
# Typical seconds of one worker.calibrate() sample on the 2-vCPU machine the
# bounds were set on; times are reported in seconds at that speed.
REF_S = 0.002


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env():
    src = ROOT / "src"
    if not (src / "hypermaps" / "cli.py").is_file():
        raise BenchError(f"no hypermaps package under {src}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def measure_setup(kinds, env):
    """Scaled wall times of fresh processes that import and call each kind once."""
    walls, imports = [], []
    for _ in range(SETUP_STARTS):
        cal = [worker.calibrate() for _ in range(SETUP_CAL_SAMPLES)]
        t0 = time.perf_counter()
        p = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "probe", *kinds],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT,
        )
        wall = time.perf_counter() - t0
        cal += [worker.calibrate() for _ in range(SETUP_CAL_SAMPLES)]
        if p.returncode != 0:
            raise BenchError(f"set-up probe failed: {p.stderr.strip()[-500:]}")
        walls.append(wall * scale(cal))
        imports.append(json.loads(p.stdout)["import_s"] * scale(cal))
    return walls, imports


def scale(cal):
    """Factor that turns this stretch's seconds into reference seconds.

    The calibration time is the mean of the middle half of the samples, so
    a sample cut into by another process does not count.
    """
    cal = sorted(cal)
    k = len(cal) // 4
    return REF_S / statistics.fmean(cal[k : len(cal) - k])


def run_in_process(ops, extras, seconds, trace, env):
    job = {"ops": ops, "extras": extras, "seconds": seconds, "trace": trace}
    p = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "rounds"],
        input=json.dumps(job), capture_output=True, text=True, env=env, cwd=ROOT,
        timeout=seconds + CHILD_TIMEOUT,
    )
    if p.returncode != 0:
        raise BenchError(f"worker failed: {p.stderr.strip()[-800:]}")
    return json.loads(p.stdout)


class Cold:
    """One fresh ``python -m hypermaps`` process per operation, one at a time."""

    def __init__(self, env):
        self.env = env
        self.trace_file = OUT / f"cold-op-trace-{os.getpid()}.json"
        self.out_file = OUT / f"cold-op-{os.getpid()}.out"
        self.err_file = OUT / f"cold-op-{os.getpid()}.err"
        self.snaps, self.spans, self.dropped, self.record = [], [], 0, False
        self.peak_kb = 0

    def start_tracing(self):
        pass

    def begin_round(self, record):
        self.snaps, self.record = [], record

    def call(self, op, traced):
        if traced:
            cmd = [sys.executable, str(HERE / "worker.py"), "cli", str(self.trace_file), *op["argv"]]
        else:
            cmd = [sys.executable, "-m", "hypermaps", *op["argv"]]
        rc, dt, out, err = self.run_child(cmd, op["stdin"])
        if traced and self.trace_file.exists():
            data = json.loads(self.trace_file.read_text(encoding="utf-8"))
            self.trace_file.unlink()
            self.snaps.append(data["snapshot"])
            if self.record:
                self.spans.extend([s[0], s[1], op["id"], *s[3:]] for s in data["spans"])
                self.dropped += data["spans_dropped"]
        return rc, dt, out, err

    def run_child(self, cmd, stdin):
        """Run one child to its end; its own peak memory counts in ``peak_kb``.

        The child is reaped with ``os.wait4``, so its memory is read alone,
        apart from the set-up probes that also ran as children.  Output goes
        to files, so a child never waits on a full pipe while it is reaped.
        """
        with open(self.out_file, "w+") as out, open(self.err_file, "w+") as err:
            t0 = time.perf_counter()
            p = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=out, stderr=err,
                                 text=True, env=self.env, cwd=ROOT)
            watchdog = threading.Timer(CHILD_TIMEOUT, p.kill)
            watchdog.start()
            try:
                p.stdin.write(stdin)
                p.stdin.close()
            except BrokenPipeError:
                pass  # the child ended without reading; its exit code tells
            _, status, usage = os.wait4(p.pid, 0)
            dt = time.perf_counter() - t0
            watchdog.cancel()
            p.returncode = os.waitstatus_to_exitcode(status)
            if dt >= CHILD_TIMEOUT:
                raise subprocess.TimeoutExpired(cmd, CHILD_TIMEOUT)
            self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
            out.seek(0)
            err.seek(0)
            return p.returncode, dt, out.read(), err.read()

    def round_snapshot(self):
        return tracer.merge(self.snaps)

    def untraced_done(self):
        pass


def run_cold(ops, seconds, trace, env):
    runner = Cold(env)
    res = worker.run_rounds(ops, seconds, trace, runner)
    runner.out_file.unlink(missing_ok=True)
    runner.err_file.unlink(missing_ok=True)
    res.update(extras=[], peak_rss_kb=runner.peak_kb, spans=runner.spans, spans_dropped=runner.dropped)
    return res


def check_all(instances, ops, extras, outputs, extra_outputs):
    """Every distinct answer of every operation, checked; returns problems."""
    problems = []
    whitney = {}
    for i, op in enumerate(ops):
        if op["kind"] != "whitney":
            continue
        for rc, out, _ in outputs[i]:
            if rc == 0:
                text = json.loads(out)["result"] if op.get("json") else out
                whitney.setdefault(op["inst"], []).append(V.parse_poly(text, "uv"))
    for k, polys in whitney.items():
        if any(p != polys[0] for p in polys):
            problems.append(f"instance {k}: whitney answers disagree between routes or runs")
    for i, op in enumerate(ops):
        inst = instances[op["inst"]]
        R = whitney.get(op["inst"], [None])[0]
        for rc, out, _ in outputs[i]:
            if rc != 0:
                continue  # counted as failed
            try:
                found = V.check_op(op, inst, out, {"whitney": R})
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                found = [f"unreadable answer: {exc!r}"]
            problems.extend(f"op {i} {' '.join(op['argv'])}: {p}" for p in found)
    for e, (rc, out) in zip(extras, extra_outputs):
        R = whitney.get(e["inst"], [None])[0]
        if rc != 0 or R is None:
            problems.append(f"dual check on instance {e['inst']} could not run (exit {rc})")
            continue
        problems.extend(f"instance {e['inst']}: {p}" for p in V.check_dual_swap(R, V.parse_poly(out, "uv")))
    return problems


def run(workload, seed, seconds, trace, smoke=False):
    env = child_env()
    # One CPU for this process and every child it starts, so calibration
    # samples and operations always share a core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    instances, ops, extras = gen.build(workload, seed, smoke)
    OUT.mkdir(exist_ok=True)
    kinds = sorted({op["argv"][0] for op in ops})
    setup, imports = measure_setup(kinds, env)
    if workload == "mobius-cold":
        res = run_cold(ops, seconds, trace, env)
    else:
        res = run_in_process(ops, extras, seconds, trace, env)
    problems = check_all(instances, ops, extras, res["outputs"], res["extras"])
    # In a long-lived worker the first round fills the program's caches; it
    # is run and checked but not timed.  Each cold operation starts fresh.
    skip = 1 if workload != "mobius-cold" and len(res["lats"]) > 1 else 0
    typical = per_op(res["lats"][skip:], res["cals"][skip:])
    if trace:
        metrics = {"cli.import_s": (statistics.median(imports), "s")}
        rounds = [
            {k: v * scale(cal) if k.endswith("_s") else v for k, v in layer.items()}
            for layer, cal in zip(res["layers"], res["traced_cals"])
        ]
        for name, value in tracer.summarize(rounds).items():
            metrics[name] = (value, unit_of(name))
        traced = sum(per_op(res["traced_lats"], res["traced_cals"]))
        metrics["trace.round_s"] = (traced, "s")
        metrics["trace.overhead_ratio"] = (traced / sum(typical), "ratio")
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (sum(typical), "s"),
            "op_p50_s": (statistics.median(typical), "s"),
            "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
        }
    result = {
        "correct": not problems,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "ops": len(ops), "setup_samples": setup, "import_samples": imports,
        "op_latencies": res["lats"], "calibration": res["cals"],
        "traced_op_latencies": res["traced_lats"], "traced_calibration": res["traced_cals"],
        "problems": problems, "result": result,
    }
    tag = f"{workload}-seed{seed}{'-smoke' if smoke else ''}"
    (OUT / f"run-{tag}-trace{int(trace)}.json").write_text(json.dumps(detail, indent=1))
    if trace:
        (OUT / f"trace-{tag}.json").write_text(json.dumps({
            "spans_fields": ["id", "parent", "op", "name", "start", "end"],
            "spans": res["spans"], "spans_dropped": res["spans_dropped"],
            "layers": res["layers"], "functions_first_round_raw_s": res["functions"],
        }))
    return result, problems


def per_op(lats, cals):
    """Each operation's median latency over the rounds, in reference seconds.

    The speed of this kind of shared machine flips between a fast and a
    slow mode (up to twice apart), at times for a whole run, because other
    tenants share its cores.  Each round's times are scaled by the speed
    that round's calibration samples measured, and the median over rounds
    drops what scaling misses.
    """
    factors = [scale(cal) for cal in cals]
    return [statistics.median(t * f for t, f in zip(times, factors)) for times in zip(*lats)]


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "whitney.passes":
        return "calls/op"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for a quick check")
    args = ap.parse_args(argv)
    try:
        result, problems = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
