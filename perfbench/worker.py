"""Runs the program's operations for ``run.py``; started as a child process.

Modes (the package is found through ``PYTHONPATH``):

* ``probe KIND...``: import ``hypermaps.cli`` and make one call of each
  subcommand KIND on a two-point input, then print the import time.  The
  parent times the whole process as one set-up sample.
* ``rounds``: read a job (ops, extras, seconds, trace) as JSON on stdin, call
  ``hypermaps.cli.main`` in this process for whole rounds over the ops until
  the time is up, then run the extras once, and print one JSON result.
* ``cli TRACEFILE ARG...``: one traced command-line call, like
  ``python -m hypermaps ARG...``, that writes its trace to TRACEFILE.
* ``time ARG...``: one in-process call on stdin, timed without the
  interpreter start and the import; prints seconds, exit code and output.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback

CAL_ITERATIONS = 4000
CAL_EVERY_S = 0.05
TINY = {"from-digraph": "1 2\n2 1\n"}
TINY_PAIR = "sigma: (1 2)\nalpha: (1 2)\n"
TINY_FLAGS = {"flows": ["--q=2"], "colorings": ["--m=2"]}


def call(main, argv, text):
    """One in-process subcommand call: (exit code, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed operation, reported with its traceback
        rc = -1
        err.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    sys.stdin = saved
    return rc, elapsed, out.getvalue(), err.getvalue()


def calibrate():
    """Seconds taken by a fixed pure-Python loop of dict, tuple and int work.

    The machine's speed drifts while a run goes on; samples of this loop
    taken between operations measure that speed, and ``run.py`` scales the
    operations' times by it.
    """
    gc.disable()  # a collection of the program's garbage is not machine speed
    start = time.perf_counter()
    counts, row, total = {}, tuple(range(12)), 0
    for i in range(CAL_ITERATIONS):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
        total += row[i % 12]
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def probe(kinds):
    start = time.perf_counter()
    from hypermaps.cli import main

    import_s = time.perf_counter() - start
    for kind in kinds:
        rc, _, _, err = call(main, [kind] + TINY_FLAGS.get(kind, []), TINY.get(kind, TINY_PAIR))
        if rc != 0:
            sys.exit(f"probe call {kind} failed: {err}")
    print(json.dumps({"import_s": import_s}))


def run_rounds(ops, seconds, trace, runner):
    """Whole rounds over ``ops`` until ``seconds`` pass; raw measurements.

    ``runner`` makes the calls: ``call(op, traced)`` gives (exit code,
    seconds, stdout, stderr); ``start_tracing()``, ``begin_round(record)``
    and ``round_snapshot()`` serve traced rounds.  Calibration samples are
    taken at the start and end of every round and between operations, about
    one per ``CAL_EVERY_S`` of their time.  Trace runs spend the first half
    untraced, which also gives the overhead figure, and the second half
    traced.
    """
    seen = [[] for _ in ops]  # distinct [rc, stdout, stderr] per op
    failed = attempted = 0
    lats = {False: [], True: []}  # per round, per op
    cals = {False: [], True: []}  # per round, calibration samples
    layers, functions = [], None
    start = time.perf_counter()
    for traced, share in [(False, 0.5), (True, 1.0)] if trace else [(False, 1.0)]:
        if traced:
            runner.start_tracing()
        while True:
            if traced:
                runner.begin_round(record=not layers)
            round_lats, round_cals, since = [], [calibrate()], 0.0
            for i, op in enumerate(ops):
                rc, dt, out, err = runner.call(op, traced)
                attempted += 1
                failed += rc != 0
                if [rc, out, err] not in seen[i]:
                    seen[i].append([rc, out, err])
                round_lats.append(dt)
                since += dt
                # About one sample per CAL_EVERY_S of operations, at most five.
                for _ in range(min(5, int(since / CAL_EVERY_S))):
                    round_cals.append(calibrate())
                    since = 0.0
            round_cals.append(calibrate())
            lats[traced].append(round_lats)
            cals[traced].append(round_cals)
            if traced:
                from tracer import layer_metrics

                snapshot = runner.round_snapshot()
                functions = functions or snapshot
                layers.append(layer_metrics(snapshot, len(ops)))
            if time.perf_counter() >= start + seconds * share:
                break
        if not traced:
            runner.untraced_done()
    return {
        "attempted": attempted,
        "failed": failed,
        "lats": lats[False],
        "cals": cals[False],
        "traced_lats": lats[True],
        "traced_cals": cals[True],
        "outputs": seen,
        "layers": layers,
        "functions": functions,
    }


class InProcess:
    """Calls ``hypermaps.cli.main`` in this process."""

    def __init__(self):
        from hypermaps.cli import main

        self.main = main
        self.tracer = None
        self.peak_kb = 0

    def start_tracing(self):
        from tracer import Tracer

        self.tracer = Tracer()
        self.tracer.install()

    def begin_round(self, record):
        self.tracer.reset()
        self.tracer.recording = record

    def call(self, op, traced):
        if not traced:
            return call(self.main, op["argv"], op["stdin"])
        self.tracer.op = op["id"]
        self.tracer.enter(f"op.{op['argv'][0]}", "op")
        try:
            return call(self.main, op["argv"], op["stdin"])
        finally:
            self.tracer.leave()

    def round_snapshot(self):
        return self.tracer.snapshot()

    def untraced_done(self):
        self.peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def rounds(job):
    runner = InProcess()
    res = run_rounds(job["ops"], job["seconds"], job["trace"], runner)
    res["extras"] = []
    for e in job["extras"]:
        rc, _, out, _ = call(runner.main, e["argv"], e["stdin"])
        res["extras"].append([rc, out])
    res["peak_rss_kb"] = runner.peak_kb
    if runner.tracer:
        res["spans"] = runner.tracer.spans
        res["spans_dropped"] = runner.tracer.spans_dropped
    return res


def traced_cli(trace_file, argv):
    from hypermaps.cli import main

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.recording = True
    tracer.op = 0
    tracer.enter(f"op.{argv[0]}", "op")
    try:
        rc = main(argv)
    finally:
        tracer.leave()
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({"snapshot": tracer.snapshot(), "spans": tracer.spans,
                       "spans_dropped": tracer.spans_dropped}, fh)
    return rc


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "probe":
        probe(sys.argv[2:])
    elif mode == "rounds":
        real_stdout = sys.stdout
        res = rounds(json.load(sys.stdin))
        real_stdout.write(json.dumps(res))
    elif mode == "cli":
        sys.exit(traced_cli(sys.argv[2], sys.argv[3:]))
    elif mode == "time":
        from hypermaps.cli import main

        rc, seconds, out, err = call(main, sys.argv[2:], sys.stdin.read())
        print(json.dumps({"seconds": seconds, "rc": rc, "out": out, "err": err}))
    else:
        sys.exit(f"unknown mode {mode}")
