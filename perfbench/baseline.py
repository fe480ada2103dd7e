"""Regenerate the ROADMAP baseline table, one fresh process per point.

    python3 perfbench/baseline.py

Rows are ``whitney`` by brute force, phi and psi at n = 8, 10, 12, and
``charpoly`` and ``flowpoly`` at n = 8.  sigma is a seeded random
permutation and alpha one n-cycle.  Each point runs in a new process, so the
Moebius memo starts empty, and is timed around the ``hypermaps.cli.main``
call only (interpreter start and import excluded), one run per point.  Every
answer is checked as in the benchmark: R(1,1) = Cat(n), the three routes
agree, and chi and C match the closed-form reference.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys

from run import HERE, ROOT, child_env
import gen
import verify as V

ROWS = [
    ("`whitney` brute", ["whitney", "--method=brute"], (8, 10, 12)),
    ("`whitney` phi", ["whitney", "--method=phi"], (8, 10, 12)),
    ("`whitney` psi", ["whitney", "--method=psi"], (8, 10, 12)),
    ("`charpoly`, cold Möbius memo", ["charpoly"], (8,)),
    ("`flowpoly`, cold Möbius memo", ["flowpoly"], (8,)),
]


def main():
    env = child_env()
    instances = {}
    for n in (8, 10, 12):
        rng = random.Random(f"baseline:0:{n}")
        alpha = list(range(1, n + 1))
        rng.shuffle(alpha)
        instances[n] = gen.make_instance(n, gen.random_perm(rng, n), [alpha], ref_limit=2000)
    whitney, problems, lines = {}, [], []
    for label, argv_, sizes in ROWS:
        cells = []
        for n in (8, 10, 12):
            if n not in sizes:
                cells.append("—")
                continue
            inst = instances[n]
            p = subprocess.run([sys.executable, str(HERE / "worker.py"), "time", *argv_],
                               input=inst["stdin"], capture_output=True, text=True, env=env, cwd=ROOT)
            if p.returncode != 0:
                sys.exit(f"{label} n={n} failed: {p.stderr.strip()[-500:]}")
            res = json.loads(p.stdout)
            if res["rc"] != 0:
                sys.exit(f"{label} n={n} exited {res['rc']}: {res['err'].strip()}")
            if argv_[0] == "whitney":
                R = V.parse_poly(res["out"], "uv")
                problems += V.check_whitney(inst, R, whitney.get(n, ()))
                whitney.setdefault(n, []).append(R)
            else:
                which = "chi" if argv_[0] == "charpoly" else "C"
                problems += V.check_charflow(inst, V.parse_poly(res["out"], "t"), which)
            cells.append(f"{res['seconds']:.3g} s")
        lines.append(f"| {label} | " + " | ".join(cells) + " |")
    print(f"Seed 0; Python {sys.version.split()[0]}; one run per point.\n")
    print("| workload | n=8 | n=10 | n=12 |")
    print("| --- | --- | --- | --- |")
    print("\n".join(lines))
    if problems:
        sys.exit("answer checks failed: " + "; ".join(problems))


if __name__ == "__main__":
    main()
