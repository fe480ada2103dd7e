import subprocess
import sys


def test_oracle_checks_raise_under_optimize():
    # Both checks hold on every valid input, so each is driven by a
    # deliberately broken helper; under -O a bare assert would pass silently.
    script = (
        "from hypermaps import oracles\n"
        "from hypermaps.hypermap import Hypermap\n"
        "from hypermaps.perm import Permutation\n"
        "errors = []\n"
        "h = Hypermap(Permutation.identity(2), Permutation.from_cycles(2, [[1, 2]]))\n"
        "Hypermap.faces = lambda self: Permutation.identity(self.n)\n"
        "try:\n"
        "    oracles.map_euler_genus(h)\n"
        "except ValueError as exc:\n"
        "    errors.append(str(exc))\n"
        "oracles._component_count = lambda nv, edges: nv + len(edges)\n"
        "try:\n"
        "    oracles.graph_characteristic(2, [(0, 1)])\n"
        "except ValueError as exc:\n"
        "    errors.append(str(exc))\n"
        "print(errors)\n"
    )
    r = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True,
        timeout=300,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == str(
        [
            "odd Euler characteristic 3 on a component",
            "characteristic shift went negative",
        ]
    )
