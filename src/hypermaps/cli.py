"""Command line interface.

Two input formats are accepted for a hypermap document:

Cycle text, one permutation per line, ``#`` comments and blank lines ignored::

    sigma: (1 4)(2 5)(3)
    alpha: (1 2 3)(4 5)

and a JSON object::

    {"n": 5, "sigma": [[1, 4], [2, 5]], "alpha": [[1, 2, 3], [4, 5]]}

Points omitted from a permutation are fixed points.  Labels do not have to
be 1..n: without an explicit ``n`` they are compacted order-preservingly and
all output is rendered through the original labels.  Duplicate or
out-of-range points are rejected with the offending line and value named.

Every subcommand reads the document from a file argument (``-`` or nothing
means stdin), prints deterministic canonical text, and with ``--json`` emits
an object with the keys input_echo, result, method, stats.  Domain errors
exit with status 2 and a one line message; ``--check`` mismatches and
selftest failures exit with status 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__
from .charflow import (
    characteristic_polynomial,
    flow_polynomial,
    flow_space,
    nowhere_zero_flow_count,
    proper_coloring_count,
)
from .hypermap import Hypermap, dual
from .medial import (
    EulerianDigraph,
    circuit_partition_polynomial,
    eulerian_coloring_sum,
    from_eulerian_digraph,
    medial_map,
    signed_name,
)
from .nclattice import refinement_count
from .perm import Permutation
from .selftest import run_selftest
from .whitney import (
    InstanceTooLarge,
    wet_dry_polynomial,
    whitney,
)

DEFAULT_REFINEMENT_CAP = 10 ** 6
DEFAULT_FLOW_CAP = 10 ** 6


class InputError(ValueError):
    """Malformed document or digraph input."""


@dataclass
class HypermapDocument:
    hypermap: Hypermap
    labels: Tuple[int, ...]  # internal point i (1-based) -> original label
    name: Optional[str] = None

    def render_perm(self, perm: Permutation) -> str:
        if perm.n == 0:
            return "()"
        lab = self.labels
        return "".join(
            "(" + " ".join(str(lab[p - 1]) for p in c) + ")" for c in perm.cycles()
        )

    def cycles_json(self, perm: Permutation) -> List[List[int]]:
        lab = self.labels
        return [[lab[p - 1] for p in c] for c in perm.cycles()]

    def echo(self) -> Dict:
        doc = {
            "n": self.hypermap.n,
            "sigma": self.cycles_json(self.hypermap.sigma),
            "alpha": self.cycles_json(self.hypermap.alpha),
        }
        if self.name is not None:
            doc["name"] = self.name
        return doc


def _parse_cycle_text(line: str, where: str) -> List[List[int]]:
    cycles: List[List[int]] = []
    current: Optional[List[int]] = None
    token = ""

    def flush_token():
        nonlocal token
        if token:
            if current is None:
                raise InputError(f"{where}: point {token} outside any cycle")
            current.append(int(token))
            token = ""

    for col, ch in enumerate(line, start=1):
        if ch == "(":
            if current is not None:
                raise InputError(f"{where}:{col}: nested '('")
            current = []
        elif ch == ")":
            flush_token()
            if current is None:
                raise InputError(f"{where}:{col}: unmatched ')'")
            if not current:
                raise InputError(f"{where}:{col}: empty cycle")
            cycles.append(current)
            current = None
        elif ch.isdigit():
            token += ch
        elif ch in " \t,":
            flush_token()
        else:
            raise InputError(f"{where}:{col}: unexpected character {ch!r}")
    if current is not None:
        raise InputError(f"{where}: unterminated cycle")
    flush_token()
    return cycles


def _build_document(
    sigma_cycles: Sequence[Sequence[int]],
    alpha_cycles: Sequence[Sequence[int]],
    n: Optional[int],
    name: Optional[str],
    where: Dict[str, str],
) -> HypermapDocument:
    for key, cycles in (("sigma", sigma_cycles), ("alpha", alpha_cycles)):
        seen = set()
        for cyc in cycles:
            for p in cyc:
                if not isinstance(p, int) or isinstance(p, bool) or p < 1:
                    raise InputError(f"{where[key]}: bad point {p!r}")
                if p in seen:
                    raise InputError(f"{where[key]}: duplicate point {p}")
                seen.add(p)
    points = sorted(
        {p for cyc in sigma_cycles for p in cyc}
        | {p for cyc in alpha_cycles for p in cyc}
    )
    if n is not None:
        if points and points[-1] > n:
            raise InputError(
                f"{where['n']}: point {points[-1]} out of range 1..{n}"
            )
        labels = tuple(range(1, n + 1))
        compact = {p: p for p in points}
    else:
        labels = tuple(points)
        compact = {p: i + 1 for i, p in enumerate(points)}
    size = len(labels)
    sigma = Permutation.from_cycles(
        size, [[compact[p] for p in cyc] for cyc in sigma_cycles]
    )
    alpha = Permutation.from_cycles(
        size, [[compact[p] for p in cyc] for cyc in alpha_cycles]
    )
    return HypermapDocument(Hypermap(sigma, alpha), labels, name)


def parse_hypermap_text(text: str, filename: str = "<input>") -> HypermapDocument:
    sigma_cycles = alpha_cycles = None
    n = None
    name = None
    where = {"sigma": filename, "alpha": filename, "n": filename}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise InputError(f"{filename}:{lineno}: expected 'key: value'")
        key, _, value = line.partition(":")
        key = key.strip().lower()
        value = value.strip()
        loc = f"{filename}:{lineno}"
        if key == "sigma":
            if sigma_cycles is not None:
                raise InputError(f"{loc}: sigma given twice")
            sigma_cycles = _parse_cycle_text(value, loc)
            where["sigma"] = loc
        elif key == "alpha":
            if alpha_cycles is not None:
                raise InputError(f"{loc}: alpha given twice")
            alpha_cycles = _parse_cycle_text(value, loc)
            where["alpha"] = loc
        elif key == "n":
            try:
                n = int(value)
            except ValueError:
                raise InputError(f"{loc}: n must be an integer") from None
            if n < 0:
                raise InputError(f"{loc}: n must be nonnegative")
            where["n"] = loc
        elif key == "name":
            name = value
        else:
            raise InputError(f"{loc}: unknown key {key!r}")
    if sigma_cycles is None:
        raise InputError(f"{filename}: missing 'sigma:' line")
    if alpha_cycles is None:
        raise InputError(f"{filename}: missing 'alpha:' line")
    return _build_document(sigma_cycles, alpha_cycles, n, name, where)


def parse_hypermap_json(text: str, filename: str = "<input>") -> HypermapDocument:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{filename}: invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise InputError(f"{filename}: top level must be an object")
    unknown = set(obj) - {"n", "sigma", "alpha", "name"}
    if unknown:
        raise InputError(f"{filename}: unknown keys {sorted(unknown)}")
    for key in ("sigma", "alpha"):
        if key not in obj:
            raise InputError(f"{filename}: missing key {key!r}")
        val = obj[key]
        if not isinstance(val, list) or not all(isinstance(c, list) for c in val):
            raise InputError(f"{filename}: {key} must be a list of cycles")
    n = obj.get("n")
    if n is not None and (not isinstance(n, int) or isinstance(n, bool) or n < 0):
        raise InputError(f"{filename}: n must be a nonnegative integer")
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise InputError(f"{filename}: name must be a string")
    where = {"sigma": filename, "alpha": filename, "n": filename}
    return _build_document(obj["sigma"], obj["alpha"], n, name, where)


def load_document(text: str, filename: str = "<input>") -> HypermapDocument:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_hypermap_json(text, filename)
    return parse_hypermap_text(text, filename)


def parse_digraph(text: str, filename: str = "<input>") -> EulerianDigraph:
    edges: List[Tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise InputError(
                f"{filename}:{lineno}: expected 'tail head', got {line!r}"
            )
        try:
            t, h = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"{filename}:{lineno}: vertices must be integers") from None
        edges.append((t, h))
    if not edges:
        raise InputError(f"{filename}: no edges")
    return EulerianDigraph(tuple(edges))


def _read_input(path: Optional[str]) -> Tuple[str, str]:
    if path is None or path == "-":
        return sys.stdin.read(), "<stdin>"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read(), path
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None


def _emit(args, payload: Dict, plain: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(plain)


def _whitney_payload(doc, result):
    return {
        "input_echo": doc.echo(),
        "result": str(result.polynomial),
        "method": result.method,
        "stats": {
            "nodes": result.stats.nodes,
            "memo_hits": result.stats.memo_hits,
            "terms": result.stats.terms,
        },
    }


def _cmd_whitney(args) -> int:
    text, fname = _read_input(args.input)
    doc = load_document(text, fname)
    h = doc.hypermap
    cap = None if args.no_size_guard else args.max_refinements
    if cap is not None and refinement_count(h.alpha) > cap:
        raise InstanceTooLarge(
            f"{refinement_count(h.alpha)} refinements exceed the cap of {cap}"
            " (raise with --max-refinements or --no-size-guard)"
        )
    processes = None
    if args.parallel:
        import os

        processes = os.cpu_count() or 1
    methods = ("brute", "phi", "psi") if args.method == "all" else (args.method,)
    results = {m: whitney(h, m, processes=processes) for m in methods}
    if args.check:
        check_methods = {"brute", "phi", "psi"}
        check = {m: whitney(h, m, processes=processes) for m in check_methods - set(methods)}
        check.update(results)
        polys = {m: r.polynomial for m, r in check.items()}
        distinct = {str(p) for p in polys.values()}
        if len(distinct) != 1:
            for m in sorted(polys):
                print(f"{m}: {polys[m]}", file=sys.stderr)
            print("error: whitney methods disagree", file=sys.stderr)
            return 1
    if args.method == "all":
        payload = {
            "input_echo": doc.echo(),
            "result": {m: str(results[m].polynomial) for m in methods},
            "method": "all",
            "stats": {
                m: {
                    "nodes": results[m].stats.nodes,
                    "memo_hits": results[m].stats.memo_hits,
                }
                for m in methods
            },
        }
        _emit(args, payload, "\n".join(str(results[m].polynomial) for m in methods))
    else:
        result = results[args.method]
        _emit(args, _whitney_payload(doc, result), str(result.polynomial))
    return 0


def _cmd_genus(args) -> int:
    text, fname = _read_input(args.input)
    doc = load_document(text, fname)
    h = doc.hypermap
    payload = {
        "input_echo": doc.echo(),
        "result": {"genus": h.genus, "kappa": h.kappa},
        "method": "euler",
        "stats": {},
    }
    _emit(args, payload, str(h.genus))
    return 0


def _cmd_dual(args) -> int:
    text, fname = _read_input(args.input)
    doc = load_document(text, fname)
    d = dual(doc.hypermap)
    payload = {
        "input_echo": doc.echo(),
        "result": {
            "sigma": doc.cycles_json(d.sigma),
            "alpha": doc.cycles_json(d.alpha),
        },
        "method": "dual",
        "stats": {},
    }
    plain = f"sigma: {doc.render_perm(d.sigma)}\nalpha: {doc.render_perm(d.alpha)}"
    _emit(args, payload, plain)
    return 0


def _signed_render(perm: Permutation) -> str:
    return "".join(
        "(" + " ".join(signed_name(p) for p in c) + ")" for c in perm.cycles()
    )


def _cmd_medial(args) -> int:
    text, fname = _read_input(args.input)
    doc = load_document(text, fname)
    m = medial_map(doc.hypermap)
    payload = {
        "input_echo": doc.echo(),
        "result": {
            "sigma_prime": [
                [signed_name(p) for p in c] for c in m.sigma_prime.cycles()
            ],
            "alpha_prime": [
                [signed_name(p) for p in c] for c in m.alpha_prime.cycles()
            ],
            "genus": m.genus,
        },
        "method": "medial",
        "stats": {},
    }
    plain = (
        f"sigma': {_signed_render(m.sigma_prime)}\n"
        f"alpha': {_signed_render(m.alpha_prime)}"
    )
    _emit(args, payload, plain)
    return 0


def _cmd_circuit_partition(args) -> int:
    text, fname = _read_input(args.input)
    doc = load_document(text, fname)
    cap = None if args.no_size_guard else args.max_refinements
    poly = circuit_partition_polynomial(medial_map(doc.hypermap), max_states=cap)
    payload = {
        "input_echo": doc.echo(),
        "result": poly.to_string("x"),
        "method": "states",
        "stats": {},
    }
    _emit(args, payload, poly.to_string("x"))
    return 0


def _cmd_wet_dry(args) -> int:
    text, fname = _read_input(args.input)
    doc = load_document(text, fname)
    poly = wet_dry_polynomial(doc.hypermap)
    payload = {
        "input_echo": doc.echo(),
        "result": str(poly),
        "method": "refinements",
        "stats": {},
    }
    _emit(args, payload, str(poly))
    return 0


def _cmd_charpoly(args) -> int:
    text, fname = _read_input(args.input)
    doc = load_document(text, fname)
    poly = characteristic_polynomial(doc.hypermap)
    payload = {
        "input_echo": doc.echo(),
        "result": poly.to_string("t"),
        "method": "mobius-sum",
        "stats": {},
    }
    _emit(args, payload, poly.to_string("t"))
    return 0


def _cmd_flowpoly(args) -> int:
    text, fname = _read_input(args.input)
    doc = load_document(text, fname)
    poly = flow_polynomial(doc.hypermap)
    payload = {
        "input_echo": doc.echo(),
        "result": poly.to_string("t"),
        "method": "mobius-sum",
        "stats": {},
    }
    _emit(args, payload, poly.to_string("t"))
    return 0


def _cmd_flows(args) -> int:
    text, fname = _read_input(args.input)
    doc = load_document(text, fname)
    h = doc.hypermap
    space = flow_space(h, args.q)
    if args.nowhere_zero:
        cap = None if args.no_size_guard else args.max_vectors
        count = nowhere_zero_flow_count(h, args.q, max_vectors=cap)
        method = "nowhere-zero-enumeration"
    else:
        count = space.count()
        method = "nullspace"
    payload = {
        "input_echo": doc.echo(),
        "result": {"count": count, "dimension": space.dimension, "q": args.q},
        "method": method,
        "stats": {},
    }
    _emit(args, payload, str(count))
    return 0


def _cmd_colorings(args) -> int:
    if args.m < 0:
        raise InputError(f"--m must be nonnegative, got {args.m}")
    text, fname = _read_input(args.input)
    doc = load_document(text, fname)
    h = doc.hypermap
    if args.eulerian:
        count = eulerian_coloring_sum(h, args.m)
        method = "eulerian-valence-sum"
    else:
        count = proper_coloring_count(h, args.m)
        method = "proper-enumeration"
    payload = {
        "input_echo": doc.echo(),
        "result": {"count": count, "m": args.m},
        "method": method,
        "stats": {},
    }
    _emit(args, payload, str(count))
    return 0


def _cmd_from_digraph(args) -> int:
    text, fname = _read_input(args.input)
    d = parse_digraph(text, fname)
    h = from_eulerian_digraph(d)
    doc = HypermapDocument(h, tuple(range(1, h.n + 1)))
    payload = {
        "input_echo": {"edges": [list(e) for e in d.edges]},
        "result": {
            "n": h.n,
            "sigma": doc.cycles_json(h.sigma),
            "alpha": doc.cycles_json(h.alpha),
        },
        "method": "greedy-interleave",
        "stats": {},
    }
    plain = f"sigma: {doc.render_perm(h.sigma)}\nalpha: {doc.render_perm(h.alpha)}"
    _emit(args, payload, plain)
    return 0


def _cmd_selftest(args) -> int:
    results = run_selftest(n_max=args.n_max, seed=args.seed)
    failed = [r for r in results if not r.ok]
    if args.json:
        payload = {
            "input_echo": {"n_max": args.n_max, "seed": args.seed},
            "result": [
                {"name": r.name, "ok": r.ok, "detail": r.detail} for r in results
            ],
            "method": "selftest",
            "stats": {"passed": len(results) - len(failed), "failed": len(failed)},
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for r in results:
            mark = "ok  " if r.ok else "FAIL"
            print(f"{mark} {r.name} ({r.detail})")
        print(
            f"selftest: {len(results) - len(failed)}/{len(results)} checks passed"
            f" (seed={args.seed}, n-max={args.n_max})"
        )
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypermap",
        description="Whitney polynomials and related invariants of hypermaps.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_guards=False):
        p.add_argument(
            "input",
            nargs="?",
            default=None,
            help="input file ('-' or omitted reads stdin)",
        )
        p.add_argument("--json", action="store_true", help="structured output")
        if with_guards:
            p.add_argument(
                "--max-refinements",
                type=int,
                default=DEFAULT_REFINEMENT_CAP,
                help="refinement stream size guard",
            )
            p.add_argument(
                "--no-size-guard",
                action="store_true",
                help="disable instance size guards",
            )

    p = sub.add_parser("whitney", help="Whitney polynomial R(u, v)")
    add_common(p, with_guards=True)
    p.add_argument(
        "--method",
        choices=("brute", "phi", "psi", "all"),
        default="phi",
        help="evaluation route (default phi)",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="run every route and fail on any mismatch",
    )
    p.add_argument(
        "--parallel",
        action="store_true",
        help="split the brute-force refinement sum over worker processes",
    )
    p.set_defaults(func=_cmd_whitney)

    p = sub.add_parser("genus", help="genus of the collection")
    add_common(p)
    p.set_defaults(func=_cmd_genus)

    p = sub.add_parser("dual", help="the dual pair (alpha^-1 sigma, alpha^-1)")
    add_common(p)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("medial", help="medial map on signed points")
    add_common(p)
    p.set_defaults(func=_cmd_medial)

    p = sub.add_parser(
        "circuit-partition", help="circuit partition polynomial of the medial map"
    )
    add_common(p, with_guards=True)
    p.set_defaults(func=_cmd_circuit_partition)

    p = sub.add_parser("wet-dry", help="wet/dry polynomial (genus zero)")
    add_common(p)
    p.set_defaults(func=_cmd_wet_dry)

    p = sub.add_parser("charpoly", help="characteristic polynomial chi(t)")
    add_common(p)
    p.set_defaults(func=_cmd_charpoly)

    p = sub.add_parser("flowpoly", help="flow polynomial C(t)")
    add_common(p)
    p.set_defaults(func=_cmd_flowpoly)

    p = sub.add_parser("flows", help="count flows over GF(q)")
    add_common(p)
    p.add_argument("--q", type=int, required=True, help="prime field size")
    p.add_argument(
        "--nowhere-zero",
        action="store_true",
        help="count only flows vanishing nowhere off buds",
    )
    p.add_argument(
        "--max-vectors",
        type=int,
        default=DEFAULT_FLOW_CAP,
        help="flow enumeration size guard",
    )
    p.add_argument(
        "--no-size-guard", action="store_true", help="disable the size guard"
    )
    p.set_defaults(func=_cmd_flows)

    p = sub.add_parser("colorings", help="count vertex colorings")
    add_common(p)
    p.add_argument("--m", type=int, required=True, help="number of colors")
    p.add_argument(
        "--eulerian",
        action="store_true",
        help="Eulerian edge-coloring valence sum instead of proper colorings",
    )
    p.set_defaults(func=_cmd_colorings)

    p = sub.add_parser(
        "from-digraph", help="build a collection from an Eulerian digraph edge list"
    )
    add_common(p)
    p.set_defaults(func=_cmd_from_digraph)

    p = sub.add_parser("selftest", help="run the identity check suite")
    p.add_argument("--n-max", type=int, default=7, help="point count bound")
    p.add_argument("--seed", type=int, default=0, help="corpus seed")
    p.add_argument("--json", action="store_true", help="structured output")
    p.set_defaults(func=_cmd_selftest)

    return parser


_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _parser
    sys.setrecursionlimit(10000)
    if _parser is None:  # built once per process; parse_args keeps no state
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, InstanceTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
