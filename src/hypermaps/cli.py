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
out-of-range points are rejected with the offending line and value named,
and so is any integer of more than ``MAX_DIGITS`` digits; an explicit ``n``
above ``MAX_POINTS`` is refused with its line named, and a document without
``n`` that names more than ``MAX_POINTS`` distinct points with its file named.

Every subcommand reads its input from a file argument (``-`` or nothing
means stdin), prints deterministic canonical text, and with ``--json`` emits
an object with the keys input_echo, result, method, stats.  Domain errors
and command lines that cannot be read exit with status 2 and a one line
message; ``--check`` mismatches and selftest failures exit with status 1.
Results print at any length; only inputs are bounded, by ``MAX_DIGITS``.

The subcommands are the rows of one table, ``COMMANDS``.  A row holds the
help text, the input kind (a hypermap document, a digraph edge list, or
none), the flags beyond the input argument, and a compute function that
returns (result, plain text, method, stats).  ``parse_args`` reads a
command line off its row, help text included, and ``_run`` reads and loads
the input, calls the compute function, and prints the plain text or the
JSON payload.

A process runs one subcommand, so each compute function imports the modules
it runs (charflow, medial, selftest) and ``json`` loads where JSON is used.
"""

from __future__ import annotations

import re
import sys
from types import SimpleNamespace
from typing import (
    TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple
)

from . import __version__
from .hypermap import Hypermap, dual
from .nclattice import refinement_count
from .perm import Permutation
from .whitney import (
    METHODS, InstanceTooLarge, over_cap, wet_dry_polynomial, whitney
)

if TYPE_CHECKING:
    from .medial import EulerianDigraph

DEFAULT_REFINEMENT_CAP = 10 ** 6
# Longest integer any input may hold: CPython's default int(str) bound, checked by
# length so every interpreter answers alike.
MAX_DIGITS = 4300
# Largest point count, explicit n or distinct points, refused before any point
# table is built.
MAX_POINTS = 10 ** 6
# Largest selftest --n-max; its run time about triples with each step.
MAX_SELFTEST_N = 10


class InputError(ValueError):
    """Malformed command line, document or digraph input."""


def _int(digits: str, loc: str, what: str) -> int:
    if len(digits.lstrip("-")) > MAX_DIGITS:
        raise InputError(f"{loc}: {what} has more than {MAX_DIGITS} digits")
    try:
        return int(digits)
    except ValueError:  # only a flag's value reaches here unchecked
        raise InputError(f"{loc}: {what} {digits!r} is not an integer") from None


class HypermapDocument(NamedTuple):
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


def _parse_cycle_text(line: str, where: str, first_col: int) -> List[List[int]]:
    """Cycles such as ``(1 2)(3)``; first_col is the column of line[0].

    A line that is exactly ``()`` is the permutation of no points, as
    ``HypermapDocument.render_perm`` prints it; an empty cycle among others
    is refused.
    """
    if line == "()":
        return []
    cycles: List[List[int]] = []
    current: Optional[List[int]] = None
    token = ""

    def flush_token(end_col: int):
        nonlocal token
        if token:
            if current is None:
                raise InputError(f"{where}: point {token} outside any cycle")
            current.append(_int(token, f"{where}:{end_col - len(token)}", "point"))
            token = ""

    for col, ch in enumerate(line, start=first_col):
        if ch == "(":
            if current is not None:
                raise InputError(f"{where}:{col}: nested '('")
            current = []
        elif ch == ")":
            flush_token(col)
            if current is None:
                raise InputError(f"{where}:{col}: unmatched ')'")
            if not current:
                raise InputError(f"{where}:{col}: empty cycle")
            cycles.append(current)
            current = None
        elif "0" <= ch <= "9":
            token += ch
        elif ch in " \t,":
            flush_token(col)
        else:
            raise InputError(f"{where}:{col}: unexpected character {ch!r}")
    if current is not None:
        raise InputError(f"{where}: unterminated cycle")
    flush_token(first_col + len(line))
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
            if not cyc:
                raise InputError(f"{where[key]}: empty cycle")
            for p in cyc:
                if not isinstance(p, int) or isinstance(p, bool) or p < 1:
                    import json  # points of cycle text are ints, which JSON shows alike
                    raise InputError(f"{where[key]}: bad point {json.dumps(p)}")
                if p in seen:
                    raise InputError(f"{where[key]}: duplicate point {p}")
                seen.add(p)
    points = (
        {p for cyc in sigma_cycles for p in cyc}
        | {p for cyc in alpha_cycles for p in cyc}
    )
    if n is None and len(points) > MAX_POINTS:
        raise InputError(
            f"{where['n']}: {len(points)} distinct points, more than {MAX_POINTS}"
        )
    points = sorted(points)
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
        first_col = raw.find(value, raw.index(":")) + 1
        if key == "sigma":
            if sigma_cycles is not None:
                raise InputError(f"{loc}: sigma given twice")
            sigma_cycles = _parse_cycle_text(value, loc, first_col)
            where["sigma"] = loc
        elif key == "alpha":
            if alpha_cycles is not None:
                raise InputError(f"{loc}: alpha given twice")
            alpha_cycles = _parse_cycle_text(value, loc, first_col)
            where["alpha"] = loc
        elif key == "n":
            if not re.fullmatch("[0-9]+", value):
                raise InputError(f"{loc}: n must be a nonnegative integer")
            n = _int(value, loc, "n")
            if n > MAX_POINTS:
                raise InputError(f"{loc}: n must be at most {MAX_POINTS}")
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


def _long_integer_line(text: str) -> int:
    """Line of the first JSON integer longer than MAX_DIGITS, strings blanked."""
    bare = re.sub(r'"(?:[^"\\]|\\.)*"', '""', text)
    long_int = r"(?<![-+.eE0-9])-?[0-9]{%d,}(?![.eE0-9])" % (MAX_DIGITS + 1)
    found = re.search(long_int, bare)
    return bare.count("\n", 0, found.start() if found else 0) + 1


def _top_level_key_line(text: str, key: str) -> int:
    """Line of the last top-level ``key`` of a JSON object, the one json keeps."""
    import json
    line, depth = 1, 0
    for m in re.finditer(r'("(?:[^"\\]|\\.)*")(\s*:)?|[\[{]|[\]}]', text):
        if m.group(1) is None:
            depth += 1 if m.group() in "[{" else -1
        elif depth == 1 and m.group(2) and json.loads(m.group(1)) == key:
            line = text.count("\n", 0, m.start()) + 1
    return line


def parse_hypermap_json(text: str, filename: str = "<input>") -> HypermapDocument:
    import json

    def parse_int(digits: str) -> int:  # looks the line up only if it may refuse
        return _int(digits, filename if len(digits) <= MAX_DIGITS
                    else f"{filename}:{_long_integer_line(text)}", "integer")

    try:
        obj = json.loads(text, parse_int=parse_int)
    except json.JSONDecodeError as exc:
        raise InputError(f"{filename}: invalid JSON: {exc}") from None
    except RecursionError:
        raise InputError(f"{filename}: JSON nested too deeply") from None
    if not isinstance(obj, dict):
        raise InputError(f"{filename}: top level must be an object")
    unknown = set(obj) - {"n", "sigma", "alpha", "name"}
    if unknown:
        raise InputError(f"{filename}: unknown keys {json.dumps(sorted(unknown))}")
    for key in ("sigma", "alpha"):
        if key not in obj:
            raise InputError(f"{filename}: missing key {json.dumps(key)}")
        val = obj[key]
        if not isinstance(val, list) or not all(isinstance(c, list) for c in val):
            raise InputError(f"{filename}: {key} must be a list of cycles")
    n = obj.get("n")
    if n is not None and (not isinstance(n, int) or isinstance(n, bool) or n < 0):
        raise InputError(f"{filename}: n must be a nonnegative integer")
    if n is not None and n > MAX_POINTS:
        line = _top_level_key_line(text, "n")
        raise InputError(f"{filename}:{line}: n must be at most {MAX_POINTS}")
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise InputError(f"{filename}: name must be a string")
    where = {"sigma": filename, "alpha": filename, "n": filename}
    return _build_document(obj["sigma"], obj["alpha"], n, name, where)


def load_document(text: str, filename: str = "<input>") -> HypermapDocument:
    stripped = text.lstrip()
    if stripped.startswith(("{", "[")):
        return parse_hypermap_json(text, filename)
    return parse_hypermap_text(text, filename)


def parse_digraph(text: str, filename: str = "<input>") -> EulerianDigraph:
    from .medial import EulerianDigraph
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
        if not all(re.fullmatch("-?[0-9]+", x) for x in parts):
            raise InputError(f"{filename}:{lineno}: vertices must be integers")
        edges.append(tuple(_int(x, f"{filename}:{lineno}", "vertex") for x in parts))
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
        raise InputError(f"cannot read {path!r}: {exc.strerror}") from None


def _emit(args, payload: Dict, plain: str) -> None:
    if args.json:
        import json
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(plain)


class CheckFailed(Exception):
    """The routes of ``whitney --check`` disagree; main exits with status 1."""


def _pair_output(doc: HypermapDocument, g: Hypermap) -> Tuple[Dict, str]:
    result = {"sigma": doc.cycles_json(g.sigma), "alpha": doc.cycles_json(g.alpha)}
    plain = f"sigma: {doc.render_perm(g.sigma)}\nalpha: {doc.render_perm(g.alpha)}"
    return result, plain


def _whitney(args, doc: HypermapDocument):
    h = doc.hypermap
    count = None if args.no_size_guard else refinement_count(h.alpha)
    if count is not None and count > args.max_refinements:
        raise InstanceTooLarge(
            over_cap(count, "refinements", args.max_refinements)
            + " (raise with --max-refinements or --no-size-guard)"
        )
    methods = METHODS if args.method == "all" else (args.method,)
    runs = {m: whitney(h, m) for m in (METHODS if args.check else methods)}
    polys = {m: str(r.polynomial) for m, r in runs.items()}
    if args.check and len(set(polys.values())) != 1:
        for m in sorted(polys):
            print(f"{m}: {polys[m]}", file=sys.stderr)
        raise CheckFailed("whitney methods disagree")
    if args.method != "all":
        s = runs[args.method].stats
        stats = {"nodes": s.nodes, "memo_hits": s.memo_hits, "terms": s.terms}
        return polys[args.method], polys[args.method], args.method, stats
    stats = {
        m: {"nodes": runs[m].stats.nodes, "memo_hits": runs[m].stats.memo_hits}
        for m in methods
    }
    result = {m: polys[m] for m in methods}
    return result, "\n".join(result.values()), "all", stats


def _genus(args, doc: HypermapDocument):
    h = doc.hypermap
    return {"genus": h.genus, "kappa": h.kappa}, str(h.genus), "euler", {}


def _dual(args, doc: HypermapDocument):
    return (*_pair_output(doc, dual(doc.hypermap)), "dual", {})


def _medial(args, doc: HypermapDocument):
    from .medial import medial_map, signed_name
    m = medial_map(doc.hypermap)
    sig = [[signed_name(p) for p in c] for c in m.sigma_prime.cycles()]
    alf = [[signed_name(p) for p in c] for c in m.alpha_prime.cycles()]

    def render(cycles):
        return "".join("(" + " ".join(c) + ")" for c in cycles)

    result = {"sigma_prime": sig, "alpha_prime": alf, "genus": m.genus}
    return result, f"sigma': {render(sig)}\nalpha': {render(alf)}", "medial", {}


def _circuit_partition(args, doc: HypermapDocument):
    from .medial import circuit_partition_polynomial
    h = doc.hypermap
    cap = None if args.no_size_guard else args.max_refinements
    poly = circuit_partition_polynomial(h, max_states=cap)
    method = "dp" if h.genus == 0 else "states"
    return poly.to_string("x"), poly.to_string("x"), method, {}


def _wet_dry(args, doc: HypermapDocument):
    poly = str(wet_dry_polynomial(doc.hypermap))
    return poly, poly, "dp", {}


def _charpoly(args, doc: HypermapDocument):
    from .charflow import characteristic_polynomial
    poly = characteristic_polynomial(doc.hypermap).to_string("t")
    return poly, poly, "dp", {}


def _flowpoly(args, doc: HypermapDocument):
    from .charflow import flow_polynomial
    poly = flow_polynomial(doc.hypermap).to_string("t")
    return poly, poly, "dp", {}


def _flows(args, doc: HypermapDocument):
    from .charflow import check_prime, nowhere_zero_flow_count
    h = doc.hypermap
    check_prime(args.q)
    # The cycle-sum matrix is totally unimodular, so its rank holds in every field.
    dimension = h.n + h.kappa - h.sigma.cycle_count - h.alpha.cycle_count
    if args.nowhere_zero:
        count, method = nowhere_zero_flow_count(h, args.q), "dp"
    else:
        count, method = args.q ** dimension, "euler"
    result = {"count": count, "dimension": dimension, "q": args.q}
    return result, str(count), method, {}


def _colorings(args, doc: HypermapDocument):
    if args.eulerian:
        from .medial import eulerian_coloring_sum as count_colorings
    else:
        from .charflow import proper_coloring_count as count_colorings
    count = count_colorings(doc.hypermap, args.m)
    return {"count": count, "m": args.m}, str(count), "dp", {}


def _from_digraph(args, d: EulerianDigraph):
    from .medial import from_eulerian_digraph
    h = from_eulerian_digraph(d)
    result, plain = _pair_output(HypermapDocument(h, tuple(range(1, h.n + 1))), h)
    return {"n": h.n, **result}, plain, "greedy-interleave", {}


def _selftest(args, _):
    from .selftest import run_selftest
    results = run_selftest(n_max=args.n_max, seed=args.seed)
    failed = sum(not r.ok for r in results)
    passed = len(results) - failed
    lines = [f"{'ok  ' if r.ok else 'FAIL'} {r.name} ({r.detail})" for r in results]
    lines.append(
        f"selftest: {passed}/{len(results)} checks passed"
        f" (seed={args.seed}, n-max={args.n_max})"
    )
    result = [{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results]
    return result, "\n".join(lines), "selftest", {"passed": passed, "failed": failed}


class Flag(NamedTuple):
    name: str  # "--max-refinements" reads into the attribute max_refinements
    help: str
    kind: str  # "switch", "int" or "choice"
    default: object = None  # an int flag without one is required
    choices: Tuple[str, ...] = ()


class Command(NamedTuple):
    help: str
    kind: Optional[str]  # "hypermap", "digraph", or None: no input is read
    flags: Tuple[Flag, ...]  # in help order
    compute: Callable


def _switch(flag: str, help: str) -> Flag:
    return Flag(flag, help, "switch", False)


def _integer(flag: str, help: str, default: Optional[int] = None) -> Flag:
    """An int flag; it is required when it has no default."""
    return Flag(flag, help, "int", default)


_JSON = _switch("--json", "structured output")
_GUARDS = (
    _integer(
        "--max-refinements", "refinement stream size guard", DEFAULT_REFINEMENT_CAP
    ),
    _switch("--no-size-guard", "disable instance size guards"),
)

COMMANDS: Dict[str, Command] = {
    "whitney": Command(
        "Whitney polynomial R(u, v)",
        "hypermap",
        (
            _JSON,
            *_GUARDS,
            Flag(
                "--method",
                "evaluation route; brute, phi and psi are check routes",
                "choice",
                "dp",
                (*METHODS, "all"),
            ),
            _switch("--check", "run every route and fail on any mismatch"),
        ),
        _whitney,
    ),
    "genus": Command("genus of the collection", "hypermap", (_JSON,), _genus),
    "dual": Command(
        "the dual pair (alpha^-1 sigma, alpha^-1)", "hypermap", (_JSON,), _dual
    ),
    "medial": Command("medial map on signed points", "hypermap", (_JSON,), _medial),
    "circuit-partition": Command(
        "circuit partition polynomial of the medial map",
        "hypermap",
        (_JSON, *_GUARDS),
        _circuit_partition,
    ),
    "wet-dry": Command(
        "wet/dry polynomial (genus zero)", "hypermap", (_JSON,), _wet_dry
    ),
    "charpoly": Command(
        "characteristic polynomial chi(t)", "hypermap", (_JSON,), _charpoly
    ),
    "flowpoly": Command("flow polynomial C(t)", "hypermap", (_JSON,), _flowpoly),
    "flows": Command(
        "count flows over GF(q)",
        "hypermap",
        (
            _JSON,
            _integer("--q", "prime field size"),
            _switch("--nowhere-zero", "count only flows vanishing nowhere off buds"),
        ),
        _flows,
    ),
    "colorings": Command(
        "count vertex colorings",
        "hypermap",
        (
            _JSON,
            _integer("--m", "number of colors"),
            _switch(
                "--eulerian",
                "Eulerian edge-coloring valence sum instead of proper colorings",
            ),
        ),
        _colorings,
    ),
    "from-digraph": Command(
        "build a collection from an Eulerian digraph edge list",
        "digraph",
        (_JSON,),
        _from_digraph,
    ),
    "selftest": Command(
        "run the identity check suite",
        None,
        (
            _integer("--n-max", f"point count bound, 1..{MAX_SELFTEST_N}", 7),
            _integer("--seed", "corpus seed", 0),
            _JSON,
        ),
        _selftest,
    ),
}


def _run(args) -> int:
    command = COMMANDS[args.command]
    for name in ("m", "max_refinements"):  # before any input
        if getattr(args, name, 0) < 0:
            flag = "--" + name.replace("_", "-")
            raise InputError(f"{flag} must be nonnegative, got {getattr(args, name)}")
    if not 1 <= getattr(args, "n_max", 1) <= MAX_SELFTEST_N:
        raise InputError(
            f"--n-max must be between 1 and {MAX_SELFTEST_N}, got {args.n_max}"
        )
    if command.kind is None:
        data, echo = None, {"n_max": args.n_max, "seed": args.seed}
    else:
        text, fname = _read_input(args.input)
        if command.kind == "digraph":
            data = parse_digraph(text, fname)
            echo = {"edges": [list(e) for e in data.edges]}
        else:
            data = load_document(text, fname)
            echo = data.echo()
    result, plain, method, stats = command.compute(args, data)
    payload = {"input_echo": echo, "result": result, "method": method, "stats": stats}
    _emit(args, payload, plain)
    return 1 if stats.get("failed") else 0  # failed selftest checks


class HelpRequested(Exception):
    """-h, --help or --version; main prints the text and exits with status 0."""


# A token that reads as a negative number is a value, not a flag.
_NEGATIVE = re.compile(r"-[0-9]+|-[0-9]*\.[0-9]+")


def _is_flag(token: str) -> bool:
    return token.startswith("-") and token != "-" and not _NEGATIVE.fullmatch(token)


def _match(name: str, names: Sequence[str]) -> str:
    """The flag that name is or, as a prefix, names alone."""
    if name in names:
        return name
    found = [n for n in names if n.startswith(name)]
    if len(found) == 1:
        return found[0]
    if found:
        raise InputError(f"ambiguous flag {name!r}: {', '.join(found)}")
    raise InputError(f"unknown flag {name!r}")


def _columns(rows: Sequence[Tuple[str, str]]) -> str:
    width = max(len(left) for left, _ in rows) + 2
    return "\n".join(f"  {left:<{width}}{right}" for left, right in rows)


def _usage() -> str:
    rows = [(name, command.help) for name, command in COMMANDS.items()]
    return (
        "usage: hypermap [-h] [--version] COMMAND [INPUT] [FLAGS]\n\n"
        "Whitney polynomials and related invariants of hypermaps.\n\n"
        f"commands:\n{_columns(rows)}\n\n"
        "'hypermap COMMAND --help' lists the flags of a command."
    )


def _command_usage(name: str, command: Command) -> str:
    rows = [("INPUT", "input file ('-' or omitted reads stdin)")] if command.kind else []
    for f in command.flags:
        if f.kind == "switch":
            rows.append((f.name, f.help))
            continue
        value = "N" if f.kind == "int" else "{" + ",".join(f.choices) + "}"
        note = "required" if f.default is None else f"default {f.default}"
        rows.append((f"{f.name}={value}", f"{f.help} ({note})"))
    rows.append(("-h, --help", "show this help"))
    head = f"usage: hypermap {name}{' [INPUT]' if command.kind else ''} [FLAGS]"
    return f"{head}\n\n{command.help}\n\n{_columns(rows)}"


def parse_args(argv: Optional[Sequence[str]] = None) -> SimpleNamespace:
    """The command and its flags, read off the command's ``COMMANDS`` row.

    The namespace holds ``command``, ``input`` when the command reads one,
    and one attribute per flag.  A value follows its flag after ``=`` or as
    the next argument; a flag may be cut to a prefix that names it alone;
    the last of a repeated flag wins; the input may stand anywhere, and
    ``--`` ends the flags.  A command line that cannot be read raises
    InputError with one line; help and the version raise HelpRequested.
    """
    tokens = iter(sys.argv[1:] if argv is None else argv)
    name = next(tokens, None)
    if name is None:
        raise InputError(f"missing command: one of {', '.join(COMMANDS)}")
    if _is_flag(name):
        flag = _match(name.partition("=")[0], ("-h", "--help", "--version"))
        raise HelpRequested(__version__ if flag == "--version" else _usage())
    command = COMMANDS.get(name)
    if command is None:
        raise InputError(f"unknown command {name!r}: one of {', '.join(COMMANDS)}")
    flags = {f.name: f for f in command.flags}
    names = (*flags, "-h", "--help")
    values = {f.name: f.default for f in command.flags}
    inputs: List[str] = []
    for token in tokens:
        if token == "--":
            inputs.extend(tokens)
        elif not _is_flag(token):
            inputs.append(token)
        else:
            key, eq, text = token.partition("=")
            key = _match(key, names)
            if key not in flags:
                raise HelpRequested(_command_usage(name, command))
            flag = flags[key]
            if flag.kind == "switch":
                if eq:
                    raise InputError(f"{key} takes no value, got {text!r}")
                values[key] = True
                continue
            if not eq:
                text = next(tokens, None)
                if text is None or _is_flag(text):
                    raise InputError(f"{key} needs a value")
            if flag.kind == "int":
                values[key] = _int(text, key, "value")
            elif text in flag.choices:
                values[key] = text
            else:
                choices = ", ".join(flag.choices)
                raise InputError(f"{key} must be one of {choices}, got {text!r}")
    missing = [key for key, value in values.items() if value is None]
    if missing:
        raise InputError(f"{name} needs {' and '.join(missing)}")
    if len(inputs) > (command.kind is not None):
        raise InputError(f"unexpected argument {inputs[-1]!r}")
    args = SimpleNamespace(command=name)
    if command.kind is not None:
        args.input = inputs[0] if inputs else None
    for key, value in values.items():
        setattr(args, key[2:].replace("-", "_"), value)
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    sys.setrecursionlimit(10000)
    if hasattr(sys, "set_int_max_str_digits"):  # 3.11+; _int bounds every input
        sys.set_int_max_str_digits(0)  # so a count of any length prints
    try:
        return _run(parse_args(argv))
    except HelpRequested as exc:
        print(exc)
        return 0
    except CheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError) as exc:  # InputError, InstanceTooLarge
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
