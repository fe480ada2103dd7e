"""Independent answer checks for the benchmark.

Nothing here imports ``hypermaps``: permutations are plain image lists
(index 0 unused, so ``p[i]`` is the image of point i), noncrossing
refinements are enumerated from restricted growth strings filtered for
crossings, and Moebius values come from the closed form
``mu(NC(k)) = (-1)^(k-1) Cat(k-1)`` multiplied over the cycles of
``beta^-1 gamma``.  Program output is parsed from its text or JSON form.

Every ``check_*`` function returns a list of problem strings; an empty list
means the answer passed.
"""

from __future__ import annotations

import json
import math
import re
from functools import lru_cache

# ---------------------------------------------------------------- permutations


def from_cycles(n, cycles):
    img = list(range(n + 1))
    for c in cycles:
        for a, b in zip(c, list(c[1:]) + [c[0]]):
            img[a] = b
    return img


def cycles_of(p):
    n = len(p) - 1
    seen = [False] * (n + 1)
    out = []
    for i in range(1, n + 1):
        if not seen[i]:
            cyc = []
            j = i
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = p[j]
            out.append(tuple(cyc))
    return out


def compose(p, q):
    """(p * q)(i) = p(q(i))."""
    return [0] + [p[q[i]] for i in range(1, len(p))]


def inverse(p):
    inv = [0] * len(p)
    for i in range(1, len(p)):
        inv[p[i]] = i
    return inv


def orbits(p, q):
    """Number of orbits of the group generated by p and q (union-find)."""
    parent = list(range(len(p)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(1, len(p)):
        for j in (p[i], q[i]):
            a, b = find(i), find(j)
            if a != b:
                parent[a] = b
    return sum(1 for i in range(1, len(p)) if find(i) == i)


def genus(sigma, alpha):
    n = len(sigma) - 1
    faces = compose(inverse(alpha), sigma)
    twice = (
        n
        + 2 * orbits(sigma, alpha)
        - len(cycles_of(sigma))
        - len(cycles_of(alpha))
        - len(cycles_of(faces))
    )
    return twice // 2


def dual(sigma, alpha):
    ainv = inverse(alpha)
    return compose(ainv, sigma), ainv


def catalan(m):
    return math.comb(2 * m, m) // (m + 1)


def narayana(n, k):
    return math.comb(n, k) * math.comb(n, k - 1) // n


def refinement_count(alpha):
    return math.prod(catalan(len(c)) for c in cycles_of(alpha))


# ------------------------------------------------- noncrossing refinements


@lru_cache(maxsize=None)
def nc_partitions(m):
    """Noncrossing set partitions of 0..m-1, from filtered growth strings."""
    out = []
    rgs = [0] * m

    def noncrossing():
        lo, hi, last = {}, {}, {}
        for i, b in enumerate(rgs):
            lo.setdefault(b, i)
            hi[b] = i
        for i, b in enumerate(rgs):
            x = last.get(b)
            if x is not None:
                for k in range(x + 1, i):
                    if lo[rgs[k]] < x or hi[rgs[k]] > i:
                        return False
            last[b] = i
        return True

    def rec(i, top):
        if i == m:
            if noncrossing():
                blocks = [[] for _ in range(top)]
                for pos, b in enumerate(rgs):
                    blocks[b].append(pos)
                out.append(tuple(tuple(b) for b in blocks))
            return
        for b in range(top + 1):
            rgs[i] = b
            rec(i + 1, max(top, b + 1))

    if m:
        rec(0, 0)
    else:
        out.append(())
    if len(out) != catalan(m):
        raise AssertionError(f"NC({m}) has {len(out)} elements, not Cat({m})")
    return tuple(out)


def refinements(alpha):
    """Every beta <= alpha: each block follows its parent cycle's order."""
    n = len(alpha) - 1
    parts = [(c, nc_partitions(len(c))) for c in cycles_of(alpha)]

    def rec(k, acc):
        if k == len(parts):
            yield from_cycles(n, acc)
            return
        c, ncs = parts[k]
        for part in ncs:
            yield from rec(k + 1, acc + [[c[p] for p in block] for block in part])

    yield from rec(0, [])


def mu_closed(beta, gamma):
    """Moebius value of [beta, gamma]: product over cycles of beta^-1 gamma."""
    out = 1
    for c in cycles_of(compose(inverse(beta), gamma)):
        k = len(c)
        out *= (-1) ** (k - 1) * catalan(k - 1)
    return out


def reference(sigma, alpha):
    """Refinement sums by direct enumeration: R, wet/dry, j, chi and C."""
    n = len(sigma) - 1
    ident = list(range(n + 1))
    ka = orbits(sigma, alpha)
    zs = len(cycles_of(sigma))
    R, WD, J, CHI, C = {}, {}, {}, {}, {}
    for beta in refinements(alpha):
        kb = orbits(sigma, beta)
        zb = len(cycles_of(beta))
        zf = len(cycles_of(compose(inverse(beta), sigma)))
        _add(R, (kb - ka, kb + n - zb - zs), 1)
        _add(WD, (kb, zf - kb), 1)
        _add(J, (zf,), 1)
        _add(CHI, (kb - ka,), mu_closed(ident, beta))
        _add(C, (n + kb - zb - zs,), mu_closed(beta, alpha))
    return {"R": R, "wetdry": WD, "j": J, "chi": CHI, "C": C}


def _add(d, k, c):
    d[k] = d.get(k, 0) + c
    if d[k] == 0:
        del d[k]


# ------------------------------------------------------------ output parsing

_FACTOR = re.compile(r"^(?:(\d+)|([a-z])(?:\^(-?\d+))?)$")


def parse_poly(text, variables):
    """Canonical polynomial text to {exponent tuple: coefficient}."""
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    sign = 1
    for tok in text.split():
        if tok in "+-":
            sign = 1 if tok == "+" else -1
            continue
        if tok.startswith("-"):
            sign, tok = -sign, tok[1:]
        coeff = 1
        expo = [0] * len(variables)
        for factor in tok.split("*"):
            m = _FACTOR.match(factor)
            if not m:
                raise ValueError(f"bad factor {factor!r} in {text!r}")
            if m.group(1):
                coeff *= int(m.group(1))
            else:
                expo[variables.index(m.group(2))] += int(m.group(3) or 1)
        _add(out, tuple(expo), sign * coeff)
        sign = 1
    return out


def parse_cycles(text):
    """'(1 2)(3)' to [[1, 2], [3]], keeping tokens like '3-' as strings."""
    return [c.split() for c in re.findall(r"\(([^()]*)\)", text)]


def perm_from_text(n, text):
    return from_cycles(n, [[int(x) for x in c] for c in parse_cycles(text)])


def _json_result(out):
    return json.loads(out)["result"]


# ------------------------------------------------------------- polynomials


def evaluate(poly, point):
    return sum(c * math.prod(x ** e for x, e in zip(point, k)) for k, c in poly.items())


def multiply(p, q):
    out = {}
    for a, c in p.items():
        for b, d in q.items():
            _add(out, tuple(x + y for x, y in zip(a, b)), c * d)
    return out


def swap_uv(poly):
    return {(b, a): c for (a, b), c in poly.items()}


def shift(poly, axis, d):
    return {tuple(e + d if i == axis else e for i, e in enumerate(k)): c for k, c in poly.items()}


def diagonal(R, kappa):
    """x^kappa R(x, x) as a univariate polynomial."""
    out = {}
    for (a, b), c in R.items():
        _add(out, (kappa + a + b,), c)
    return out


# ------------------------------------------------------------------ checks


def _expect(problems, ok, what):
    if not ok:
        problems.append(what)


def check_whitney(inst, R, others=()):
    """R(1,1) = prod Cat(|c|), agreement with other routes, Narayana, reference."""
    p = []
    sigma, alpha = inst["sigma"], inst["alpha"]
    _expect(p, evaluate(R, (1, 1)) == refinement_count(alpha), "R(1,1) != prod Cat")
    _expect(p, all(c > 0 for c in R.values()), "negative coefficient in R")
    for other in others:
        _expect(p, other == R, "whitney routes disagree")
    if sigma == list(range(len(sigma))) and len(cycles_of(alpha)) == 1:
        n = len(sigma) - 1
        want = {(k - 1, 0): narayana(n, k) for k in range(1, n + 1)}
        _expect(p, R == want, "identity sigma: coefficients are not Narayana numbers")
    ref = inst.get("ref")
    if ref is not None:
        _expect(p, R == ref["R"], "R differs from the refinement reference")
    return p


def check_dual_swap(R, R_dual):
    return [] if R_dual == swap_uv(R) else ["genus zero: R(dual) != R with u, v swapped"]


def check_wetdry(inst, WD, R):
    p = []
    _expect(p, WD == shift(R, 0, inst["kappa"]), "wet-dry != u^kappa R")
    if inst.get("ref") is not None:
        _expect(p, WD == inst["ref"]["wetdry"], "wet-dry differs from the reference")
    return p


def check_circuit(inst, J, R):
    p = []
    _expect(p, evaluate(J, (1,)) == refinement_count(inst["alpha"]), "j(1) != refinement count")
    if inst["genus"] == 0 and R is not None:
        _expect(p, J == diagonal(R, inst["kappa"]), "j(x) != x^kappa R(x, x)")
    if inst.get("ref") is not None:
        _expect(p, J == inst["ref"]["j"], "j differs from the reference")
    return p


def check_charflow(inst, poly, which):
    p = []
    _expect(p, poly == inst["ref"][which], f"{which} differs from the closed-form Moebius reference")
    if inst["alpha"] != list(range(len(inst["alpha"]))):
        _expect(p, evaluate(poly, (1,)) == 0, f"{which}(1) != 0")
    return p


def proper_colorings(sigma, alpha, m):
    vertex = [0] * len(sigma)
    for idx, c in enumerate(cycles_of(sigma)):
        for x in c:
            vertex[x] = idx
    edges = [[vertex[x] for x in c] for c in cycles_of(alpha) if len(c) > 1]
    if any(len(set(e)) != len(e) for e in edges):
        return 0
    nv = len(cycles_of(sigma))
    count = 0
    for code in range(m ** nv):
        col = [(code // m ** i) % m for i in range(nv)]
        if all(len({col[v] for v in e}) == len(e) for e in edges):
            count += 1
    return count


def medial(sigma, alpha):
    """Signed-point medial map as sets of cycles in 'i-'/'i+' names."""
    n = len(sigma) - 1
    sp = {tuple(x for i in c for x in (f"{i}-", f"{i}+")) for c in cycles_of(alpha)}
    ap = {(f"{i}+", f"{sigma[i]}-") for i in range(1, n + 1)}
    return sp, ap


def _rot_min(cycles):
    """Cycles as sets of rotation-normalised tuples (start at the least point)."""
    def key(x):
        return (int(x[:-1]), x[-1]) if isinstance(x, str) else (x, "")

    out = set()
    for c in cycles:
        c = list(c)
        k = c.index(min(c, key=key))
        out.add(tuple(c[k:] + c[:k]))
    return out


def digraph_degrees(edges):
    deg = {}
    for t, h in edges:
        deg.setdefault(t, [0, 0])[1] += 1
        deg.setdefault(h, [0, 0])[0] += 1
    return sorted(tuple(v) for v in deg.values())


def check_op(op, inst, out, outputs_by_kind):
    """Check one answer of a cli-style subcommand; returns problem strings."""
    kind = op["kind"]
    js = op.get("json", False)
    n = inst.get("n")
    if kind == "from-digraph":
        res = _json_result(out) if js else None
        if js:
            nn = res["n"]
            sig = from_cycles(nn, res["sigma"])
            alf = from_cycles(nn, res["alpha"])
        else:
            lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
            nn = len(inst["edges"])
            sig = perm_from_text(nn, lines["sigma"])
            alf = perm_from_text(nn, lines["alpha"])
        owner = [0] * (nn + 1)
        for idx, c in enumerate(cycles_of(alf), start=1):
            for x in c:
                owner[x] = idx
        got = digraph_degrees([(owner[i], owner[sig[i]]) for i in range(1, nn + 1)])
        p = []
        _expect(p, nn == len(inst["edges"]), "from-digraph: point count != edge count")
        _expect(p, got == digraph_degrees(inst["edges"]), "from-digraph: degrees not round-tripped")
        return p
    sigma, alpha = inst["sigma"], inst["alpha"]
    if kind == "genus":
        if js:
            res = _json_result(out)
            return [] if (res["genus"], res["kappa"]) == (inst["genus"], inst["kappa"]) else ["genus/kappa mismatch"]
        return [] if int(out) == inst["genus"] else ["genus mismatch"]
    if kind == "dual":
        ds, da = dual(sigma, alpha)
        if js:
            res = _json_result(out)
            gs, ga = from_cycles(n, res["sigma"]), from_cycles(n, res["alpha"])
        else:
            lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
            gs, ga = perm_from_text(n, lines["sigma"]), perm_from_text(n, lines["alpha"])
        return [] if (gs, ga) == (ds, da) else ["dual mismatch"]
    if kind == "medial":
        sp, ap = medial(sigma, alpha)
        if js:
            res = _json_result(out)
            got_s, got_a = res["sigma_prime"], res["alpha_prime"]
            if res["genus"] != inst["genus"]:
                return ["medial genus mismatch"]
        else:
            lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
            got_s, got_a = parse_cycles(lines["sigma'"]), parse_cycles(lines["alpha'"])
        ok = _rot_min(got_s) == _rot_min(sp) and _rot_min(got_a) == _rot_min(ap)
        return [] if ok else ["medial map mismatch"]
    if kind == "flows":
        q = op["q"]
        dim = n + inst["kappa"] - len(cycles_of(sigma)) - len(cycles_of(alpha))
        count = _json_result(out)["count"] if js else int(out)
        return [] if count == q ** dim else ["flow count != q^(n+kappa-z(sigma)-z(alpha))"]
    if kind == "colorings":
        m = op["m"]
        count = _json_result(out)["count"] if js else int(out)
        if op.get("eulerian"):
            R = inst["ref"]["R"] if inst.get("ref") else outputs_by_kind["whitney"]
            want = m ** inst["kappa"] * evaluate(R, (m, m))
            return [] if count == want else ["eulerian coloring sum != m^kappa R(m, m)"]
        return [] if count == proper_colorings(sigma, alpha, m) else ["proper coloring count mismatch"]
    text = _json_result(out) if js else out
    if kind == "whitney":
        return check_whitney(inst, parse_poly(text, "uv"))
    if kind == "wet-dry":
        return check_wetdry(inst, parse_poly(text, "uv"), outputs_by_kind["whitney"])
    if kind == "circuit-partition":
        return check_circuit(inst, parse_poly(text, "x"), outputs_by_kind.get("whitney"))
    if kind == "charpoly":
        return check_charflow(inst, parse_poly(text, "t"), "chi")
    if kind == "flowpoly":
        return check_charflow(inst, parse_poly(text, "t"), "C")
    return [f"no check for {kind}"]
