"""Seeded inputs for the four workloads.

``build(workload, seed)`` returns ``(instances, ops, extras)``:

* an instance is a dict with the pair (``sigma``, ``alpha`` as image lists,
  index 0 unused), its ``n``, ``genus``, ``kappa``, the ``stdin`` text fed
  to the program and, where it is cheap, an independent ``ref`` of its
  refinement sums (for a long disjoint union, R alone, from its pieces);
* an op is one subcommand call: ``argv`` plus the instance it reads;
* extras are program calls made once, after the timed rounds, whose answers
  only serve the checks (the Whitney polynomial of the benchmark's own dual).

Each slot of a workload fixes the shape of an instance (point count and
cycle type); the seed picks the instance inside that shape.  Cost is set
mostly by the shape, so runs with different seeds do comparable work.
"""

from __future__ import annotations

import json
import random

import verify as V

WORKLOADS = ("whitney-recursion", "refinement-sums", "mobius-cold", "cli-corpus")

# whitney-recursion: alpha is the cycle (1 2 ... n), or on a union one such
# cycle per consecutive block of points, and sigma is the identity ("id") or
# a random permutation of the given cycle type.  Labels are kept in that
# order, because the recursion pivots on the least point: with shuffled
# labels, or with sigma of two or more cycles, the cost of one instance
# spreads by 25% from seed to seed, against 1% for these shapes.  The
# relabelled unions are the exception, kept small: their pieces interleave
# under the pivot, which is where a memo factored by component pays.
WR_SHAPES = [
    ([(10, "id")], False),
    ([(11, "id")], False),
    ([(12, "id")], False),
    ([(11, [11])], False),
    ([(12, [12])], False),
    ([(8, [8]), (7, [7])], False),
    ([(6, [6]), (5, [5])], True),
    ([(5, [5]), (5, [5])], True),
]

# refinement-sums: genus zero connected shapes by alpha's cycle type, with
# the number of sigma-cycles for one-cycle alpha, then higher-genus
# collections given by (alpha type, sigma type) that run brute force only.
RS_PLANAR = [([9], 3), ([7, 3], None), ([6, 4], None)]
RS_HIGHER = [([7, 3], [4, 3, 3]), ([5, 4, 2], [6, 5])]

# mobius-cold: alpha cycle types; sigma is any permutation.
MC_SHAPES = [[6, 2], [5, 3], [4, 4]]

# cli-corpus: (alpha cycle type, planar?) for small collections, and
# Eulerian digraphs given as (vertices, edges).
CC_SHAPES = [
    ([5, 3], True), ([4, 2, 2], True), ([5, 2], True), ([3, 3, 2], True),
    ([4, 4], False), ([5, 3], False), ([3, 2, 2, 1], False), ([4, 3], False),
]
CC_DIGRAPHS = [(4, 8), (5, 10), (3, 6)]


def perm_of_type(rng, points, lengths):
    pts = list(points)
    rng.shuffle(pts)
    cycles, i = [], 0
    for k in lengths:
        cycles.append(pts[i : i + k])
        i += k
    return cycles


def random_perm(rng, n):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return V.cycles_of([0] + images)


def random_nc_refinement(rng, cycle, blocks=None, type_=None):
    """A noncrossing refinement of one cycle with a given block count or type."""
    parts = [
        p
        for p in V.nc_partitions(len(cycle))
        if (blocks is None or len(p) == blocks)
        and (type_ is None or sorted(map(len, p), reverse=True) == type_)
    ]
    return [[cycle[i] for i in b] for b in rng.choice(parts)]


def planar_pair(rng, gamma, atype):
    """Genus zero and connected: alpha refines the n-cycle gamma with the
    given type, and sigma = alpha gamma^-1, so gamma^-1 is the only face."""
    n = len(gamma)
    alpha = random_nc_refinement(rng, gamma, type_=atype)
    a = V.from_cycles(n, alpha)
    return V.cycles_of(V.compose(a, V.inverse(V.from_cycles(n, [gamma])))), alpha


def make_instance(n, sigma_cycles, alpha_cycles, ref_limit=0, as_json=False):
    sigma = V.from_cycles(n, sigma_cycles)
    alpha = V.from_cycles(n, alpha_cycles)
    inst = {
        "n": n,
        "sigma": sigma,
        "alpha": alpha,
        "genus": V.genus(sigma, alpha),
        "kappa": V.orbits(sigma, alpha),
    }
    inst["stdin"] = render(sigma, alpha, as_json)
    if V.refinement_count(alpha) <= ref_limit:
        inst["ref"] = V.reference(sigma, alpha)
    return inst


def union_reference(parts, ref_limit):
    """R of a disjoint union as the product of its pieces' reference sums.

    ``parts`` holds ``(n, sigma cycles, alpha cycles)`` of each piece on the
    points 1..n.  R is multiplicative over disjoint unions, because orbit,
    cycle and point counts add up; this checks a union whose own refinement
    sum is too long to enumerate.  None if a piece is itself too long.
    """
    R = {(0, 0): 1}
    for n, sigma_cycles, alpha_cycles in parts:
        alpha = V.from_cycles(n, alpha_cycles)
        if V.refinement_count(alpha) > ref_limit:
            return None
        R = V.multiply(R, V.reference(V.from_cycles(n, sigma_cycles), alpha)["R"])
    return R


def render(sigma, alpha, as_json=False):
    n = len(sigma) - 1
    if as_json:
        return json.dumps({"n": n, "sigma": V.cycles_of(sigma), "alpha": V.cycles_of(alpha)})
    text = lambda p: "".join("(" + " ".join(map(str, c)) + ")" for c in V.cycles_of(p))
    return f"sigma: {text(sigma)}\nalpha: {text(alpha)}\n"


def _relabel(rng, n, *cycle_lists):
    r = list(range(1, n + 1))
    rng.shuffle(r)
    return [[[r[x - 1] for x in c] for c in cl] for cl in cycle_lists]


def _whitney_recursion(rng, smoke):
    shapes = [([(6, "id")], False), ([(6, [3, 3])], False), ([(4, [4]), (3, [2, 1])], True)] if smoke else WR_SHAPES
    instances, ops = [], []
    for pieces, relabel in shapes:
        sig, alf, parts, base = [], [], [], 0
        for n, typ in pieces:
            pts = list(range(1, n + 1))
            s = [[i] for i in pts] if typ == "id" else perm_of_type(rng, pts, typ)
            parts.append((n, s, [pts]))
            sig += [[base + i for i in c] for c in s]
            alf.append([base + i for i in pts])
            base += n
        if relabel:
            sig, alf = _relabel(rng, base, sig, alf)
        inst = make_instance(base, sig, alf, ref_limit=10 ** 4)
        if "ref" not in inst and len(parts) > 1:
            R = union_reference(parts, 10 ** 4)
            if R is not None:
                inst["ref"] = {"R": R}
        instances.append(inst)
        for method in ("phi", "psi"):
            ops.append({"inst": len(instances) - 1, "kind": "whitney", "argv": ["whitney", f"--method={method}"]})
    return instances, ops, []


def _refinement_sums(rng, smoke):
    planar = [([5], 2), ([3, 2], None)] if smoke else RS_PLANAR
    higher = [([3, 2], [3, 2])] if smoke else RS_HIGHER
    instances, ops, extras = [], [], []
    for atype, blocks in planar:
        n = sum(atype)
        gamma = list(range(1, n + 1))
        rng.shuffle(gamma)
        if len(atype) == 1:
            # sigma refines the single alpha-cycle gamma: genus zero.
            sigma, alpha = random_nc_refinement(rng, gamma, blocks=blocks), [gamma]
        else:
            sigma, alpha = planar_pair(rng, gamma, atype)
        instances.append(make_instance(n, sigma, alpha, ref_limit=10 ** 4))
    for atype, stype in higher:
        n = sum(atype)
        pts = list(range(1, n + 1))
        instances.append(
            make_instance(n, perm_of_type(rng, pts, stype), perm_of_type(rng, pts, atype), 10 ** 4)
        )
    for i, inst in enumerate(instances):
        ops.append({"inst": i, "kind": "whitney", "argv": ["whitney", "--method=brute"]})
        if inst["genus"] == 0:
            ops.append({"inst": i, "kind": "wet-dry", "argv": ["wet-dry"]})
            ops.append({"inst": i, "kind": "circuit-partition", "argv": ["circuit-partition"]})
            extras.append(_dual_extra(i, inst))
    return instances, ops, extras


def _dual_extra(i, inst):
    ds, da = V.dual(inst["sigma"], inst["alpha"])
    return {"inst": i, "kind": "whitney-dual", "argv": ["whitney", "--method=phi"], "stdin": render(ds, da)}


def _mobius_cold(rng, smoke):
    shapes = [[4, 2]] if smoke else MC_SHAPES
    instances, ops = [], []
    for atype in shapes:
        n = sum(atype)
        pts = list(range(1, n + 1))
        instances.append(make_instance(n, random_perm(rng, n), perm_of_type(rng, pts, atype), 10 ** 5))
    for i in range(len(instances)):
        for kind in ("charpoly", "flowpoly"):
            ops.append({"inst": i, "kind": kind, "argv": [kind]})
    return instances, ops, []


def _cli_corpus(rng, smoke):
    shapes = CC_SHAPES[:1] + CC_SHAPES[4:5] if smoke else CC_SHAPES
    digraphs = CC_DIGRAPHS[:1] if smoke else CC_DIGRAPHS
    instances, ops, extras = [], [], []
    for k, (atype, planar) in enumerate(shapes):
        n = sum(atype)
        pts = list(range(1, n + 1))
        if planar:
            gamma = pts[:]
            rng.shuffle(gamma)
            sigma, alpha = planar_pair(rng, gamma, sorted(atype, reverse=True))
        else:
            sigma, alpha = random_perm(rng, n), perm_of_type(rng, pts, atype)
        instances.append(make_instance(n, sigma, alpha, 10 ** 4, as_json=k % 2 == 1))
    for i, inst in enumerate(instances):
        kinds = [
            ("whitney", [], {}), ("genus", [], {}), ("dual", [], {}), ("medial", [], {}),
            ("circuit-partition", [], {}), ("charpoly", [], {}), ("flowpoly", [], {}),
            ("flows", ["--q=3"], {"q": 3}), ("colorings", ["--m=3"], {"m": 3}),
        ]
        # By shape, not by the genus a random instance happens to have, so
        # that every seed gives the same number of operations.
        if shapes[i][1]:
            kinds += [("wet-dry", [], {}), ("colorings", ["--eulerian", "--m=2"], {"m": 2, "eulerian": True})]
            extras.append(_dual_extra(i, inst))
        for kind, flags, params in kinds:
            for js in (False, True):
                argv = [kind] + flags + (["--json"] if js else [])
                ops.append({"inst": i, "kind": kind, "argv": argv, "json": js, **params})
    for nv, ne in digraphs:
        edges = []
        while len(edges) < ne:
            walk = [rng.randint(1, nv) for _ in range(min(4, ne - len(edges)))]
            edges.extend(zip(walk, walk[1:] + walk[:1]))
        inst = {"edges": edges, "stdin": "".join(f"{t} {h}\n" for t, h in edges)}
        instances.append(inst)
        for js in (False, True):
            argv = ["from-digraph"] + (["--json"] if js else [])
            ops.append({"inst": len(instances) - 1, "kind": "from-digraph", "argv": argv, "json": js})
    return instances, ops, extras


BUILDERS = {
    "whitney-recursion": _whitney_recursion,
    "refinement-sums": _refinement_sums,
    "mobius-cold": _mobius_cold,
    "cli-corpus": _cli_corpus,
}


def build(workload, seed, smoke=False):
    rng = random.Random(f"{workload}:{seed}")
    instances, ops, extras = BUILDERS[workload](rng, smoke)
    for i, op in enumerate(ops):
        op["id"] = i
    for op in ops + extras:
        op.setdefault("stdin", instances[op["inst"]]["stdin"])
    return instances, ops, extras
