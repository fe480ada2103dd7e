"""Hypermaps as permutation pairs, their Whitney polynomials, and friends.

A hypermap on n points is a pair of permutations (sigma, alpha) of
{1, ..., n}: sigma-cycles are vertices, alpha-cycles are hyperedges, and
the cycles of alpha^-1 sigma are faces.  The package computes genus,
duals, Whitney rank generating polynomials over the noncrossing
refinement order, medial maps with their circuit partition polynomials,
characteristic and flow polynomials, flow spaces over prime fields, and
coloring counts, plus a randomized identity selftest tying these to
each other and to classical graph invariants.

The core modules (perm, hypermap, poly, nclattice, whitney) load with the
package; charflow (chi and C), counting (coloring and flow counts), checks,
medial, oracles, routes (R's check routes) and selftest, and their public
names, load on first use, so a command never pays for one it does not
need.  The checks among the public names are the lattice primitives
is_refinement, interval, mobius and noncrossing_partitions, which live in
oracles, and compatible_coloring_count and x_interval, in checks.
"""

from .hypermap import Hypermap, dual, merge_components, orbit_count
from .nclattice import catalan, refinement_count, refinements
from .perm import Permutation
from .poly import BiPoly, UniPoly
# Eager: importing the submodule later would rebind whitney to the module.
from .whitney import (
    InstanceTooLarge,
    Specializations,
    specializations,
    wet_dry_polynomial,
    whitney,
    whitney_bruteforce,
    whitney_dp,
    whitney_phi,
    whitney_psi,
)

# The other public names by home module; a module and its names load on first access.
_LAZY = {
    name: module
    for module, names in (
        ("charflow", ("characteristic_polynomial", "flow_polynomial")),
        ("counting", ("nowhere_zero_flow_count", "proper_coloring_count")),
        ("medial", ("EulerianDigraph", "EulerianMap", "circuit_partition_polynomial",
                    "eulerian_coloring_sum", "from_eulerian_digraph", "medial_digraph",
                    "medial_map", "source_hypermap")),
        ("checks", ("compatible_coloring_count", "x_interval")),
        ("oracles", ("coherent_matchings", "flow_space", "interval", "is_refinement",
                     "mobius", "noncrossing_partitions", "unique_nz_refinement")),
        ("selftest", ("run_selftest",)),
    )
    for name in names
}


def __getattr__(name):
    module = _LAZY.get(name, name if name in _LAZY.values() else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = import_module(f".{module}", __name__)  # binds a submodule's own name
    value = globals()[name] = value if module == name else getattr(value, name)
    return value


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY.values()})


__version__ = "0.1.0"

__all__ = [
    "BiPoly",
    "EulerianDigraph",
    "EulerianMap",
    "Hypermap",
    "InstanceTooLarge",
    "Permutation",
    "Specializations",
    "UniPoly",
    "catalan",
    "characteristic_polynomial",
    "circuit_partition_polynomial",
    "coherent_matchings",
    "compatible_coloring_count",
    "dual",
    "eulerian_coloring_sum",
    "flow_polynomial",
    "flow_space",
    "from_eulerian_digraph",
    "interval",
    "is_refinement",
    "medial_digraph",
    "medial_map",
    "merge_components",
    "mobius",
    "noncrossing_partitions",
    "nowhere_zero_flow_count",
    "orbit_count",
    "proper_coloring_count",
    "refinement_count",
    "refinements",
    "run_selftest",
    "source_hypermap",
    "specializations",
    "unique_nz_refinement",
    "wet_dry_polynomial",
    "whitney",
    "whitney_bruteforce",
    "whitney_dp",
    "whitney_phi",
    "whitney_psi",
    "x_interval",
]
