"""The package's public names: where they live and when their modules load,
and the production modules' rule that each function they define is used."""

import ast
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import hypermaps

PUBLIC = (
    "BiPoly", "EulerianDigraph", "EulerianMap", "Hypermap", "InstanceTooLarge",
    "Permutation", "Specializations", "UniPoly", "catalan",
    "characteristic_polynomial", "circuit_partition_polynomial", "coherent_matchings",
    "compatible_coloring_count", "dual", "eulerian_coloring_sum", "flow_polynomial",
    "flow_space", "from_eulerian_digraph", "interval", "is_refinement",
    "medial_digraph", "medial_map", "merge_components", "mobius",
    "noncrossing_partitions", "nowhere_zero_flow_count", "orbit_count",
    "proper_coloring_count", "refinement_count", "refinements", "run_selftest",
    "source_hypermap", "specializations", "unique_nz_refinement",
    "wet_dry_polynomial", "whitney", "whitney_bruteforce", "whitney_dp",
    "whitney_phi", "whitney_psi", "x_interval",
)


def test_all_is_unchanged():
    assert hypermaps.__all__ == list(PUBLIC)


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_is_its_home_modules_object(name):
    obj = getattr(hypermaps, name)
    home = sys.modules[obj.__module__]
    assert home.__name__.startswith("hypermaps.")
    assert getattr(home, name) is obj
    assert vars(hypermaps)[name] is obj  # resolved once, then cached


def test_unknown_names_raise():
    with pytest.raises(AttributeError, match="no_such_name"):
        hypermaps.no_such_name
    with pytest.raises(ImportError):
        from hypermaps import no_such_name  # noqa: F401


def test_dir_lists_every_public_name():
    assert set(hypermaps.__all__) <= set(dir(hypermaps))


@pytest.mark.parametrize(
    "module", ["charflow", "checks", "counting", "medial", "oracles", "selftest"]
)
def test_lazy_modules_are_package_attributes(module):
    assert getattr(hypermaps, module) is sys.modules[f"hypermaps.{module}"]
    assert module in dir(hypermaps)


FRESH = """
import json, sys
import hypermaps
loaded = sorted(m for m in sys.modules if m.startswith("hypermaps."))
modules = {m: getattr(hypermaps, m).__name__ for m in ("medial", "oracles")}
medial_is_home = hypermaps.medial.medial_map is hypermaps.medial_map
import hypermaps.whitney
import hypermaps.charflow
import hypermaps.selftest
from hypermaps import whitney
from hypermaps.whitney import InstanceTooLarge
print(json.dumps({
    "loaded": loaded,
    "whitney": whitney.__module__ + "." + whitney.__name__,
    "same": whitney is hypermaps.whitney,
    "too_large": InstanceTooLarge.__module__,
    "medial": hypermaps.medial_map.__module__,
    "modules": modules,
    "medial_is_home": medial_is_home,
    "charflow": hypermaps.charflow.__name__,
}))
"""


def test_fresh_import_keeps_whitney_the_function():
    r = subprocess.run(
        [sys.executable, "-c", FRESH], capture_output=True, text=True, timeout=300
    )
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == {
        "loaded": ["hypermaps.hypermap", "hypermaps.nclattice", "hypermaps.perm",
                   "hypermaps.poly", "hypermaps.whitney"],
        "whitney": "hypermaps.whitney.whitney",
        "same": True,
        "too_large": "hypermaps.whitney",
        "medial": "hypermaps.medial",
        "modules": {"medial": "hypermaps.medial", "oracles": "hypermaps.oracles"},
        "medial_is_home": True,
        "charflow": "hypermaps.charflow",
    }


# Modules that hold the checks: the oracles, the selftest, the DP-based check
# helpers and R's check routes.  Every other module is production code.
CHECK_MODULES = ("checks", "oracles", "routes", "selftest")

# Defined in a production module and used by none, each for its reason.
UNUSED_ON_PURPOSE = {
    "hypermap.Hypermap.faces": "alpha^-1 sigma, whose cycles are the faces",
    "perm.Permutation.identity": "the identity, the least refinement of any alpha",
    "perm.Permutation.image": "the images of 1..n, as a user writes a permutation",
    "poly.BiPoly.parse": "reads a printed R back, as the goldens do",
    "poly.UniPoly.parse": "reads a printed chi, C or j back, as the goldens do",
}


def _production_trees():
    src = Path(hypermaps.__file__).parent
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(src.glob("*.py")) if path.stem not in CHECK_MODULES}


def _names(node):
    """How often each name is read in node, as a variable or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unused_definitions(trees):
    """module.function and module.Class.method for each top-level function and
    method that no module of trees names outside its own body; dunders, which
    Python calls, and the names of ``hypermaps.__all__`` are used."""
    names = sum(map(_names, trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            prefix = f"{module}.{node.name}." if isinstance(node, ast.ClassDef) else f"{module}."
            for f in members:
                if (not isinstance(f, ast.FunctionDef) or f.name in hypermaps.__all__
                        or f.name.startswith("__") and f.name.endswith("__")):
                    continue
                if names[f.name] == _names(f)[f.name]:
                    unused.append(prefix + f.name)
    return sorted(unused)


def test_production_modules_define_only_what_they_use():
    assert unused_definitions(_production_trees()) == sorted(UNUSED_ON_PURPOSE)


def test_an_unused_method_is_found():
    helper = ast.parse("class BiPoly:\n    def helper(self):\n        return self.helper\n")
    trees = {**_production_trees(), "toy": helper}
    assert "toy.BiPoly.helper" in unused_definitions(trees)
