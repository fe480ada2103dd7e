"""The package's public names: where they live and when their modules load."""

import json
import subprocess
import sys

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

