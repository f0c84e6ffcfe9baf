"""Every entry point the benchmark tracer wraps must exist in ``src/``.

``perfbench/tracing.py`` names the functions and methods it wraps in its
``LAYERS`` table, by module and attribute; ``install()`` raises as soon
as one is missing, so a rename or deletion in ``src/`` breaks
``python3 perfbench/run.py --trace 1``.  These tests resolve each target
the way ``install()`` does -- import the module, then fetch the
attribute, or ``owner.__dict__[attr]`` for a method -- and wrap nothing.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, path) for module_name, path, _, _ in module.LAYERS]


LAYERS = _layers()


def test_table_is_not_empty():
    assert len(LAYERS) > 10


@pytest.mark.parametrize(
    "module_name, path", LAYERS, ids=[f"{m}:{p}" for m, p in LAYERS]
)
def test_layer_target_resolves(module_name, path):
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        target = getattr(module, owner_name).__dict__[attr]
    else:
        target = getattr(module, attr)
    assert callable(target)
