import importlib

import pytest

LAYERS = ["signals", "ambiguity", "properties", "symmetry", "io_formats"]


@pytest.mark.parametrize("module", ["mimoaf"] + [f"mimoaf.{m}" for m in LAYERS])
def test_all_names_resolve(module):
    # tools walk __all__ with getattr, so a stale entry must fail here first
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
