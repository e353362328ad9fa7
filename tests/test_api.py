import importlib
from pathlib import Path

import pytest

LAYERS = ["signals", "ambiguity", "properties", "symmetry", "io_formats"]


@pytest.mark.parametrize("module", ["mimoaf"] + [f"mimoaf.{m}" for m in LAYERS])
def test_all_names_resolve(module):
    # tools walk __all__ with getattr, so a stale entry must fail here first
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


def test_package_exports_exactly_the_layers():
    # a name deleted from a layer cannot linger as a package re-export
    import mimoaf
    from mimoaf import errors

    # io_formats is not re-exported; the exception classes are listed from
    # the errors module itself, not from its __all__, so one left out of it
    # fails here
    layers = ["signals", "ambiguity", "properties", "symmetry"]
    names = [name for m in layers for name in importlib.import_module(f"mimoaf.{m}").__all__]
    names += [name for name, obj in vars(errors).items()
              if isinstance(obj, type) and issubclass(obj, errors.MimoafError)]
    assert sorted(mimoaf.__all__) == sorted(names)


def test_readme_quick_start_runs():
    # the Library quick start is README's first python block: an API rename
    # that leaves it stale fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
