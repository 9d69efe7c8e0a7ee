"""Package namespaces: each ``__all__`` lists exactly the public names imported."""

import importlib
import types

import pytest

PACKAGES = ("malfusion.corpus", "malfusion.static_features",
            "malfusion.dynamic_features", "malfusion.fusion", "malfusion.substrate")


@pytest.mark.parametrize("name", PACKAGES)
def test_all_lists_every_public_import(name):
    package = importlib.import_module(name)
    public = {attr for attr, value in vars(package).items()
              if not attr.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public - set(package.__all__)) == []
    assert sorted(set(package.__all__) - public) == []
