import types

import defosc


def test_every_exported_name_resolves():
    for name in defosc.__all__:
        assert hasattr(defosc, name), name


def test_exports_are_exactly_the_public_attributes():
    public = {
        name
        for name, value in vars(defosc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(defosc.__all__) == sorted(public | {"__version__"})
