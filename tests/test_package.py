"""The package's export list: every listed name resolves, and every public
attribute of the package other than its submodules is listed."""

import types

import relaystream


def test_every_exported_name_resolves():
    missing = [name for name in relaystream.__all__ if not hasattr(relaystream, name)]
    assert missing == []
    assert len(set(relaystream.__all__)) == len(relaystream.__all__)


def test_every_public_attribute_is_exported():
    public = {
        name
        for name, value in vars(relaystream).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(relaystream.__all__)) == []
