"""The package's public surface: what ``from qnsubspace import *`` gives."""

import types

import qnsubspace


def test_all_lists_every_public_name_once_and_sorted():
    public = {name for name, value in vars(qnsubspace).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert qnsubspace.__all__ == sorted(qnsubspace.__all__)
    assert len(set(qnsubspace.__all__)) == len(qnsubspace.__all__)
    assert set(qnsubspace.__all__) == public
    for name in qnsubspace.__all__:
        assert getattr(qnsubspace, name) is not None
