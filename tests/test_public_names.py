"""The package's public names: __all__ lists exactly what the package binds."""
import types

import groverlab


def test_all_lists_exactly_the_public_names():
    missing = [name for name in groverlab.__all__ if not hasattr(groverlab, name)]
    assert missing == []
    assert groverlab.__all__ == sorted(groverlab.__all__)
    bound = {name for name, value in vars(groverlab).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(groverlab.__all__) == bound
