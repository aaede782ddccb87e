"""The package's public names."""
import types

import fbas


def test_all_lists_exactly_the_imported_names():
    imported = {
        name for name, value in vars(fbas).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(fbas.__all__) == len(set(fbas.__all__))
    assert set(fbas.__all__) == imported | {"__version__"}
