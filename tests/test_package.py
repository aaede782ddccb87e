"""The package's public names, and what importing it loads."""
import os
import subprocess
import sys
import types

import fbas

# Standard-library modules that cost start-up time on every command and
# that no import-time code needs: json, csv and decimal load when a
# report is rendered, and the rest are not used at all.
NOT_AT_IMPORT = {"dataclasses", "inspect", "typing", "pathlib", "json", "csv", "decimal"}


def test_all_lists_exactly_the_imported_names():
    imported = {
        name for name, value in vars(fbas).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(fbas.__all__) == len(set(fbas.__all__))
    assert set(fbas.__all__) == imported | {"__version__"}


def test_import_loads_none_of_the_slow_modules():
    # A fresh interpreter without site hooks (-S), which may load some of
    # them first; only the modules that importing fbas added count.
    script = (
        "import sys; before = set(sys.modules); import fbas, fbas.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(fbas.__file__))}
    proc = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    loaded = set(proc.stdout.split())
    assert "fbas.cli" in loaded
    assert loaded.isdisjoint(NOT_AT_IMPORT), sorted(loaded & NOT_AT_IMPORT)
