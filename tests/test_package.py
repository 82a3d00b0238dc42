"""The package's public names: each is declared once, in its module's
``__all__``, and ``calibench`` re-exports every one of them."""

import os
import subprocess
import sys

import calibench
from calibench import calibrators, datasets, errors, harness, metrics, models, stats

MODULES = (calibrators, datasets, models, metrics, stats, harness, errors)


def test_package_exports_every_module_name_once():
    expected = ["__version__"] + [name for m in MODULES for name in m.__all__]
    assert calibench.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(calibench, name) is getattr(module, name)
    assert calibench.__version__


def test_names_missing_from_the_hand_written_list_import():
    from calibench import (
        DEFAULT_COMPARISON_METRICS,
        SCHEMA_VERSION,
        EmptyFamilyError,
        deal_folds,
        table_from_json,
        table_to_json,
    )

    assert EmptyFamilyError is errors.EmptyFamilyError


def test_cli_import_loads_only_numpy_and_the_standard_library():
    # a fresh interpreter, so that modules other tests imported do not count
    code = (
        "import sys; before = set(sys.modules); import calibench.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    src = os.path.dirname(os.path.dirname(calibench.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    foreign = {name.split(".")[0] for name in loaded} - {"calibench", "numpy"}
    assert "calibench.cli" in loaded
    assert foreign <= set(sys.stdlib_module_names), sorted(foreign - set(sys.stdlib_module_names))
    # the forest benchmark imports its worker pool when it makes one; every
    # CLI run pays for what importing the CLI loads
    assert not {"multiprocessing", "concurrent"} & {name.split(".")[0] for name in loaded}
