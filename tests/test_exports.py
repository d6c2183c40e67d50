"""Every name a module lists in ``__all__`` resolves.

The lists are kept by hand, so deleting or renaming a definition can leave
a name behind that only ``from oracleid.<module> import *`` would trip on.
"""

import importlib
import pkgutil

import pytest

import oracleid

MODULES = ["oracleid"] + [f"oracleid.{m.name}" for m in pkgutil.iter_modules(oracleid.__path__)]
EXPORTING = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]


def test_the_package_and_its_library_modules_declare_all():
    assert {"oracleid", "oracleid.bitstrings", "oracleid.bounds", "oracleid.identify",
            "oracleid.ordering", "oracleid.qsim", "oracleid.sdp"} <= set(EXPORTING)


@pytest.mark.parametrize("name", EXPORTING)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)
