import importlib
import pkgutil

import pytest

import qflab
from qflab import qseries

# every memo of the package, found by its cache_clear, so that a memo
# added later is cleared too
_MEMOS = {value
          for info in pkgutil.iter_modules(qflab.__path__)
          for value in vars(importlib.import_module(
              f"qflab.{info.name}")).values()
          if hasattr(value, "cache_clear")}


@pytest.fixture(autouse=True)
def cold_memos():
    """Start every test with empty module memos, so no test sees partial
    halves, block forms, factorizations, form hashes, eta factors or
    eta-quotient tables that an earlier test left."""
    for memo in _MEMOS:
        memo.cache_clear()
    qseries._QUOTIENT_TABLES.clear()
