import pytest

from qflab import arith, cache, forms, qseries, theta


@pytest.fixture(autouse=True)
def cold_memos():
    """Start every test with empty module memos, so no test sees partial
    halves, block forms, factorizations, form hashes or eta-quotient
    tables that an earlier test left."""
    for memo in (theta._half, theta._reduced_blocks, forms._block_form,
                 arith._factors, cache.form_hash):
        memo.cache_clear()
    qseries._QUOTIENT_TABLES.clear()
