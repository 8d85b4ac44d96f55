"""The IN-list evaluation ``repro.sql.expressions.evaluate`` replaced: one
full-column ``==`` per literal. Kept verbatim (the operand column and the
bound values arrive as arguments where they were locals) because it defines
what membership means item by item: NULL items never match, NaN matches
nothing, ``1 == 1.0 == True``, ``'1' != 1``, and a negated list keeps
``~hits & valid``.

Not collected by pytest (no ``test_`` prefix); the oracle of
tests/test_sql_in_list.py.
"""

from __future__ import annotations

import numpy as np

from repro.data.column import Column
from repro.data.types import DataType


def reference_in_list(operand: Column, values: tuple, negated: bool) -> Column:
    n = len(operand)
    hits = np.zeros(n, dtype=bool)
    for v in values:
        hits |= operand.values == v
    hits &= operand.is_valid()
    if negated:
        hits = ~hits & operand.is_valid()
    return Column(DataType.BOOL, hits, operand.validity)
