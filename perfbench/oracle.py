"""Answer oracle: every read's exact answer, recomputed with numpy.

The load generator holds the same seeded rows the gateway loaded (plus
every load batch, in send order), so the table after ``j`` loads is a
prefix of one set of column arrays. :meth:`Oracle.answer` evaluates a
:class:`~repro.cubrick.query.Query` over such a prefix, reproducing the
engine's result shape: grouped rows sorted by group key, and an
ungrouped query whose filter matches nothing answering ``[]``. It models
the shapes the workloads send: ``sum`` and ``count`` under equality,
range and (negated) membership filters, with or without grouping.
"""

from __future__ import annotations

import numpy as np


class Oracle:
    """Exact answers over a growing table held as column arrays."""

    def __init__(self, columns: dict[str, np.ndarray]):
        self._parts = [dict(columns)]
        self._columns = dict(columns)
        self._cache: dict[tuple, list] = {}

    @property
    def rows(self) -> int:
        return sum(len(part["day"]) for part in self._parts)

    def append(self, columns: dict[str, np.ndarray]) -> None:
        """Add one load batch at the end of the table."""
        self._parts.append(dict(columns))
        self._columns = {}

    def _table(self) -> dict[str, np.ndarray]:
        if not self._columns:
            self._columns = {
                name: np.concatenate([part[name] for part in self._parts])
                for name in self._parts[0]
            }
        return self._columns

    def answer(self, query, rows: int | None = None, key=None) -> list[tuple]:
        """The engine's answer to ``query`` over the first ``rows`` rows.

        ``key`` (hashable) memoises the answer for repeated statements.
        """
        from repro.cubrick.query import FilterOp

        table = self._table()
        n = len(table["day"]) if rows is None else rows
        if key is not None and (key, n) in self._cache:
            return self._cache[(key, n)]
        if query.joins or query.having or query.order_by or query.limit:
            raise ValueError(f"oracle does not model this query shape: {query}")
        cols = {name: values[:n] for name, values in table.items()}
        mask = np.ones(n, dtype=bool)
        for flt in query.filters:
            col = cols[flt.dimension]
            if flt.op is FilterOp.EQ:
                mask &= col == flt.values[0]
            elif flt.op is FilterOp.BETWEEN:
                mask &= (col >= flt.values[0]) & (col <= flt.values[1])
            elif flt.op is FilterOp.IN:
                mask &= np.isin(col, flt.values)
            else:
                mask &= ~np.isin(col, flt.values)
        if query.group_by:
            out = _grouped(query, cols, mask)
        elif mask.any():
            out = [tuple(_aggregate(agg, cols, mask) for agg in query.aggregations)]
        else:
            out = []
        if key is not None:
            self._cache[(key, n)] = out
        return out


def _aggregate(agg, cols, mask) -> float:
    from repro.cubrick.query import AggFunc

    if agg.func is AggFunc.SUM:
        return float(cols[agg.metric][mask].sum())
    if agg.func is AggFunc.COUNT:
        return float(mask.sum())
    raise ValueError(f"oracle does not model {agg.func}")


def _grouped(query, cols, mask) -> list[tuple]:
    from repro.cubrick.query import AggFunc

    keys = np.stack([cols[g][mask] for g in query.group_by], axis=1)
    if not len(keys):
        return []
    unique, inverse = np.unique(keys, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    n_groups = len(unique)
    columns = []
    for agg in query.aggregations:
        if agg.func is AggFunc.SUM:
            col = np.bincount(inverse, weights=cols[agg.metric][mask], minlength=n_groups)
        elif agg.func is AggFunc.COUNT:
            col = np.bincount(inverse, minlength=n_groups).astype(float)
        else:
            raise ValueError(f"oracle does not model {agg.func}")
        columns.append(col.tolist())
    key_columns = [unique[:, j].tolist() for j in range(unique.shape[1])]
    return list(zip(*key_columns, *columns))


def rows_match(got: list, expected: list[tuple]) -> bool:
    """Wire rows (JSON lists) equal the oracle's rows, exactly."""
    return sorted(tuple(row) for row in got) == sorted(expected)
