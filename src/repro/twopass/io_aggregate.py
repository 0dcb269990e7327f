"""IO-AGGREGATE (paper Algorithm 3): per-cell pair aggregation.

Pass 2 of the two-pass pipeline.  Each incoming key either enters the
sample directly (IPPS probability one), becomes its cell's active key,
or pair-aggregates with the cell's current active key.  Memory is one
record per cell plus the growing sample: O(s + |L|).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.aggregation import SET_EPS
from repro.core.chain import run_starts, segmented_chain_aggregate


def aggregate_cells(
    p: np.ndarray,
    rows: np.ndarray,
    codes: np.ndarray,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batched IO-AGGREGATE over pre-routed light records.

    Algorithm 3 feeds the keys one at a time: per cell, each incoming
    key pair-aggregates with the cell's running active record.  That
    is exactly one aggregation chain per cell, so all cells resolve in
    one :func:`repro.core.chain.segmented_chain_aggregate` pass.  The
    per-item loop lives on as the ``IOAggregator`` oracle in
    ``tests/oracles.py``.

    Parameters
    ----------
    p:
        Full-length probability vector (updated in place).
    rows:
        Indices of the light records (``SET_EPS < p < 1 - SET_EPS``).
    codes:
        Integer cell code of each light record (from a partition's
        ``cell_codes``).
    rng:
        Randomness source.

    Returns
    -------
    ``(committed, active_rows, active_probs, active_codes)``:
    rows whose probability reached one (they join the sample), and the
    per-cell fractional leftovers -- the "active records" the final
    aggregation phase consumes -- with their probabilities and cells.
    """
    rows = np.asarray(rows, dtype=np.int64)
    codes = np.asarray(codes)
    order = np.argsort(codes, kind="stable")
    rows = rows[order]
    codes = codes[order]
    starts = run_starts(codes)
    leftovers = segmented_chain_aggregate(p, rows, starts, rng)
    committed = rows[p[rows] >= 1.0 - SET_EPS]
    resolved = leftovers >= 0
    active = leftovers[resolved]
    active_probs = p[active]
    fractional = (active_probs > SET_EPS) & (active_probs < 1.0 - SET_EPS)
    return (
        committed,
        active[fractional],
        active_probs[fractional],
        codes[starts][resolved][fractional],
    )
