"""Test oracles: reference kernels the production paths are pinned to.

The streaming q-digest's per-depth range-sum kernel is the one its
level-fused interval table scan (``IntervalTable.scan_bounds``)
replaced.  The batch q-digest's flat leaf-table kernel is the second
formulation of its 1-D sorted-leaf path (``_query_boxes_1d``).  Both
live here as functions of the digest's public ``to_state()``, so they
read no private fields, and the tests compare ``query_many`` with them
bitwise.
"""

import numpy as np

from repro.structures.ranges import compile_query_plan


def qdigest_stream_levels(state):
    """Per-depth sorted cell tables of a streaming q-digest state.

    Returns a list of ``(shift, cells, counts, prefix)`` tuples, one per
    materialized depth: ``cells`` are the sorted cell indices
    (``node - 2**depth``) at that depth, ``counts`` their weights in
    cell order, and ``prefix`` the exclusive running sum of ``counts``
    (so a contiguous cell run sums in O(1)).
    """
    nodes = np.asarray(state["nodes"], dtype=np.int64)
    counts = np.asarray(state["counts"], dtype=float)
    # Depth of heap node v is floor(log2 v): an exact integer binary
    # search on the bit length (no float log).
    remaining = nodes.copy()
    depths = np.zeros(nodes.shape[0], dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        big = remaining >= np.int64(1) << shift
        depths[big] += shift
        remaining[big] >>= shift
    tables = []
    for depth in np.unique(depths):
        rows = np.flatnonzero(depths == depth)
        cells = nodes[rows] - (np.int64(1) << depth)
        order = np.argsort(cells)
        cell_counts = counts[rows][order]
        prefix = np.concatenate(([0.0], np.cumsum(cell_counts)))
        tables.append(
            (int(state["bits"]) - int(depth), cells[order], cell_counts,
             prefix)
        )
    return tables


def qdigest_stream_query_many(state, queries) -> np.ndarray:
    """Per-depth range sums of a battery against a q-digest state.

    Per materialized depth a box resolves in O(log nodes): the run of
    cells fully inside the box is one prefix-sum difference between two
    ``searchsorted`` bounds, and only the two endpoint cells can
    straddle, each one more ``searchsorted`` probe contributing its
    overlapped span fraction.  Returns what ``query_many`` returns, as
    an array.
    """
    plan = compile_query_plan(queries)
    if len(plan) == 0:
        return np.zeros(0)
    bounds = plan.bounds
    lo = bounds[:, 0, 0]
    hi = bounds[:, 0, 1]
    per_box = np.zeros(bounds.shape[0], dtype=float)
    for shift, cells, cell_counts, prefix in qdigest_stream_levels(state):
        span = np.int64(1) << np.int64(shift)
        # Cells fully inside [lo, hi]: the contiguous run [a, b].
        a = (lo + span - 1) >> shift
        b = ((hi + 1) >> shift) - 1
        lo_idx = np.searchsorted(cells, a, side="left")
        hi_idx = np.searchsorted(cells, b, side="right")
        per_box += prefix[np.maximum(hi_idx, lo_idx)] - prefix[lo_idx]
        # Endpoint cells outside [a, b] straddle a box edge and
        # contribute fractionally; the right endpoint is skipped
        # when it shares the left one's cell.
        c_lo = lo >> shift
        c_hi = hi >> shift
        for cand, partial in (
            (c_lo, (c_lo < a) | (c_lo > b)),
            (c_hi, ((c_hi < a) | (c_hi > b)) & (c_hi != c_lo)),
        ):
            pos = np.searchsorted(cells, cand)
            pos_c = np.minimum(pos, cells.size - 1)
            idx = np.flatnonzero((cells[pos_c] == cand) & partial)
            if idx.size == 0:
                continue
            n_lo = cand[idx] * span
            n_hi = n_lo + span - 1
            overlap = (
                np.minimum(hi[idx], n_hi) - np.maximum(lo[idx], n_lo) + 1
            )
            per_box[idx] += (
                cell_counts[pos_c[idx]] * overlap / float(span)
            )
    return plan.reduce_boxes(per_box)


def qdigest_1d_leaf_query_many(state, queries) -> np.ndarray:
    """Prefix-sum range sums of a battery over a 1-D batch q-digest's
    disjoint leaves, as a flat leaf table.

    Leaves sorted by low endpoint make fully-contained leaves one
    prefix-sum run; only the two leaves holding the query endpoints can
    be boundary leaves, handled per the state's partial mode
    (``"half"`` / ``"uniform"`` / ``"lower"``).  Returns what
    ``query_many`` returns, as an array.
    """
    lows = np.asarray(state["box_lows"], dtype=np.int64)[:, 0]
    highs = np.asarray(state["box_highs"], dtype=np.int64)[:, 0]
    order = np.argsort(lows, kind="stable")
    los = lows[order].astype(float)
    his = highs[order].astype(float)
    if los.size > 1 and not bool((his[:-1] < los[1:]).all()):
        raise ValueError("the leaf table needs disjoint 1-D leaves")
    weights = np.asarray(state["weights"], dtype=float)[order]
    volumes = his - los + 1.0
    prefix = np.concatenate(([0.0], np.cumsum(weights)))
    mode = state["partial"]
    plan = compile_query_plan(queries)
    if len(plan) == 0:
        return np.zeros(0)
    bounds = plan.bounds
    q_lo = bounds[:, 0, 0]
    q_hi = bounds[:, 0, 1]
    first = np.searchsorted(los, q_lo, side="left")
    last = np.searchsorted(his, q_hi, side="right")
    per_box = np.where(last > first, prefix[last] - prefix[first], 0.0)
    if mode == "lower":
        return plan.reduce_boxes(per_box)
    left = np.searchsorted(los, q_lo, side="right") - 1
    right = np.searchsorted(los, q_hi, side="right") - 1
    for cand, endpoint, extra in (
        (left, q_lo, None),
        (right, q_hi, right != left),
    ):
        clamped = np.maximum(cand, 0)
        boundary = (
            (cand >= 0)
            & (his[clamped] >= endpoint)
            & ~((los[clamped] >= q_lo) & (his[clamped] <= q_hi))
        )
        if extra is not None:
            boundary &= extra
        rows = np.flatnonzero(boundary)
        if rows.size == 0:
            continue
        leaf = clamped[rows]
        if mode == "half":
            per_box[rows] += 0.5 * weights[leaf]
        else:  # uniform
            overlap = (
                np.minimum(his[leaf], q_hi[rows])
                - np.maximum(los[leaf], q_lo[rows])
                + 1.0
            )
            per_box[rows] += overlap / volumes[leaf] * weights[leaf]
    return plan.reduce_boxes(per_box)


def same_bits(got, expect) -> bool:
    """Whether two float sequences hold the very same IEEE doubles."""
    got = np.asarray(got, dtype=float)
    expect = np.asarray(expect, dtype=float)
    return got.shape == expect.shape and bool(
        (got.view(np.int64) == expect.view(np.int64)).all()
    )
