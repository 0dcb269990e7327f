"""Vectorized sequential pair aggregation (the build-path hot kernel).

:func:`repro.core.aggregation.aggregate_pool` walks a pool of
fractional IPPS probabilities keeping one *active* entry and
pair-aggregating it with each subsequent entry -- a Python loop that
dominates every offline build.  This module computes the identical
chain in O(1) NumPy passes.

The trick: the sequence of pair *totals* along the chain does not
depend on any random choice.  Writing ``q_k`` for the pool
probabilities, the active value after step ``k`` is the fractional part
of the running sum ``C_k = q_0 + ... + q_k``; a step *crosses* (one
entry of the pair is set to 1) exactly when the integer part of ``C_k``
increments, and otherwise one entry is set to 0.  Only the *identity*
of the active entry depends on the coin flips, and that identity is a
last-switch-wins forward fill -- an ``np.maximum.accumulate``.  So the
whole chain reduces to: one ``cumsum``, one batch of pre-drawn
uniforms (one candidate decision per pair, exactly as the scalar loop
draws them), a vectorized branch per step, and two fancy-indexed
writes.

The kernels realize the same per-pair aggregation distribution as the
scalar loop (paper Algorithm 1) -- every guarantee that holds per pair
(unbiasedness, mass conservation, the floor/ceil prefix counts behind
the discrepancy bounds) holds here step for step.  They are *not*
bit-for-bit identical to the scalar loop: the running total is
accumulated in a different floating-point association and the uniforms
are consumed in one block, so seeded runs diverge.  The scalar walks
live on only as test oracles (``tests/oracles.py``), and
``tests/test_kernel_equivalence.py`` checks statistically that both
realize the same distribution.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.aggregation import SET_EPS


def segmented_chain_aggregate(
    p: np.ndarray,
    pool: np.ndarray,
    seg_starts: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Run one aggregation chain per segment of ``pool``, in parallel.

    Parameters
    ----------
    p:
        The probability vector, updated in place: every pool entry
        except each segment's leftover is set to exactly 0.0 or 1.0,
        and each leftover receives its final fractional value.
    pool:
        Indices into ``p``; entries already set (within ``SET_EPS`` of
        0/1) are skipped, exactly like the scalar pool walk.
    seg_starts:
        Sorted start offsets of each segment within ``pool`` (first
        element 0).  Segments are independent chains -- their entries
        never aggregate across a boundary.
    rng:
        Randomness source; consumes one block of uniforms per call.

    Returns
    -------
    ``int64`` array, one entry per segment: the index (into ``p``) of
    the segment's leftover, or -1 when the segment had no fractional
    entry.  Leftover values may still be within ``SET_EPS`` of 0/1
    (near-integral segment mass); callers treat those as set, exactly
    like :func:`~repro.core.aggregation.finalize_leftover` does.
    """
    pool = np.asarray(pool, dtype=np.int64)
    seg_starts = np.asarray(seg_starts, dtype=np.int64)
    out = np.full(seg_starts.size, -1, dtype=np.int64)
    if pool.size == 0 or seg_starts.size == 0:
        return out
    q = p[pool]
    keep = (q > SET_EPS) & (q < 1.0 - SET_EPS)
    if not keep.all():
        kept_before = np.concatenate(([0], np.cumsum(keep)))
        seg_starts = kept_before[seg_starts]
        pool = pool[keep]
        q = q[keep]
    m = pool.size
    if m == 0:
        return out
    bounds = np.concatenate((seg_starts, [m]))
    lens = np.diff(bounds)
    nonempty = lens > 0
    # Running within-segment totals and their integer crossings.
    cums = np.cumsum(q)
    prefix = np.concatenate(([0.0], cums))
    rel = cums - np.repeat(prefix[bounds[:-1]], lens)
    fl = np.floor(rel)
    first = np.zeros(m, dtype=bool)
    first[bounds[:-1][nonempty]] = True
    fl_prev = np.empty(m)
    fl_prev[1:] = fl[:-1]
    fl_prev[first] = 0.0
    rel_prev = np.empty(m)
    rel_prev[1:] = rel[:-1]
    rel_prev[first] = 0.0
    # Pair total and active value entering each step (Algorithm 1's
    # p_i + p_j and p_i); both are choice-independent.
    t = rel - fl_prev
    a_prev = rel_prev - fl_prev
    crossing = fl > fl_prev
    # One decision per step.  No crossing: active keeps the mass with
    # probability a/t (the incoming entry is set to 0); otherwise the
    # incoming entry takes over and the active is set to 0.  Crossing:
    # the active is set to 1 with probability (1-q)/(2-t) and the
    # incoming entry carries t-1 onward; otherwise the incoming entry
    # is set to 1 and the active carries t-1.  ``switch`` marks the
    # steps where the incoming entry becomes the new active.
    u = rng.random(m)
    switch = np.where(crossing, u * (2.0 - t) < (1.0 - q), u * t >= a_prev)
    switch[first] = True  # each segment's first entry seeds the chain
    idx = np.arange(m, dtype=np.int64)
    last_switch = np.maximum.accumulate(np.where(switch, idx, -1))
    prev_active = np.empty(m, dtype=np.int64)
    prev_active[1:] = last_switch[:-1]
    prev_active[0] = 0
    # Every non-first step settles exactly one entry: the old active
    # when the chain switches, the incoming entry otherwise; to 1 on a
    # crossing, to 0 otherwise.  Settled entries never re-enter a
    # chain, so one fancy-indexed write suffices.
    settle = ~first
    settled_pos = np.where(switch, prev_active, idx)[settle]
    p[pool[settled_pos]] = crossing[settle].astype(float)
    ends = bounds[1:][nonempty] - 1
    leftover_idx = pool[last_switch[ends]]
    p[leftover_idx] = rel[ends] - fl[ends]
    out[nonempty] = leftover_idx
    return out


def chain_aggregate(
    p: np.ndarray, pool, rng: np.random.Generator
) -> Optional[int]:
    """Vectorized drop-in for one :func:`aggregate_pool` chain.

    Same contract: sequentially pair-aggregates the fractional entries
    of ``pool`` (in order), writes the settled 0/1 values into ``p``,
    and returns the index of the one entry left strictly fractional --
    or ``None`` when the pool's mass was integral.
    """
    pool = np.asarray(pool, dtype=np.int64)
    leftover = segmented_chain_aggregate(
        p, pool, np.zeros(1, dtype=np.int64), rng
    )
    value = int(leftover[0])
    return None if value < 0 else value


def run_starts(sorted_ids: np.ndarray) -> np.ndarray:
    """Start offsets of each run of equal values in a sorted array.

    The standard companion to :func:`segmented_chain_aggregate`: group
    a pool by cell/label/node id with a stable argsort, then cut the
    segments at the run boundaries.
    """
    sorted_ids = np.asarray(sorted_ids)
    if sorted_ids.size == 0:
        return np.zeros(0, dtype=np.int64)
    boundaries = np.flatnonzero(sorted_ids[1:] != sorted_ids[:-1]) + 1
    return np.concatenate(([0], boundaries)).astype(np.int64)
