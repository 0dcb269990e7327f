"""Probabilistic aggregation: the paper's core primitive (Section 2).

A *probabilistic aggregate* of a probability vector preserves per-entry
expectations and the total mass while only reducing high-order
inclusion/exclusion products.  VarOpt samples are obtained by a sequence
of *pair aggregations* (paper Algorithm 1), each of which touches two
fractional entries and sets at least one of them to 0 or 1.  The choice
of which pair to aggregate is completely free -- that freedom is what
the structure-aware samplers exploit.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

#: Probabilities within this distance of 0/1 are considered set.
SET_EPS = 1e-9


def is_set(p: float) -> bool:
    """Whether a probability counts as already set to 0 or 1."""
    return p <= SET_EPS or p >= 1.0 - SET_EPS


def clamp(p: float) -> float:
    """Snap a probability to exactly 0/1 when within tolerance."""
    if p <= SET_EPS:
        return 0.0
    if p >= 1.0 - SET_EPS:
        return 1.0
    return p


def pair_aggregate_values(
    p_i: float, p_j: float, rng: np.random.Generator
) -> Tuple[float, float]:
    """Pair-aggregate two probabilities (paper Algorithm 1).

    Requires both inputs strictly inside (0, 1).  Returns the updated
    pair; at least one of the two outputs is exactly 0 or 1, and the sum
    is preserved.

    * If ``p_i + p_j < 1`` the mass moves onto one of the entries
      (chosen proportionally) and the other is set to 0.
    * Otherwise one entry is set to 1 and the other keeps the leftover
      ``p_i + p_j - 1``.
    """
    if is_set(p_i) or is_set(p_j):
        raise ValueError("pair aggregation requires both entries in (0, 1)")
    total = p_i + p_j
    if total < 1.0:
        if rng.random() < p_i / total:
            return clamp(total), 0.0
        return 0.0, clamp(total)
    if rng.random() < (1.0 - p_j) / (2.0 - total):
        return 1.0, clamp(total - 1.0)
    return clamp(total - 1.0), 1.0


def pair_aggregate(
    p: np.ndarray, i: int, j: int, rng: np.random.Generator
) -> None:
    """In-place pair aggregation of entries ``i`` and ``j`` of ``p``."""
    p[i], p[j] = pair_aggregate_values(float(p[i]), float(p[j]), rng)


def aggregate_pool(
    p: np.ndarray,
    indices: Iterable[int],
    rng: np.random.Generator,
) -> Optional[int]:
    """Sequentially pair-aggregate a pool of entries of ``p``.

    Walks the given indices, keeping a single *active* fractional entry
    and pair-aggregating it with each subsequent fractional entry.
    Entries already set are skipped.  Returns the index of the one entry
    still strictly in (0, 1) afterwards, or ``None`` if every entry got
    set (which happens whenever the pool's probability mass is
    integral).

    Aggregating a pool keeps all probability movement *inside* the pool:
    this is the building block for the structure-aware pair-selection
    rules (aggregate within a range / below a node first).
    """
    active: Optional[int] = None
    for idx in indices:
        if idx is None or is_set(float(p[idx])):
            continue
        if active is None:
            active = idx
            continue
        pair_aggregate(p, active, idx, rng)
        if not is_set(float(p[active])):
            pass  # active survives with a new fractional value
        elif not is_set(float(p[idx])):
            active = idx
        else:
            active = None
    return active


def finalize_leftover(
    p: np.ndarray, index: Optional[int], rng: np.random.Generator
) -> None:
    """Resolve a final fractional entry by a Bernoulli trial.

    When the total probability mass is integral the final leftover is
    already (numerically) 0 or 1 and this only snaps it; otherwise the
    Bernoulli keeps expectations exact at the cost of a +-1 variation in
    realized sample size.
    """
    if index is None:
        return
    value = float(p[index])
    if is_set(value):
        p[index] = clamp(value)
        return
    p[index] = 1.0 if rng.random() < value else 0.0


def included_indices(p: np.ndarray) -> np.ndarray:
    """Indices whose probability has been set to one."""
    return np.flatnonzero(np.asarray(p) >= 1.0 - SET_EPS)


def check_aggregation_invariants(
    p_before: np.ndarray, p_after: np.ndarray, rel_tol: float = 1e-6
) -> None:
    """Assert the cheap (deterministic) probabilistic-aggregation axioms.

    Checks agreement in sum (axiom ii) and entry-range validity.  The
    expectation axioms (i) and (iii) are distributional and are
    validated statistically in the test suite instead.

    Raises
    ------
    AssertionError
        If mass was created/destroyed or an entry left [0, 1].
    """
    before = float(np.sum(p_before))
    after = float(np.sum(p_after))
    scale = max(1.0, abs(before))
    if abs(before - after) > rel_tol * scale:
        raise AssertionError(
            f"aggregation changed total mass: {before} -> {after}"
        )
    arr = np.asarray(p_after)
    if arr.size and (arr.min() < -SET_EPS or arr.max() > 1.0 + SET_EPS):
        raise AssertionError("aggregation produced probability outside [0, 1]")

