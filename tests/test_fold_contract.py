"""Generated contract tests for the one-stage sample fold.

``SampleSummary.from_shards`` -- the sample branch of the engine's one
fold, :func:`repro.engine.builder.fold_snapshots` -- folds any number
of samples of disjoint shards in one VarOpt stage over their adjusted
weights, with the threshold floored at the largest input threshold.
Hypothesis draws 1-8 inputs (VarOpt reservoir snapshots, exact
``tau = 0`` samples and empty samples) and targets from 1 to past the
size of their union, and checks the structural contract on every
draw:

* the folded sample holds at most ``s`` keys;
* its threshold ``tau*`` is at least every input threshold;
* every input key whose adjusted weight is at least ``tau*`` is kept
  with that adjusted weight exactly, and every kept key's adjusted
  weight is ``max(a, tau*)`` of its input adjusted weight ``a``.

A fixed-seed z-test per input count then checks that the folded
estimates are unbiased for the inputs' estimates.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimator import SampleSummary
from repro.core.varopt import StreamVarOpt
from repro.engine.builder import fold_snapshots

KINDS = ("reservoir", "exact", "empty")

#: Keys of shard ``k`` are ``k * SHARD_SPAN + i``: shards are disjoint.
SHARD_SPAN = 1000


def make_input(kind, shard, n, capacity, rng):
    """One sample of shard ``shard``'s ``n`` Pareto-weighted 2-D keys."""
    if kind == "empty":
        return SampleSummary(
            np.empty((0, 2), dtype=np.int64), np.empty(0), 0.0
        )
    keys = shard * SHARD_SPAN + np.arange(n)
    coords = np.stack([keys, keys % 7], axis=1)
    weights = 1.0 + rng.pareto(1.2, size=n)
    if kind == "exact":
        return SampleSummary(coords, weights, 0.0)
    reservoir = StreamVarOpt(capacity, rng)
    reservoir.update(coords, weights)
    return reservoir.snapshot()


def adjusted_by_key(samples):
    """Key row -> adjusted weight over the inputs' sampled keys."""
    table = {}
    for sample in samples:
        for row, weight in zip(sample.coords.tolist(),
                               sample.adjusted_weights.tolist()):
            table[tuple(row)] = weight
    return table


@settings(max_examples=300, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=8),
    sizes=st.lists(st.integers(1, 60), min_size=8, max_size=8),
    capacities=st.lists(st.integers(1, 40), min_size=8, max_size=8),
    extra=st.integers(0, 400),
    seed=st.integers(0, 2**32 - 1),
)
def test_fold_contract(kinds, sizes, capacities, extra, seed):
    rng = np.random.default_rng(seed)
    inputs = [
        make_input(kind, shard, sizes[shard], capacities[shard], rng)
        for shard, kind in enumerate(kinds)
    ]
    union = sum(sample.size for sample in inputs)
    s = 1 + extra % (union + 5)
    folded = SampleSummary.from_shards(
        inputs, s=s, rng=np.random.default_rng(seed + 1)
    )
    assert folded.size <= s
    assert folded.tau >= max(sample.tau for sample in inputs)
    adjusted = adjusted_by_key(inputs)
    kept = {
        tuple(row): weight
        for row, weight in zip(folded.coords.tolist(),
                               folded.adjusted_weights.tolist())
    }
    assert len(kept) == folded.size
    for key, weight in kept.items():
        assert weight == max(adjusted[key], folded.tau)
    for key, weight in adjusted.items():
        if weight >= folded.tau:
            assert kept.get(key) == weight
    # The engine's one fold takes the same stage (empties dropped).
    via_engine = fold_snapshots(
        inputs, size=s, rng=np.random.default_rng(seed + 1)
    )
    assert np.array_equal(via_engine.coords, folded.coords)
    assert np.array_equal(via_engine.weights, folded.weights)
    assert via_engine.tau == folded.tau


#: Input mix per fold: the first k kinds fold together.
Z_KINDS = ("reservoir", "exact", "reservoir", "empty",
           "reservoir", "exact", "reservoir", "reservoir")
Z_SEEDS = 300


def test_folds_unbiased_per_input_count():
    """Mean folded estimates match the inputs' over 300 fold seeds.

    For each k in 1..8 the inputs are fixed and only the fold's
    generator varies, so the target is the inputs' own estimate of
    each key range; every |z| must stay below 4.  (At these seeds 23
    of the 24 ranges are random, and the largest |z| is 2.14.)
    """
    boxes = [(0, 40), (25, 1060), (1040, 6030)]
    for k in range(1, 9):
        rng = np.random.default_rng(100 + k)
        inputs = [
            make_input(kind, shard, 80, 30, rng)
            for shard, kind in enumerate(Z_KINDS[:k])
        ]
        union = sum(sample.size for sample in inputs)
        s = max(1, union // 3)

        def box_sums(sample):
            keys = sample.coords[:, 0]
            weights = sample.adjusted_weights
            return np.array([
                weights[(keys >= lo) & (keys < hi)].sum()
                for lo, hi in boxes
            ])

        truth = sum(box_sums(sample) for sample in inputs)
        folds = [
            SampleSummary.from_shards(
                inputs, s=s, rng=np.random.default_rng(seed)
            )
            for seed in range(Z_SEEDS)
        ]
        assert max(folded.size for folded in folds) <= s
        estimates = np.array([box_sums(folded) for folded in folds])
        mean = estimates.mean(axis=0)
        sem = estimates.std(axis=0, ddof=1) / np.sqrt(Z_SEEDS)
        for box, (m, t, e) in enumerate(zip(mean, truth, sem)):
            if e <= 1e-9 * max(t, 1.0):  # exact in every fold
                assert abs(m - t) <= 1e-9 * max(t, 1.0), (k, box)
                continue
            assert abs(m - t) / e < 4.0, (k, box, (m - t) / e)
