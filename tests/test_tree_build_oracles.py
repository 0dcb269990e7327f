"""The array-native tree builds against their one-node-at-a-time oracles.

``QDigestSummary``'s leaves (boxes, order and weight bits) must equal
those of the greedy heap walk over the Morton trie in
``tests/oracles.py`` on generated inputs: odd sides whose top cells are
clipped, heap ties from unit and zero weights, duplicate points, node
budgets from 1 to past twice the number of distinct points, the empty
dataset, and panes of the size the windowed durable ingest rebuilds.
The kd build is pinned to the Algorithm 2 recursion at guide-sample
size, where the per-segment cumsum's length buckets come into play.
"""

import numpy as np
import pytest

import oracles
import test_kd
from repro.aware.kd import build_kd_hierarchy
from repro.core.ipps import ipps_threshold
from repro.core.types import Dataset
from repro.datagen.distributions import pareto_weights
from repro.datagen.network import NetworkConfig, generate_network_flows
from repro.structures.order import OrderedDomain
from repro.structures.product import ProductDomain
from repro.summaries.qdigest import QDigestSummary

SIDES = (1, 3, 7, 64, 1000, (1 << 20) + 3)


def assert_same_leaves(dataset, s):
    state = QDigestSummary(dataset, s).to_state()
    lows, highs, weights = oracles.qdigest_leaves(dataset, s)
    np.testing.assert_array_equal(state["box_lows"], lows)
    np.testing.assert_array_equal(state["box_highs"], highs)
    assert oracles.same_bits(state["weights"], weights)


def generated_dataset(seed):
    """Points drawn with replacement from a small pool (duplicates)."""
    rng = np.random.default_rng(seed)
    dims = int(rng.integers(1, 4))
    sides = [int(side) for side in rng.choice(SIDES, size=dims)]
    distinct = int(rng.integers(1, 30))
    pool = np.column_stack(
        [rng.integers(0, side, size=distinct) for side in sides]
    )
    n = int(rng.integers(1, 40))
    coords = pool[rng.integers(0, pool.shape[0], size=n)]
    kind = seed % 3
    if kind == 0:
        weights = np.ones(n)
    elif kind == 1:
        weights = rng.integers(0, 4, size=n).astype(float)  # zeros, ties
    else:
        weights = pareto_weights(n, 1.2, rng=rng)
    domain = ProductDomain([OrderedDomain(side) for side in sides])
    return Dataset(coords, weights, domain)


class TestQDigestOracle:
    @pytest.mark.parametrize("block", range(6))
    def test_generated(self, block):
        for seed in range(100 * block, 100 * block + 100):
            data = generated_dataset(seed)
            distinct = np.unique(data.coords, axis=0).shape[0]
            budgets = {1, 2, 3, distinct - 1, distinct, distinct + 1,
                       2 * distinct + 5, seed % 17 + 1}
            for s in sorted(b for b in budgets if b >= 1):
                assert_same_leaves(data, s)

    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_empty_dataset(self, dims):
        domain = ProductDomain([OrderedDomain(7)] * dims)
        empty = np.empty((0, dims), dtype=np.int64)
        data = Dataset(empty, np.empty(0), domain)
        for s in (1, 2, 5):
            assert_same_leaves(data, s)

    @pytest.mark.parametrize("batches", [1, 2, 4, 8, 16])
    def test_ingest_pane_sizes(self, batches):
        config = NetworkConfig(
            n_pairs=5000 * batches, n_sources=63_000, n_dests=50_000
        )
        assert_same_leaves(generate_network_flows(config, seed=batches), 3000)


class TestKDGuideSize:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_recursion(self, seed):
        # About 15k clustered flows with IPPS masses min(1, w / tau):
        # the guide sample a two-pass build at s=3000 partitions.
        data = generate_network_flows(NetworkConfig(n_pairs=15_000), seed)
        tau = ipps_threshold(data.weights, 3000)
        masses = np.minimum(1.0, data.weights / tau)
        kwargs = dict(domain=data.domain, leaf_mass=1.0)
        test_kd.TestOracleIdentity.assert_same_tree(
            build_kd_hierarchy(data.coords, masses, **kwargs),
            oracles.build_kd_hierarchy(data.coords, masses, **kwargs),
        )
