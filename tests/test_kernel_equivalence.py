"""Statistical equivalence of the vectorized samplers and their oracles.

The chain kernels consume randomness in a different order than the
paper's scalar walks (kept as oracles in ``tests/oracles.py``), so
seeded runs diverge; what must hold is that both realize the *same
sampling distribution*.  For every sampler with a scalar oracle this
suite checks, over >= 50 seeds per path (``strict=True`` selects the
oracle):

* threshold agreement -- tau is RNG-free and must match per seed;
* realized sample size -- floor/ceil of the target on every seed;
* unbiasedness -- both paths' mean range-sum estimates match the
  exact answer within Monte Carlo noise;
* variance agreement -- the two paths' estimate variances are of the
  same scale;
* the structure-aware discrepancy guarantees hold on the vectorized
  path seed for seed (they are hard guarantees, not statistical).
"""

import numpy as np
import pytest

import oracles
from repro.aware.disjoint import disjoint_aware_sample
from repro.aware.hierarchy_sampler import hierarchy_aware_sample
from repro.aware.order_sampler import order_aware_sample
from repro.aware.product_sampler import product_aware_sample
from repro.core.discrepancy import (
    max_hierarchy_discrepancy,
    max_interval_discrepancy,
    max_prefix_discrepancy,
)
from repro.core.ipps import ipps_probabilities
from repro.core.types import Dataset
from repro.core.varopt import stream_varopt_summary, varopt_sample
from repro.structures.hierarchy import BitHierarchy
from repro.structures.product import ProductDomain
from repro.twopass.two_pass import two_pass_summary

SEEDS = range(60)
N = 300
S = 25


@pytest.fixture(scope="module")
def payload():
    rng = np.random.default_rng(1234)
    keys = np.sort(rng.choice(4096, size=N, replace=False))
    weights = 1.0 + rng.pareto(1.3, size=N)
    labels = keys // 256
    coords2 = rng.integers(0, 512, size=(N, 2))
    hierarchy = BitHierarchy(12)
    probs, tau = ipps_probabilities(weights, S)
    return {
        "keys": keys,
        "weights": weights,
        "labels": labels,
        "coords2": coords2,
        "hierarchy": hierarchy,
        "probs": probs,
        "tau": tau,
    }


def _samplers(payload):
    """Name -> callable(rng, strict) -> (included, tau).

    ``strict=True`` runs the scalar oracle, ``False`` the production
    sampler.
    """
    keys = payload["keys"]
    w = payload["weights"]
    h = payload["hierarchy"]

    def order(rng, strict):
        sample = oracles.order_aware_sample if strict else order_aware_sample
        inc, tau, _ = sample(keys, w, S, rng)
        return inc, tau

    def disjoint(rng, strict):
        sample = (
            oracles.disjoint_aware_sample if strict else disjoint_aware_sample
        )
        inc, tau, _ = sample(payload["labels"], w, S, rng)
        return inc, tau

    def hierarchy(rng, strict):
        sample = (
            oracles.hierarchy_aware_sample if strict
            else hierarchy_aware_sample
        )
        inc, tau, _ = sample(keys, w, S, h, rng)
        return inc, tau

    def product(rng, strict):
        sample = (
            oracles.product_aware_sample if strict else product_aware_sample
        )
        inc, tau, _ = sample(payload["coords2"], w, S, rng)
        return inc, tau

    def varopt(rng, strict):
        sample = oracles.varopt_sample if strict else varopt_sample
        return sample(w, S, rng)

    return {
        "order": order,
        "disjoint": disjoint,
        "hierarchy": hierarchy,
        "product": product,
        "varopt": varopt,
    }


def _subset_estimate(included, tau, weights, subset_mask):
    """Horvitz-Thompson estimate of the subset's weight."""
    adjusted = np.maximum(weights[included], tau) if tau > 0 else weights[included]
    return float(adjusted[subset_mask[included]].sum())


@pytest.mark.parametrize(
    "name", ["order", "disjoint", "hierarchy", "product", "varopt"]
)
def test_tau_and_size_agree_per_seed(payload, name):
    sampler = _samplers(payload)[name]
    for seed in SEEDS:
        inc_v, tau_v = sampler(np.random.default_rng(seed), False)
        inc_s, tau_s = sampler(np.random.default_rng(seed), True)
        assert tau_v == tau_s == payload["tau"]
        assert abs(inc_v.size - S) <= 1
        assert abs(inc_s.size - S) <= 1


@pytest.mark.parametrize(
    "name", ["order", "disjoint", "hierarchy", "product", "varopt"]
)
def test_unbiased_and_same_variance_scale(payload, name):
    sampler = _samplers(payload)[name]
    weights = payload["weights"]
    if name == "product":
        subset_mask = payload["coords2"][:, 0] < 170
    else:
        subset_mask = payload["keys"] < 1400
    truth = float(weights[subset_mask].sum())
    estimates = {True: [], False: []}
    for strict in (False, True):
        for seed in SEEDS:
            inc, tau = sampler(np.random.default_rng(seed), strict)
            estimates[strict].append(
                _subset_estimate(inc, tau, weights, subset_mask)
            )
    for strict, values in estimates.items():
        values = np.asarray(values)
        sem = values.std(ddof=1) / np.sqrt(values.size)
        assert abs(values.mean() - truth) <= 4.0 * sem + 1e-9, (
            f"{name} strict={strict}: mean {values.mean():.2f} vs "
            f"truth {truth:.2f} (sem {sem:.2f})"
        )
    var_v = np.var(estimates[False], ddof=1)
    var_s = np.var(estimates[True], ddof=1)
    if var_s > 0 and var_v > 0:
        ratio = var_v / var_s
        assert 0.3 < ratio < 3.3, f"{name}: variance ratio {ratio:.2f}"


def test_structural_guarantees_vectorized(payload):
    keys = payload["keys"]
    w = payload["weights"]
    probs = payload["probs"]
    h = payload["hierarchy"]
    for seed in SEEDS:
        inc, _, _ = order_aware_sample(
            keys, w, S, np.random.default_rng(seed)
        )
        mask = np.zeros(N, dtype=bool)
        mask[inc] = True
        assert max_prefix_discrepancy(keys, probs, mask) < 1.0 + 1e-9
        assert max_interval_discrepancy(keys, probs, mask) < 2.0 + 1e-9

        inc, _, _ = hierarchy_aware_sample(
            keys, w, S, h, np.random.default_rng(seed)
        )
        mask = np.zeros(N, dtype=bool)
        mask[inc] = True
        assert max_hierarchy_discrepancy(h, keys, probs, mask) < 1.0 + 1e-9

        inc, _, _ = disjoint_aware_sample(
            payload["labels"], w, S, np.random.default_rng(seed)
        )
        mask = np.zeros(N, dtype=bool)
        mask[inc] = True
        for label in np.unique(payload["labels"]):
            in_range = payload["labels"] == label
            expected = probs[in_range].sum()
            actual = mask[in_range].sum()
            assert abs(actual - expected) < 1.0 + 1e-9


def test_merge_strict_seed_escape_hatch():
    """merge/downsample agree with the scalar re-aggregation oracle.

    Same threshold, sizes within the final Bernoulli's +-1.
    """
    rng = np.random.default_rng(5)
    datasets = [
        Dataset.one_dimensional(
            np.arange(k * 100, k * 100 + 100),
            1.0 + rng.pareto(1.3, size=100),
            size=1000,
        )
        for k in range(2)
    ]
    samples = [
        varopt_sample(d.weights, 30, np.random.default_rng(k))
        for k, d in enumerate(datasets)
    ]
    from repro.core.estimator import SampleSummary

    summaries = [
        SampleSummary(d.coords[inc], d.weights[inc], tau)
        for d, (inc, tau) in zip(datasets, samples)
    ]
    merged_v = summaries[0].merge(
        summaries[1], s=30, rng=np.random.default_rng(9)
    )
    merged_s = oracles.merge(
        summaries[0], summaries[1], s=30, rng=np.random.default_rng(9)
    )
    assert merged_v.tau == merged_s.tau
    assert abs(merged_v.size - 30) <= 1 and abs(merged_s.size - 30) <= 1
    big = merged_v if merged_v.size >= merged_s.size else merged_s
    down_v = big.downsample(10, np.random.default_rng(3))
    down_s = oracles.downsample(big, 10, np.random.default_rng(3))
    assert down_v.tau == down_s.tau
    assert abs(down_v.size - 10) <= 1 and abs(down_s.size - 10) <= 1


def _assert_same_sample(got, expect):
    assert got.coords.shape == expect.coords.shape
    np.testing.assert_array_equal(got.coords, expect.coords)
    assert oracles.same_bits(got.weights, expect.weights)
    assert oracles.same_bits([got.tau], [expect.tau])


def test_one_and_two_input_folds_match_the_pairwise_oracle():
    """1- and 2-input folds are the pairwise merge/downsample, draw for draw.

    ``SampleSummary.from_shards`` folds any number of inputs in one
    stage; with one or two inputs it must equal the pairwise
    ``oracles.merge`` / ``oracles.downsample`` run on the production
    stage (``oracles.chain_reaggregate``) bit for bit: reservoir,
    offline VarOpt, exact (tau = 0) and empty inputs, targets from 1 to
    past the union, and the default target.
    """
    from repro.core.estimator import SampleSummary
    from repro.engine import registry
    from repro.structures.order import OrderedDomain

    size = 1 << 12
    domain = ProductDomain([OrderedDomain(size), OrderedDomain(size)])
    empty = SampleSummary(np.empty((0, 2), dtype=np.int64), np.empty(0), 0.0)
    for seed in range(30):
        rng = np.random.default_rng(seed)
        data = Dataset(
            coords=rng.integers(0, size, size=(400, 2)),
            weights=1.0 + rng.pareto(1.2, size=400),
            domain=domain,
        )
        a = registry.build("obliv", data.subset(slice(0, 150)), 60, rng)
        b = registry.build("varopt", data.subset(slice(150, 300)), 40, rng)
        exact = SampleSummary(data.coords[300:330], data.weights[300:330], 0.0)
        pairs = [(a, b), (b, a), (a, exact), (exact, b), (a, empty),
                 (empty, b), (exact, exact), (empty, empty)]
        for s in (None, 1, 10, 40, 70, 200):
            for x, y in pairs:
                want = oracles.merge(
                    x, y, s, np.random.default_rng(seed),
                    stage=oracles.chain_reaggregate,
                )
                for got in (
                    SampleSummary.from_shards(
                        [x, y], s=s, rng=np.random.default_rng(seed)
                    ),
                    x.merge(y, s=s, rng=np.random.default_rng(seed)),
                ):
                    _assert_same_sample(got, want)
            for x in (a, b, exact, empty):
                target = x.size if s is None else s
                want = oracles.downsample(
                    x, target, np.random.default_rng(seed),
                    stage=oracles.chain_reaggregate,
                )
                _assert_same_sample(
                    SampleSummary.from_shards(
                        [x], s=s, rng=np.random.default_rng(seed)
                    ),
                    want,
                )
                _assert_same_sample(
                    x.downsample(target, np.random.default_rng(seed)), want
                )


class TestDatasetBuilders:
    """The dataset-level builders: two-pass ``aware`` and ``obliv``."""

    #: Production builder -> its item-at-a-time oracle.
    ORACLES = {
        two_pass_summary: oracles.two_pass_summary,
        stream_varopt_summary: oracles.stream_varopt_summary,
    }

    @pytest.fixture(scope="class")
    def dataset(self):
        rng = np.random.default_rng(77)
        keys = rng.choice(50_000, size=400, replace=False)
        weights = 1.0 + rng.pareto(1.2, size=400)
        return Dataset.one_dimensional(keys, weights, size=50_000)

    @pytest.mark.parametrize(
        "builder", [two_pass_summary, stream_varopt_summary]
    )
    def test_tau_sizes_and_unbiased_totals(self, dataset, builder):
        totals = {True: [], False: []}
        for strict in (False, True):
            build = self.ORACLES[builder] if strict else builder
            for seed in SEEDS:
                summary = build(dataset, 30, np.random.default_rng(seed))
                assert np.isclose(
                    summary.tau,
                    ipps_probabilities(dataset.weights, 30)[1],
                    rtol=1e-9,
                )
                assert abs(summary.size - 30) <= 1
                totals[strict].append(summary.estimate_total())
        truth = dataset.total_weight
        for strict, values in totals.items():
            values = np.asarray(values)
            sem = values.std(ddof=1) / np.sqrt(values.size)
            assert abs(values.mean() - truth) <= 4.0 * sem + 1e-9
        var_v = np.var(totals[False], ddof=1)
        var_s = np.var(totals[True], ddof=1)
        if var_s > 0 and var_v > 0:
            assert 0.3 < var_v / var_s < 3.3
