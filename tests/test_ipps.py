"""Tests for IPPS probabilities and threshold computation (Algorithm 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aware.disjoint import disjoint_aware_sample
from repro.aware.hierarchy_sampler import hierarchy_aware_sample
from repro.aware.order_sampler import order_aware_sample
from repro.aware.product_sampler import product_aware_sample
from repro.core.ipps import (
    StreamingThreshold,
    heavy_key_mask,
    ipps_probabilities,
    ipps_threshold,
)
from repro.core.varopt import varopt_sample
from repro.structures.hierarchy import BitHierarchy

weight_lists = st.lists(
    st.floats(min_value=0.01, max_value=1e6, allow_nan=False),
    min_size=1,
    max_size=120,
)


class TestOfflineThreshold:
    def test_rejects_nonpositive_s(self):
        with pytest.raises(ValueError):
            ipps_threshold(np.array([1.0]), 0)

    def test_uniform_weights(self):
        w = np.ones(100)
        tau = ipps_threshold(w, 10)
        # sum min(1, 1/tau) = 100/tau = 10 -> tau = 10.
        assert tau == pytest.approx(10.0)

    def test_sum_of_probabilities_equals_s(self):
        rng = np.random.default_rng(0)
        w = 1.0 + rng.pareto(1.1, size=500)
        for s in (3, 10, 50, 200, 499):
            p, tau = ipps_probabilities(w, s)
            assert p.sum() == pytest.approx(s, rel=1e-9)
            assert tau > 0

    def test_s_at_least_n_includes_all(self):
        w = np.array([1.0, 2.0, 3.0])
        p, tau = ipps_probabilities(w, 3)
        assert tau == 0.0
        np.testing.assert_array_equal(p, np.ones(3))

    def test_zero_weights_excluded(self):
        w = np.array([0.0, 5.0, 0.0, 5.0])
        p, tau = ipps_probabilities(w, 1)
        assert p[0] == 0.0 and p[2] == 0.0
        assert p.sum() == pytest.approx(1.0)

    def test_heavy_keys_probability_one(self):
        w = np.array([1000.0, 1.0, 1.0, 1.0, 1.0])
        p, tau = ipps_probabilities(w, 2)
        assert p[0] == 1.0
        # Remaining 4 unit weights share the one remaining slot.
        assert p[1:].sum() == pytest.approx(1.0)

    def test_all_heavy_when_s_equals_n_minus_epsilon(self):
        w = np.array([10.0, 10.0, 10.0])
        p, tau = ipps_probabilities(w, 2.5)
        assert p.sum() == pytest.approx(2.5)

    @given(weight_lists, st.integers(1, 40))
    @settings(max_examples=80, deadline=None)
    def test_threshold_solves_equation(self, weights, s):
        w = np.asarray(weights)
        p, tau = ipps_probabilities(w, s)
        expect = min(s, np.count_nonzero(w > 0))
        assert p.sum() == pytest.approx(expect, rel=1e-6)
        assert ((p >= 0) & (p <= 1)).all()


class TestHeavyMask:
    def test_matches_probability_one(self):
        rng = np.random.default_rng(5)
        w = 1.0 + rng.pareto(1.0, size=300)
        p, tau = ipps_probabilities(w, 30)
        mask = heavy_key_mask(w, tau)
        np.testing.assert_array_equal(mask, p >= 1.0 - 1e-9)

    def test_tau_zero_means_all_positive(self):
        w = np.array([0.0, 1.0, 2.0])
        np.testing.assert_array_equal(
            heavy_key_mask(w, 0.0), [False, True, True]
        )


class TestStreamingThreshold:
    def test_matches_offline_on_random_streams(self):
        rng = np.random.default_rng(1)
        for trial in range(5):
            w = 1.0 + rng.pareto(1.2, size=400)
            s = int(rng.integers(5, 100))
            stream = StreamingThreshold(s)
            stream.update_many(w)
            assert stream.tau == pytest.approx(
                ipps_threshold(w, s), rel=1e-9
            )

    def test_order_invariance(self):
        rng = np.random.default_rng(2)
        w = 1.0 + rng.pareto(1.0, size=200)
        s = 20
        forward = StreamingThreshold(s)
        forward.update_many(w)
        backward = StreamingThreshold(s)
        backward.update_many(w[::-1])
        assert forward.tau == pytest.approx(backward.tau, rel=1e-9)

    def test_tau_zero_until_s_items(self):
        stream = StreamingThreshold(5)
        for w in [3.0, 1.0, 2.0, 5.0, 4.0]:
            stream.update(w)
            assert stream.tau == 0.0
        stream.update(1.0)
        assert stream.tau > 0.0

    def test_ignores_zero_weights(self):
        stream = StreamingThreshold(2)
        stream.update_many(np.array([1.0, 0.0, 1.0, 0.0, 1.0]))
        assert stream.count == 3
        assert stream.tau == pytest.approx(ipps_threshold(np.ones(3), 2))

    def test_rejects_negative_weight(self):
        stream = StreamingThreshold(2)
        with pytest.raises(ValueError):
            stream.update(-1.0)

    def test_rejects_nonpositive_s(self):
        with pytest.raises(ValueError):
            StreamingThreshold(0)

    @given(weight_lists, st.integers(1, 25))
    @settings(max_examples=60, deadline=None)
    def test_streaming_equals_offline(self, weights, s):
        stream = StreamingThreshold(s)
        stream.update_many(np.asarray(weights))
        offline = ipps_threshold(np.asarray(weights), s)
        assert stream.tau == pytest.approx(offline, rel=1e-6, abs=1e-12)


def _bad_input_calls():
    """(id, call) pairs that must raise ``ValueError``."""
    rng = np.random.default_rng(0)
    keys = rng.choice(1024, size=50, replace=False)
    coords = rng.integers(0, 1024, size=(50, 2))
    weights = 1.0 + rng.random(50)
    h = BitHierarchy(10)
    gen = np.random.default_rng
    calls = []
    for name, short_keys, short_weights in (
        ("short_keys", slice(0, 30), slice(None)),
        ("short_weights", slice(None), slice(0, 30)),
    ):
        k, c, w = keys[short_keys], coords[short_keys], weights[short_weights]
        calls += [
            (f"order-{name}",
             lambda k=k, w=w: order_aware_sample(k, w, 10, gen(0))),
            (f"disjoint-{name}",
             lambda k=k, w=w: disjoint_aware_sample(k // 100, w, 10, gen(0))),
            (f"hierarchy-{name}",
             lambda k=k, w=w: hierarchy_aware_sample(k, w, 10, h, gen(0))),
            (f"product-{name}",
             lambda c=c, w=w: product_aware_sample(c, w, 10, gen(0))),
        ]
    for label, bad in (("negative", -1.0), ("nan", np.nan),
                       ("inf", np.inf), ("neg_inf", -np.inf)):
        w = weights.copy()
        w[7] = bad
        calls += [
            (f"ipps-{label}", lambda w=w: ipps_probabilities(w, 10)),
            (f"varopt-{label}", lambda w=w: varopt_sample(w, 10, gen(0))),
        ]
    return calls


@pytest.mark.parametrize(
    "call",
    [pytest.param(call, id=name) for name, call in _bad_input_calls()],
)
def test_samplers_reject_bad_inputs(call):
    """Mismatched lengths and bad weights raise instead of biasing.

    Unchecked, a key/weight length mismatch silently drops the surplus
    rows (``order_aware_sample(keys[:30], weights[:50], 10)`` would
    return 6 keys) or raises a bare ``IndexError``, and negative
    weights become negative "probabilities".
    """
    with pytest.raises(ValueError):
        call()
