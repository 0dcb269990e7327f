"""Sharded build + merge, and vectorized batch querying.

Demonstrates the engine subsystem: the dataset is split into shards,
each shard is summarized independently (serially here; pass a
``Coordinator`` as ``coordinator=`` to build on a worker fleet), and
the per-shard VarOpt samples are folded into one unbiased sample in
one VarOpt stage.  Query batteries are then answered in a single
broadcasted NumPy pass.

Run:  python examples/sharded_engine.py
"""

import time

import numpy as np

from repro import Box, ExactSummary, build_sharded, method_registry
from repro.datagen import NetworkConfig, generate_network_flows
from repro.datagen.queries import uniform_area_queries


def main():
    data = generate_network_flows(
        NetworkConfig(n_pairs=30_000, n_sources=8_000, n_dests=6_000),
        seed=11,
    )
    print(f"dataset: {data.n} flow keys, total bytes {data.total_weight:,.0f}")

    # --- Build: monolithic vs sharded (4 shards, merged down to s).
    s = 1_000
    start = time.perf_counter()
    mono = method_registry.build("obliv", data, s, np.random.default_rng(0))
    mono_secs = time.perf_counter() - start

    start = time.perf_counter()
    result = build_sharded(
        "obliv", data, s, np.random.default_rng(0), num_shards=4
    )
    shard_secs = time.perf_counter() - start
    merged = result.summary
    print(
        f"\nmonolithic build: {mono_secs * 1e3:7.1f} ms -> {mono}"
        f"\nsharded build   : {shard_secs * 1e3:7.1f} ms -> {merged}"
        f"  ({result.num_shards} shards of {result.shard_sizes} keys)"
    )
    print(
        f"estimate_total  : exact {data.total_weight:,.1f}, "
        f"merged {merged.estimate_total():,.1f}"
    )

    # --- Query: a battery of 500 random boxes, answered in one pass.
    rng = np.random.default_rng(7)
    queries = uniform_area_queries(data.domain, 500, 1, rng=rng)
    start = time.perf_counter()
    looped = [merged.query_multi(q) for q in queries]
    loop_secs = time.perf_counter() - start
    start = time.perf_counter()
    batched = merged.query_many(queries)
    batch_secs = time.perf_counter() - start
    print(
        f"\n500-query battery: loop {loop_secs * 1e3:6.1f} ms, "
        f"batched {batch_secs * 1e3:6.1f} ms "
        f"({loop_secs / max(batch_secs, 1e-9):.1f}x), "
        f"max |diff| = {max(abs(a - b) for a, b in zip(looped, batched)):.3g}"
    )

    # --- Accuracy parity on a known-heavy block.
    exact = ExactSummary(data)
    box = Box((0, 0), (data.domain.sizes[0] // 2, data.domain.sizes[1] - 1))
    print(
        f"\nhalf-domain query: exact {exact.query(box):,.1f}, "
        f"mono {mono.query(box):,.1f}, merged {merged.query(box):,.1f}"
    )


if __name__ == "__main__":
    main()
