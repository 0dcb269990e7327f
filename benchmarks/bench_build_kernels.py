"""Before/after timings of the vectorized offline build kernels.

Times the fig3a (network) and fig3b (tickets) build paths at one
million items, once through the paper's scalar pipeline (the
item-at-a-time oracles in ``tests/oracles.py``) and once through the
vectorized NumPy kernels, and records both in ``BENCH_build.json``.  The
vectorized path must be at least 5x faster on every (dataset, method)
cell; smoke mode shrinks the datasets and skips the speedup assertion
(timings at toy sizes are dominated by fixed costs).

``aware`` is the paper's two-pass structure-aware sampler; ``obliv``
the one-pass VarOpt reservoir, whose scalar column is the per-item
heap walk (``tests/oracles.py::HeapVarOpt``) and whose vectorized
column folds the whole dataset in as one batch.  Both consume the same
data the fig3a/fig3b throughput figures are built from, at the
paper-scale item count those figures target.

The ``pane*`` records time the rebuilds a windowed durable ingest pays
per pane: ``aware`` and the batch ``qdigest`` on 2-D flows at 5k, 20k
and 80k items, against the two-pass oracle and the q-digest's heap
walk over the Morton trie (whose leaves the radix-tree selection must
reproduce bit for bit).  They are recorded without a speedup gate: the
heap walk shares the build's sort and prefix sum, so their ratio
follows the node budget, not the pane size.

The ``stream*:qdigest-stream`` record times the streaming q-digest a
serve-fresh setup builds (300k Pareto(1.2) items over 2^20 keys, s=3000,
so bits=20 and k=150) through the array build and through the paper's
dict walk kept as ``tests/oracles.py::DictQDigest``; the two must agree
on every node, count and scalar of ``to_state()``, bit for bit.
"""

import time

import numpy as np

from conftest import SMOKE, emit, emit_json, load_oracles, perf_assert
from repro.core.types import Dataset
from repro.core.varopt import stream_varopt_summary
from repro.datagen.distributions import pareto_weights
from repro.datagen.network import NetworkConfig, generate_network_flows
from repro.datagen.tickets import TicketConfig, generate_tickets
from repro.engine import registry
from repro.structures.product import line_domain
from repro.summaries.qdigest import QDigestSummary
from repro.summaries.qdigest_stream import StreamingQDigest
from repro.twopass.two_pass import two_pass_summary

SIZE = 3000
#: Builds per timing; smoke sizes are repeated so every recorded wall
#: time reads at least 0.1 s, twice check_regression.py's 0.05 s noise
#: floor, and stays gated on a faster host too.
REPEATS = 1
#: Timing trials; the best total is recorded.  Smoke records feed the
#: CI regression gate, where a single scheduler hiccup must not read
#: as a 2x kernel slowdown -- best-of-3 keeps them stable.
TRIALS = 1
NETWORK = NetworkConfig(n_pairs=1_000_000, n_sources=40_000, n_dests=30_000)
TICKETS = TicketConfig(n_combinations=1_000_000)
#: Item counts of the panes an ingest-durable run rebuilds.
PANES = (5_000, 20_000, 80_000)
PANE_SIZE = 3000
#: The serve-fresh streaming q-digest build: items, key domain and s.
STREAM_ITEMS = 300_000
STREAM_DOMAIN = 1 << 20
STREAM_SIZE = 3000
#: Extra repeats of a vectorized column that builds in about a
#: millisecond at smoke size: ``obliv`` folds a 3k-item dataset in one
#: batch (about 0.4 ms) and ``qdigest`` builds a 500- to 8,000-flow
#: pane at s=200 in 0.6-1.6 ms, so 32 builds would read under the
#: noise floor.
FAST_REPEATS = {}
if SMOKE:
    FAST_REPEATS = {"obliv": 16, "qdigest": 16}
    PANES = (500, 2_000, 8_000)
    PANE_SIZE = 200
    STREAM_ITEMS = 10_000
    SIZE = 200
    REPEATS = 32
    TRIALS = 3
    NETWORK = NetworkConfig(n_pairs=3_000, n_sources=1_000, n_dests=800)
    TICKETS = TicketConfig(n_combinations=3_000)


oracles = load_oracles()

#: (method, vectorized builder, scalar oracle builder)
BUILDERS = (
    ("obliv", stream_varopt_summary, oracles.stream_varopt_summary),
    ("aware", two_pass_summary, oracles.two_pass_summary),
)
PANE_BUILDERS = BUILDERS[1:] + ((
    "qdigest",
    lambda data, s, rng: QDigestSummary(data, s),
    lambda data, s, rng: oracles.qdigest_leaves(data, s),
),)


def _dict_qdigest(data, s, rng):
    """The registry's streaming q-digest, built by the dict walk."""
    shape = StreamingQDigest.for_domain(data.domain, s).to_state()
    digest = oracles.DictQDigest(
        shape["bits"], shape["k"], shape["compress_every"]
    )
    digest.update(data.coords[:, 0], data.weights)
    return digest


def _stream_data():
    """serve-fresh's build input: Pareto(1.2) items over 2^20 keys."""
    rng = np.random.default_rng([11, 1])
    return Dataset(
        coords=rng.integers(0, STREAM_DOMAIN, size=(STREAM_ITEMS, 1)),
        weights=pareto_weights(STREAM_ITEMS, 1.2, rng=rng),
        domain=line_domain(STREAM_DOMAIN),
    )


def _timed(builder, data, size=SIZE, repeats=REPEATS):
    """Best-of-``TRIALS`` total wall time of ``repeats`` seeded builds."""
    best = float("inf")
    for _trial in range(TRIALS):
        start = time.perf_counter()
        for repeat in range(repeats):
            summary = builder(data, size, np.random.default_rng(17 + repeat))
        best = min(best, time.perf_counter() - start)
    return summary, best


def _check_same(method, after, before):
    """Both paths built the same summary (``aware``: same distribution)."""
    if method == "qdigest-stream":
        assert oracles.same_qdigest_state(after.to_state(), before.state())
        return
    if method == "qdigest":
        state = after.to_state()
        lows, highs, weights = before
        assert np.array_equal(state["box_lows"], lows)
        assert np.array_equal(state["box_highs"], highs)
        assert oracles.same_bits(state["weights"], weights)
        return
    # The thresholds agree (up to the float association of the
    # streaming vs offline fixpoint) and the realized sizes match
    # within the +-1 of the final Bernoulli.
    assert np.isclose(after.tau, before.tau, rtol=1e-9)
    assert abs(after.size - before.size) <= 2


def _record(kernel, data, size, after, before, repeats=REPEATS):
    """``after`` times ``repeats`` builds, ``before`` ``REPEATS``."""
    speedup = (before / REPEATS) / max(after / repeats, 1e-9)
    return {
        "kernel": kernel,
        "n": data.n,
        "size": size,
        "repeats": repeats,
        "repeats_scalar": REPEATS,
        "wall_time_s": after,
        "wall_time_scalar_s": before,
        "speedup": speedup,
        "throughput_per_s": repeats * data.n / max(after, 1e-9),
    }


def test_build_kernels(results_dir):
    datasets = (
        ("fig3a_network", generate_network_flows(NETWORK, seed=42)),
        ("fig3b_tickets", generate_tickets(TICKETS, seed=1234)),
    )
    records = []
    lines = ["== Offline build kernels: scalar vs vectorized =="]
    for label, data in datasets:
        for method, builder, oracle in BUILDERS:
            repeats = REPEATS * FAST_REPEATS.get(method, 1)
            before_summary, before = _timed(oracle, data)
            after_summary, after = _timed(builder, data, repeats=repeats)
            _check_same(method, after_summary, before_summary)
            record = _record(
                f"{label}:{method}", data, SIZE, after, before, repeats
            )
            records.append(record)
            speedup = record["speedup"]
            lines.append(
                f"{label}:{method}  n={data.n}  "
                f"scalar {before:.2f}s -> vectorized {after:.3f}s"
                + (f" ({repeats} builds)" if repeats != REPEATS else "")
                + f"  ({speedup:.1f}x)"
            )
            perf_assert(
                speedup >= 5.0,
                f"{label}:{method} speedup {speedup:.1f}x < 5x",
            )
    lines.append("== Pane rebuilds (ingest-durable shape): oracle vs array ==")
    for items in PANES:
        config = NetworkConfig(
            n_pairs=items, n_sources=63_000, n_dests=50_000
        )
        data = generate_network_flows(config, seed=43)
        for method, builder, oracle in PANE_BUILDERS:
            repeats = REPEATS * FAST_REPEATS.get(method, 1)
            before_out, before = _timed(oracle, data, PANE_SIZE)
            after_summary, after = _timed(
                builder, data, PANE_SIZE, repeats=repeats
            )
            _check_same(method, after_summary, before_out)
            record = _record(
                f"pane{items}:{method}", data, PANE_SIZE, after, before,
                repeats,
            )
            records.append(record)
            lines.append(
                f"pane{items}:{method}  n={data.n}  s={PANE_SIZE}  "
                f"oracle {1e3 * before:.1f}ms -> array {1e3 * after:.1f}ms"
                + (f" ({repeats} builds)" if repeats != REPEATS else "")
                + f"  ({record['speedup']:.1f}x)"
            )
    lines.append("== Streaming q-digest (serve-fresh shape): dict vs array ==")
    data = _stream_data()
    before_out, before = _timed(_dict_qdigest, data, STREAM_SIZE)
    after_summary, after = _timed(
        lambda data, s, rng: registry.build("qdigest-stream", data, s, rng),
        data, STREAM_SIZE,
    )
    _check_same("qdigest-stream", after_summary, before_out)
    records.append(_record(
        f"stream{data.n}:qdigest-stream", data, STREAM_SIZE, after, before
    ))
    lines.append(
        f"stream{data.n}:qdigest-stream  n={data.n}  s={STREAM_SIZE}  "
        f"dict {1e3 * before:.1f}ms -> array {1e3 * after:.1f}ms  "
        f"({before / max(after, 1e-9):.1f}x)"
    )
    emit(results_dir, "build_kernels", "\n".join(lines))
    emit_json(results_dir, "build", records)
