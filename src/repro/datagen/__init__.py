"""Synthetic data and query workload generation.

The paper's proprietary network and ticket data sets (Section 6.1) are
replaced by seeded synthetic equivalents with the same heavy-tailed
shape.
"""

from repro.datagen.distributions import (
    pareto_weights,
    zipf_popularities,
    zipf_choice,
    with_heavy_head,
)
from repro.datagen.network import (
    NetworkConfig,
    generate_network_flows,
    network_domain,
    stream_network_flows,
)
from repro.datagen.tickets import TicketConfig, generate_tickets, clustered_leaves
from repro.datagen.queries import (
    uniform_area_queries,
    uniform_weight_queries,
    equal_weight_cells,
)
from repro.datagen.serving import (
    ReplayResult,
    TrafficQuery,
    latency_percentiles,
    open_loop_schedule,
    replay_open_loop,
    tenant_traffic,
)
from repro.datagen.timeseries import (
    TimeSeriesConfig,
    generate_bursty_series,
    stream_bursty_series,
    burstiness,
)

__all__ = [
    "TimeSeriesConfig",
    "generate_bursty_series",
    "stream_bursty_series",
    "burstiness",
    "pareto_weights",
    "zipf_popularities",
    "zipf_choice",
    "with_heavy_head",
    "NetworkConfig",
    "generate_network_flows",
    "network_domain",
    "stream_network_flows",
    "TicketConfig",
    "generate_tickets",
    "clustered_leaves",
    "uniform_area_queries",
    "uniform_weight_queries",
    "equal_weight_cells",
    "ReplayResult",
    "TrafficQuery",
    "latency_percentiles",
    "open_loop_schedule",
    "replay_open_loop",
    "tenant_traffic",
]
