"""repro: structure-aware VarOpt sampling.

A full reproduction of Cohen, Cormode, Duffield, *Structure-Aware
Sampling: Flexible and Accurate Summarization* (VLDB 2011 /
arXiv:1102.5146): variance-optimal weighted sampling whose samples are
spread over an order, hierarchy, or multi-dimensional product structure
so that range queries see near-zero discrepancy -- while keeping every
benefit of plain samples (unbiased arbitrary subset sums, tail bounds,
representative keys).

Quick start::

    import numpy as np
    from repro import Dataset, two_pass_summary
    from repro.datagen import generate_network_flows

    data = generate_network_flows()
    sample = two_pass_summary(data, s=1000, rng=np.random.default_rng(0))
    estimate = sample.query(some_box)
"""

from repro.core import (
    Dataset,
    SampleSummary,
    StreamVarOpt,
    StreamingThreshold,
    ipps_probabilities,
    ipps_threshold,
    pair_aggregate,
    pair_aggregate_values,
    poisson_summary,
    stream_varopt_summary,
    varopt_sample,
    varopt_summary,
)
from repro.aware import (
    build_kd_hierarchy,
    deterministic_order_sample,
    disjoint_aware_summary,
    hierarchy_aware_summary,
    order_aware_summary,
    product_aware_summary,
    systematic_summary,
    uniform_grid_sample,
)
from repro.twopass import TwoPassSampler, two_pass_summary
from repro.structures import (
    BitHierarchy,
    Box,
    ExplicitHierarchy,
    MultiRangeQuery,
    OrderedDomain,
    ProductDomain,
)
from repro.summaries import (
    DyadicSketchSummary,
    ExactSummary,
    QDigestSummary,
    StreamingQDigest,
    WaveletSummary,
)
from repro.engine import ShardedBuild, build_sharded, shard_dataset
from repro.engine import registry as method_registry
from repro.stream import (
    BufferedRebuildSummary,
    MicroBatch,
    StreamEngine,
    sliding,
    tumbling,
)
from repro.distributed import Coordinator, DistributedIngest, QueryFrontend

__version__ = "1.3.0"

__all__ = [
    "Dataset",
    "SampleSummary",
    "StreamVarOpt",
    "StreamingThreshold",
    "ipps_probabilities",
    "ipps_threshold",
    "pair_aggregate",
    "pair_aggregate_values",
    "poisson_summary",
    "stream_varopt_summary",
    "varopt_sample",
    "varopt_summary",
    "build_kd_hierarchy",
    "deterministic_order_sample",
    "uniform_grid_sample",
    "StreamingQDigest",
    "disjoint_aware_summary",
    "hierarchy_aware_summary",
    "order_aware_summary",
    "product_aware_summary",
    "systematic_summary",
    "TwoPassSampler",
    "two_pass_summary",
    "BitHierarchy",
    "Box",
    "ExplicitHierarchy",
    "MultiRangeQuery",
    "OrderedDomain",
    "ProductDomain",
    "DyadicSketchSummary",
    "ExactSummary",
    "QDigestSummary",
    "WaveletSummary",
    "ShardedBuild",
    "build_sharded",
    "method_registry",
    "shard_dataset",
    "BufferedRebuildSummary",
    "MicroBatch",
    "StreamEngine",
    "sliding",
    "tumbling",
    "Coordinator",
    "DistributedIngest",
    "QueryFrontend",
    "__version__",
]
