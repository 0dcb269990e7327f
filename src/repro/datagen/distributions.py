"""Weight and popularity distributions for the synthetic generators.

The proprietary data sets of Section 6.1 are replaced by synthetic
equivalents (``network.py`` and ``tickets.py``).  Both real workloads
are heavy tailed; these helpers provide seeded Pareto weights and Zipf
popularities with the standard shapes used in the networking and
database literature.
"""

from __future__ import annotations

import numpy as np


def pareto_weights(
    n: int,
    alpha: float = 1.2,
    scale: float = 1.0,
    rng: np.random.Generator = None,
) -> np.ndarray:
    """Heavy-tailed Pareto(alpha) weights (flow bytes, ticket counts).

    ``alpha`` close to 1 gives the very skewed distributions typical of
    network flow sizes.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if rng is None:
        rng = np.random.default_rng()
    return scale * (1.0 + rng.pareto(alpha, size=n))


def zipf_popularities(k: int, exponent: float = 1.0) -> np.ndarray:
    """Normalized Zipf probabilities over ``k`` categories."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    ranks = np.arange(1, k + 1, dtype=float)
    raw = ranks ** (-exponent)
    return raw / raw.sum()


def zipf_choice(
    k: int,
    size: int,
    exponent: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``size`` category indices from a Zipf(exponent) over ``k``."""
    probs = zipf_popularities(k, exponent)
    return rng.choice(k, size=size, p=probs)


def with_heavy_head(
    weights: np.ndarray,
    head_fraction: float,
    head_multiplier: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Inflate a random fraction of weights into a fat head.

    The tech-ticket data "has many high weight keys which must be
    included in both samples" (Section 6.4); this transform reproduces
    that property on top of any base distribution.
    """
    if not 0 <= head_fraction <= 1:
        raise ValueError("head_fraction must be in [0, 1]")
    weights = np.asarray(weights, dtype=float).copy()
    n_head = int(round(head_fraction * weights.size))
    if n_head:
        chosen = rng.choice(weights.size, size=n_head, replace=False)
        weights[chosen] *= head_multiplier
    return weights
