"""Statistical estimation harness: the universal third oracle.

Sampling is chunked; chunk k draws from a substream seeded by (seed, k) and
chunks merge in index order, so estimates are bit-identical however the work
is scheduled.  Acceptance bands elsewhere in the package are 4 standard
errors wide, keeping the whole suite's false-alarm rate negligible.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _count, _finite

# asymptotic two-sided Kolmogorov-Smirnov critical coefficient at the 1% level
KS_COEFF_1PCT = 1.628
# draws per substream of `estimate_moment`
CHUNK_SIZE = 65536


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo estimate with its standard error and provenance."""

    value: float
    std_error: float
    n_samples: int
    seed: int
    elapsed: float

    def to_dict(self) -> dict:
        # elapsed is wall-clock and deliberately excluded: serialised reports
        # must be byte-identical across runs
        return {"value": self.value, "std_error": self.std_error,
                "n_samples": self.n_samples, "seed": self.seed}


def estimate_moment(sampler, q: float, n: int, seed: int) -> MCEstimate:
    """Mean of sampler(...)^q over n draws with its standard error.

    sampler(size, rng) must return a 1-d array of draws.  q must be finite
    and n an integer of at least 2.
    """
    _count(n, 2, "estimate_moment: n")
    _finite(q, "estimate_moment: q")
    start = time.perf_counter()
    total = 0.0
    total_sq = 0.0
    done = 0
    chunk_index = 0
    while done < n:
        m = min(CHUNK_SIZE, n - done)
        rng = np.random.default_rng([seed, chunk_index])
        draws = np.asarray(sampler(m, rng), dtype=float)
        powed = draws if q == 1.0 else draws ** q
        total += float(powed.sum())
        total_sq += float((powed * powed).sum())
        done += m
        chunk_index += 1
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    se = math.sqrt(var / n)
    return MCEstimate(mean, se, n, seed, time.perf_counter() - start)


def ecdf_ks(samples, analytic_cdf) -> float:
    """Two-sided sup distance between the empirical CDF and an analytic CDF.

    The samples must be finite, and there must be at least two.
    """
    s = np.sort(_finite(np.asarray(samples, dtype=float), "ecdf_ks: samples"))
    n = s.size
    if n < 2:
        raise DomainError("need at least two samples")
    cdf_vals = np.asarray(analytic_cdf(s), dtype=float)
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - cdf_vals)
    d_minus = np.max(cdf_vals - (i - 1) / n)
    return float(max(d_plus, d_minus))


def ks_critical_1pct(n: int) -> float:
    """The asymptotic 1 % critical value of `ecdf_ks` over n >= 1 samples."""
    return KS_COEFF_1PCT / math.sqrt(_count(n, 1, "ks_critical_1pct: n"))
