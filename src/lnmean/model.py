"""Domain types and closed-form estimators for the shared-mean normal family.

Each of k independent groups is modeled on the (log) normal scale as
N(a*mu + b*sigma_i^2, sigma_i^2) with a common parameter mu and per-group
variances.  The common lognormal mean problem is the member with a = 1 and
b = -0.5, where mu = ln(phi) and phi is the shared mean of the original
lognormal observations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class ModelSpec:
    """Constants (a, b) selecting the group mean structure a*mu + b*sigma^2."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("model constants must be finite")
        if self.a == 0.0:
            raise ValueError("model constant a must be nonzero")

    @property
    def is_lognormal_mean(self) -> bool:
        return self.a == 1.0 and self.b == -0.5


LOGNORMAL_MEAN = ModelSpec(a=1.0, b=-0.5)
COMMON_NORMAL_MEAN = ModelSpec(a=1.0, b=0.0)


@dataclass(frozen=True)
class SampleSummary:
    """Sufficient statistics for one group: count, mean, unbiased variance.

    ``variance`` always uses the n-1 divisor; estimators that need the
    n-divisor form rescale it themselves.
    """

    n: int
    mean: float
    variance: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("each group needs at least two observations")
        if not math.isfinite(self.mean):
            raise ValueError("group mean must be finite")
        if not (math.isfinite(self.variance) and self.variance > 0.0):
            raise ValueError("group variance must be finite and strictly positive")


@dataclass(frozen=True)
class Dataset:
    """Ordered group summaries plus the model they are analyzed under.

    ``total_n`` is stored once at construction so every formula that uses the
    pooled count reads the same value.
    """

    groups: tuple[SampleSummary, ...]
    model: ModelSpec = LOGNORMAL_MEAN
    total_n: int = field(init=False)

    def __post_init__(self):
        groups = tuple(self.groups)
        if not groups:
            raise ValueError("dataset needs at least one group")
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "total_n", sum(g.n for g in groups))

    @property
    def k(self) -> int:
        return len(self.groups)

    def counts(self) -> np.ndarray:
        return np.array([g.n for g in self.groups], dtype=np.int64)

    def means(self) -> np.ndarray:
        return np.array([g.mean for g in self.groups], dtype=float)

    def variances(self) -> np.ndarray:
        return np.array([g.variance for g in self.groups], dtype=float)

    def group_terms(self) -> list[tuple[float, float, float]]:
        """Per group (n_i, ybar_i, (n_i - 1) s_i^2) as Python floats.

        k is small, so formulas over the groups run in scalar arithmetic.
        """
        return [(float(g.n), float(g.mean), (g.n - 1) * float(g.variance)) for g in self.groups]


@dataclass(frozen=True)
class KnownVarianceSpec:
    """Externally known group variances, matched by position to the groups."""

    variances: tuple[float, ...]

    def __post_init__(self):
        variances = tuple(float(v) for v in self.variances)
        if not variances:
            raise ValueError("need at least one variance")
        if any(not (math.isfinite(v) and v > 0.0) for v in variances):
            raise ValueError("known variances must be finite and strictly positive")
        object.__setattr__(self, "variances", variances)


def summarize(groups: Iterable[Sequence[float]], model: ModelSpec = LOGNORMAL_MEAN,
              log_transform: bool = False) -> Dataset:
    """Build a Dataset from raw per-group observations.

    Parameters
    ----------
    groups : iterable of sequences
        One sequence of raw observations per group, each of length >= 2.
    model : ModelSpec
        Mean structure the dataset will be analyzed under.
    log_transform : bool
        Take logs first (all values must be strictly positive), e.g. for
        lognormal observations supplied on the original scale.
    """
    summaries = []
    for index, values in enumerate(groups):
        arr = np.asarray(list(values), dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError(f"group {index}: need at least two observations")
        if log_transform:
            if np.any(arr <= 0.0):
                raise ValueError(f"group {index}: log transform requires positive values")
            arr = np.log(arr)
        variance = float(arr.var(ddof=1))
        if variance <= 0.0:
            raise ValueError(f"group {index}: sample variance is zero (constant sample)")
        summaries.append(SampleSummary(n=int(arr.size), mean=float(arr.mean()), variance=variance))
    return Dataset(groups=tuple(summaries), model=model)


def umvue_known_variance(ds: Dataset, kv: KnownVarianceSpec) -> tuple[float, float]:
    """Best unbiased estimator of mu, and its variance, for known group variances.

    Returns ``(mu_hat, var_mu_hat)`` where

        mu_hat = (sum_i n_i ybar_i / v_i - n b) / (a sum_i n_i / v_i)
        var    = 1 / (a^2 sum_i n_i / v_i)

    with v_i the known variances and n the pooled count.
    """
    if len(kv.variances) != ds.k:
        raise ValueError(f"got {len(kv.variances)} variances for {ds.k} groups")
    n = ds.counts()
    v = np.asarray(kv.variances, dtype=float)
    weights = n / v
    total_weight = float(np.sum(weights))
    mu_hat = (float(np.sum(weights * ds.means())) - ds.total_n * ds.model.b) / (ds.model.a * total_weight)
    return mu_hat, 1.0 / (ds.model.a ** 2 * total_weight)


def umvue_lognormal_mean(ds: Dataset, kv: KnownVarianceSpec) -> tuple[float, float]:
    """Unbiased and maximum-likelihood estimators of the lognormal mean exp(mu).

    Requires the (a=1, b=-0.5) model.  Returns ``(umvue, mle)``; the unbiased
    estimator subtracts the positive correction 1 / sum_i(2 n_i / v_i) in the
    exponent, so it is always below the MLE exp(mu_hat).
    """
    if not ds.model.is_lognormal_mean:
        raise ValueError("defined for the lognormal-mean model (a=1, b=-0.5) only")
    mu_hat, _ = umvue_known_variance(ds, kv)
    correction = 1.0 / float(np.sum(2.0 * ds.counts() / np.asarray(kv.variances, dtype=float)))
    return math.exp(mu_hat - correction), math.exp(mu_hat)
