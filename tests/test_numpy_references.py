"""The scalar group kernels against the numpy formulas they replaced.

For k < 8 numpy sums left to right, as the scalar kernels do, so the two
agree bit for bit; from k = 8 on numpy sums pairwise and they agree to 1e-12
relative (the baklizi bounds to 1e-12 times the conditioning of their
half-width, see ``_amplification``).  The references below are the array
formulas, kept here only.
"""

import math

import numpy as np
import pytest

from lnmean import classical
from lnmean.model import LOGNORMAL_MEAN, Dataset, SampleSummary
from lnmean.samplers import StreamKey, std_normal
from lnmean.simulate import SimulationCell, draw_block


def _ahmed_reference(ds):
    n = ds.counts()
    mu_hat = ds.means()
    sigma2 = (n - 1) / n * ds.variances()
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        theta = np.exp(mu_hat + 0.5 * sigma2)
        v = sigma2 * (1.0 + 0.5 * sigma2) * np.exp(2.0 * mu_hat + sigma2)
        if not np.isfinite(v).all():  # its weight 0 would leave its group out
            return None
        weights = n / v
        total = float(np.sum(weights))
        if not (math.isfinite(total) and total > 0.0):
            return None
        theta_tilde = float(np.sum(weights * theta) / total)
    return [*theta.tolist(), *weights.tolist(), theta_tilde, total ** -0.5]


def _baklizi_reference(ds, theta_hats, weights, level=0.95):
    q = classical._chi2_quantile(level, ds.k)
    theta, w = np.asarray(theta_hats), np.asarray(weights)
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(np.sum(w))
        centre = float(np.sum(w * theta) / total)
        spread = float(np.sum(w * (theta - centre) ** 2))
    if math.isnan(spread):
        raise ValueError(classical._AHMED_RANGE)
    if spread > q:
        raise ValueError(f"empty acceptance set: no common mean is accepted at level {level:g}")
    half = total ** -0.5 * math.sqrt(q - spread)
    return classical.interval_from_phi(centre - half, centre + half, level, estimate=centre)


def _log_likelihood_reference(ds, mu, sigma2s):
    v = np.asarray(sigma2s, dtype=float)
    n = ds.counts()
    quad = (n - 1) * ds.variances() + n * (ds.means() - mu + v / 2.0) ** 2
    return float(np.sum(-0.5 * n * np.log(2.0 * math.pi * v) - quad / (2.0 * v)))


def _simulate_reference(cell, rng):
    groups = []
    for sigma2, n in zip(cell.sigma2s, cell.ns):
        values = cell.mu - 0.5 * sigma2 + math.sqrt(sigma2) * std_normal(rng, n)
        groups.append((n, float(values.mean()), float(values.var(ddof=1))))
    return groups


def _random_dataset(rng, k):
    """n in 2..10^6, |mean| up to 500 and variances in 1e-8..1e3, all log-uniform.

    Half the datasets draw each group mean from the model at one common mu, so
    that the baklizi acceptance set is not always empty.
    """
    mu = float(rng.choice((-1, 1)) * 10 ** rng.uniform(-3, math.log10(500)))
    common = rng.random() < 0.5
    groups = []
    for _ in range(k):
        n = int(np.exp(rng.uniform(math.log(2), math.log(1e6))))
        variance = float(10 ** rng.uniform(-8, 3))
        if common:
            mean = mu - variance / 2.0 + math.sqrt(variance / n) * float(rng.normal())
        else:
            mean = float(rng.choice((-1, 1)) * 10 ** rng.uniform(-3, math.log10(500)))
        groups.append(SampleSummary(n, mean, variance))
    return Dataset(groups=tuple(groups), model=LOGNORMAL_MEAN)


def _ahmed(ds):
    try:
        comp = classical.ahmed_components(ds)
    except ValueError as exc:
        assert "overflow or underflow" in str(exc)
        return None, None
    return comp, [*comp.theta_hats, *comp.weights, comp.theta_tilde, comp.std_error]


def _interval(baklizi, *args):
    """The bounds and estimate of an interval, or what stopped it."""
    try:
        interval = baklizi(*args)
    except ValueError as exc:
        return str(exc)
    return [interval.phi_lower, interval.phi_upper, interval.estimate]


def _bits(values):
    return values if values is None or isinstance(values, str) else [v.hex() for v in values]


def _close(values, reference, rel):
    if values is None or isinstance(values, str):
        assert values == reference
    else:
        assert np.allclose(values, reference, rtol=rel, atol=0.0, equal_nan=True), (values, reference)


def _amplification(bounds, comp, k):
    """q / (q - Q) of a baklizi interval, at least 1.

    A relative change e in the spread Q moves sqrt(q - Q) by e Q / (2 (q - Q))
    relative; with se's own change e, the half-width se sqrt(q - Q) moves by
    at most e q / (q - Q), which is (se sqrt(q) / half-width)^2.
    """
    if isinstance(bounds, str):
        return 1.0
    lower, upper, _ = bounds
    widest = comp.std_error * math.sqrt(classical._chi2_quantile(0.95, k))
    return max(1.0, (widest / (0.5 * (upper - lower))) ** 2)


@pytest.mark.parametrize("ks, exact", [(range(1, 8), True), (range(8, 51), False)])
def test_group_kernels_match_the_numpy_formulas(ks, exact):
    rng = np.random.default_rng(9090 + exact)
    finite = 0
    for _ in range(600 if exact else 150):
        ds = _random_dataset(rng, int(rng.choice(ks)))
        comp, values = _ahmed(ds)
        reference = _ahmed_reference(ds)
        if comp is not None:
            finite += 1
            bounds = _interval(classical.baklizi_ci, comp)
            bounds_reference = _interval(_baklizi_reference, ds, comp.theta_hats, comp.weights)
        mu = float(rng.normal(ds.groups[0].mean, 1.0))
        sigma2s = [float(10 ** rng.uniform(-8, 3)) for _ in range(ds.k)]
        ll = classical.log_likelihood(ds, mu, sigma2s)
        ll_reference = _log_likelihood_reference(ds, mu, sigma2s)
        if exact:
            assert _bits(values) == _bits(reference)
            if comp is not None:
                assert _bits(bounds) == _bits(bounds_reference)
            assert ll.hex() == ll_reference.hex()
        else:
            _close(values, reference, 1e-12)
            if comp is not None:
                _close(bounds, bounds_reference,
                       1e-12 * _amplification(bounds_reference, comp, ds.k))
            _close([ll], [ll_reference], 1e-12)
    assert finite > 50  # enough datasets inside the float range to mean something


def test_one_draw_split_by_group_is_the_per_group_stream():
    rng = np.random.default_rng(77)
    for k in (1, 2, 3, 5, 7, 12):
        ns = tuple(int(n) for n in rng.integers(2, 3000, size=k))
        if k == 2:
            ns = (10 ** 6, 5)
        cell = SimulationCell(mu=float(rng.uniform(-500, 500)),
                              sigma2s=tuple(float(10 ** rng.uniform(-8, 3)) for _ in range(k)),
                              ns=ns, methods=("ahmed",), outer_reps=100, seed=k)
        # replicates 3, 4 and 5 of the cell, drawn as one block
        groups, valid = draw_block(cell, 3, 3)
        assert valid.all()
        for row, replicate in enumerate((3, 4, 5)):
            reference = _simulate_reference(cell, StreamKey(k, replicate).generator(0))
            assert groups.ns == ns
            assert [(mean.hex(), variance.hex()) for mean, variance in
                    zip(groups.means[row].tolist(), groups.variances[row].tolist())] == \
                [(mean.hex(), variance.hex()) for _, mean, variance in reference]
