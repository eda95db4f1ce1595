"""Random-sampling statistics of the check-bit estimate and the error-rate
recursion under repeated purification.

The check bits estimate the code-bit error rate by sampling: the estimate's
deviation is sigma = sqrt(r(1-r)/n).  `cheat_probability` quantifies the risk
of accepting a channel whose code bits are actually worse than a threshold;
two directions are exposed because the deviation can be computed either at
the threshold rate (a channel at the threshold masquerading as r, the
default) or at the observed rate.  An exact binomial tail is available
alongside the Gaussian model.

The recursion r_{i+1} = exp(-T^2 / r_i) models how the error rate falls
under iterated correction once below a code threshold T; the scaling
relation is implemented as an equality, and outputs are labeled "model".
Values that underflow are floored at the smallest positive float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError

__all__ = [
    "SamplingModel",
    "RecursionModel",
    "UNDERFLOW_FLOOR",
    "sigma",
    "confidence_threshold",
    "cheat_probability",
    "cheat_probability_binomial",
    "iterate_error_rate",
    "normal_upper_tail",
]

# smallest positive representable double (subnormal)
UNDERFLOW_FLOOR = 5e-324


@dataclass(frozen=True)
class SamplingModel:
    """A Bernoulli error process: true rate r sampled at n positions."""

    r: float
    n: int

    def __post_init__(self):
        if not 0.0 <= self.r <= 1.0:
            raise ConfigError(f"rate {self.r} outside [0, 1]")
        if self.n < 1:
            raise ConfigError(f"sample size {self.n} < 1")


@dataclass(frozen=True)
class RecursionModel:
    """Iterated-correction model: code threshold T, starting rate r0."""

    threshold: float
    r0: float

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"code threshold {self.threshold} outside (0, 1)")
        if not 0.0 < self.r0 < 1.0:
            raise ConfigError(f"initial rate {self.r0} outside (0, 1)")


def sigma(model: SamplingModel) -> float:
    """Standard deviation sqrt(r(1-r)/n) of the sampled error-rate estimate."""
    return math.sqrt(model.r * (1.0 - model.r) / model.n)


def confidence_threshold(model: SamplingModel, z: float) -> float:
    """r + z*sigma, clamped to [0, 1]."""
    if z < 0:
        raise ConfigError(f"z multiplier {z} must be nonnegative")
    return min(1.0, max(0.0, model.r + z * sigma(model)))


def normal_upper_tail(z: float) -> float:
    """1 - Phi(z) via the complementary error function (|err| < 1e-10)."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def cheat_probability(model: SamplingModel, threshold: float,
                      sigma_at: str = "threshold") -> float:
    """Gaussian tail probability that the code bits are worse than `threshold`
    while the checks read `model.r`.

    Args:
        sigma_at: which rate the deviation is evaluated at.  "threshold"
            (default): the probability that a channel whose true rate sits at
            the threshold still shows r or better on the sample.  "estimate":
            the tail computed with sigma at the observed rate r.

    Both directions coincide at threshold == r (probability 1/2).
    """
    if threshold < model.r:
        raise ConfigError(f"threshold {threshold} below observed rate {model.r}")
    if sigma_at == "threshold":
        s = sigma(SamplingModel(threshold, model.n))
    elif sigma_at == "estimate":
        s = sigma(model)
    else:
        raise ConfigError(f"sigma_at must be 'threshold' or 'estimate', not {sigma_at!r}")
    if s == 0.0:
        return 0.5 if threshold == model.r else 0.0
    return normal_upper_tail((threshold - model.r) / s)


def cheat_probability_binomial(model: SamplingModel, threshold: float) -> float:
    """Exact tail P[X/n > threshold] for X ~ Binomial(n, r).

    A log-space recurrence from the tail's start outward, for every n
    (relative error ~1e-13 against exact rationals at n <= 64), usable up to
    n ~ 10^6.  Any r is allowed: with r above the threshold the tail is the
    probability that a sample of n check bits exceeds the threshold, i.e.
    the abort probability.
    """
    n, r = model.n, model.r
    k_min = int(math.floor(n * threshold)) + 1  # strictly more than threshold
    if k_min > n:
        return 0.0
    if k_min <= 0:
        return 1.0
    if r == 0.0:
        return 0.0
    if r == 1.0:
        return 1.0
    if k_min > n * r:
        return _binomial_run(n, r, k_min, 1)
    # the tail holds the bulk of the mass: sum the terms below k_min, which
    # fall away from the mean, and take the complement
    return 1.0 - _binomial_run(n, r, k_min - 1, -1)


def _binomial_run(n: int, r: float, start: int, step: int) -> float:
    """Binomial(n, r) probability mass summed from k = start outward by step
    (+1 or -1), on a side of the mean where the terms fall, until they are
    negligible."""
    log_term = (
        math.lgamma(n + 1) - math.lgamma(start + 1) - math.lgamma(n - start + 1)
        + start * math.log(r) + (n - start) * math.log(1.0 - r)
    )
    term = math.exp(log_term)
    total = term
    ratio_base = r / (1.0 - r)
    end = n if step > 0 else 0
    k = start
    while k != end and term > total * 1e-18:
        if step > 0:
            term *= (n - k) / (k + 1) * ratio_base
        else:
            term *= k / (n - k + 1) / ratio_base
        total += term
        k += step
    return total


def iterate_error_rate(model: RecursionModel, steps: int) -> list[float]:
    """The sequence r_1 .. r_steps of r_{i+1} = exp(-T^2 / r_i).

    Values too small to represent are floored at UNDERFLOW_FLOOR; once the
    floor is reached the sequence stays there.
    """
    if steps < 1:
        raise ConfigError(f"steps {steps} < 1")
    t_squared = model.threshold * model.threshold
    out: list[float] = []
    r = model.r0
    for _ in range(steps):
        try:
            exponent = t_squared / r
        except (OverflowError, ZeroDivisionError):
            exponent = math.inf
        if exponent == math.inf:
            r = 0.0
        else:
            try:
                r = math.exp(-exponent)
            except OverflowError:
                r = 0.0
        if r == 0.0:
            r = UNDERFLOW_FLOOR
        out.append(r)
    return out
