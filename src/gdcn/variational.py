"""Beta-Bernoulli hierarchy over layer keep probabilities.

The variational posterior over each layer's keep probability is a
Kumaraswamy distribution with parameters (a_l, b_l), stored as unconstrained
log-values. The prior is Beta(c/L, c(L-1)/L). The closed-form KL implemented
by default corresponds to a Beta(c/L, 1) prior (see ``kl_kuma_beta``); the
``full_series`` flag switches to the complete KL against Beta(alpha, beta)
with the infinite series truncated at 10 terms.

Convention: pi is the KEEP probability everywhere in this package; the drop
rate is 1 - pi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import beta as beta_fn
from scipy.special import digamma, polygamma

from .errors import ContractViolation
from .tape import Tensor, _maybe_record, parameter

EULER_GAMMA = float(np.euler_gamma)
_EPS = 1e-10
_SERIES_TERMS = 10


@dataclass
class BetaPrior:
    """Beta(c/L, c(L-1)/L) prior over keep probabilities; L=1 uses beta=1."""

    c: float
    L: int

    def __post_init__(self):
        if self.c <= 0 or self.L < 1:
            raise ContractViolation("beta prior requires c > 0 and L >= 1")

    @property
    def alpha(self) -> float:
        return self.c / self.L

    @property
    def beta(self) -> float:
        return 1.0 if self.L == 1 else self.c * (self.L - 1) / self.L


@dataclass
class WarmupSchedule:
    """Linear KL ramp: factor = min(1, epoch / ramp_epochs)."""

    ramp_epochs: int

    def __post_init__(self):
        if self.ramp_epochs < 1:
            raise ContractViolation("ramp_epochs must be >= 1")


def warmup_factor(epoch: int, schedule: WarmupSchedule | None) -> float:
    if epoch < 0:
        raise ContractViolation("epoch must be >= 0")
    if schedule is None:
        return 1.0
    return min(1.0, epoch / schedule.ramp_epochs)


class KumaraswamyParams:
    """One (a_l, b_l) pair held as trainable log-value tensors."""

    def __init__(self, a: float = 1.0, b: float = 3.0):
        if a <= 0 or b <= 0:
            raise ContractViolation("Kumaraswamy parameters must be positive")
        self.log_a = parameter(np.log(a))
        self.log_b = parameter(np.log(b))

    @classmethod
    def from_logs(cls, log_a: float, log_b: float) -> "KumaraswamyParams":
        """Parameters from their log values, kept bit for bit."""
        if not finite_scales(log_a, log_b):
            raise ContractViolation(
                f"Kumaraswamy (log a, log b) = ({log_a}, {log_b}) gives no "
                f"positive finite (a, b)")
        kuma = cls()
        kuma.log_a, kuma.log_b = parameter(log_a), parameter(log_b)
        return kuma

    @property
    def a(self) -> float:
        return float(np.exp(self.log_a.item()))

    @property
    def b(self) -> float:
        return float(np.exp(self.log_b.item()))

    def tensors(self):
        return [self.log_a, self.log_b]


def finite_scales(log_a: float, log_b: float) -> bool:
    """Whether ``exp`` gives a positive finite a and b from their logs."""
    with np.errstate(over="ignore"):
        scale = np.exp([log_a, log_b])
    return bool(np.all((scale > 0.0) & (scale < np.inf)))  # NaN fails too


def median_draw_unclamped(a: float, b: float) -> bool:
    """Whether the median Kumaraswamy(a, b) draw, (1 - 2^(-1/b))^(1/a),
    lies inside the clamp of ``record_kuma_sample`` (_EPS, 1 - _EPS); a
    clamped draw carries no gradient."""
    with np.errstate(over="ignore", divide="ignore"):
        median = (-np.expm1(-np.log(2.0) / b)) ** (1.0 / a)
    return bool(_EPS < median < 1.0 - _EPS)


def _clamp_unit(x: float) -> float:
    return min(max(x, _EPS), 1.0 - _EPS)


def kuma_mean(a: float, b: float) -> float:
    """E[pi] = b * B(1 + 1/a, b), which rounding can put above 1 for an
    extreme (a, b); it is capped there (NaN stays NaN)."""
    return min(float(b * beta_fn(1.0 + 1.0 / a, b)), 1.0)


def kl_kuma_beta(a: float, b: float, c: float, L: int,
                 full_series: bool = False) -> float:
    """KL(Kumaraswamy(a, b) || beta prior).

    Default is the closed form

        ((a - c/L)/a) (-gamma - Psi(b) - 1/b) + log(a b / (c/L)) - (b-1)/b,

    which is exact for a Beta(c/L, 1) prior. ``full_series`` evaluates the
    KL against Beta(c/L, c(L-1)/L) instead, with the series truncated at
    10 terms.
    """
    if a <= 0 or b <= 0:
        raise ContractViolation("Kumaraswamy parameters must be positive")
    prior = BetaPrior(c, L)
    alpha = prior.alpha
    t_b = -EULER_GAMMA - digamma(b) - 1.0 / b
    kl = (a - alpha) / a * t_b - (b - 1.0) / b
    if not full_series:
        return float(kl + np.log(a * b / alpha))
    beta_p = prior.beta
    kl += np.log(a * b) + np.log(beta_fn(alpha, beta_p))
    m = np.arange(1, _SERIES_TERMS + 1, dtype=np.float64)
    kl += (beta_p - 1.0) * b * np.sum(beta_fn(m / a, b) / (m + a * b))
    return float(kl)


def kl_kuma_beta_partials(a: float, b: float, c: float, L: int,
                          full_series: bool = False):
    """Exact (dKL/da, dKL/db) for the formula used by ``kl_kuma_beta``."""
    prior = BetaPrior(c, L)
    alpha = prior.alpha
    t_b = -EULER_GAMMA - digamma(b) - 1.0 / b
    trigamma_b = polygamma(1, b)
    d_a = alpha / a ** 2 * t_b + 1.0 / a
    d_b = (a - alpha) / a * (-trigamma_b + 1.0 / b ** 2) + 1.0 / b - 1.0 / b ** 2
    if full_series:
        beta_p = prior.beta
        m = np.arange(1, _SERIES_TERMS + 1, dtype=np.float64)
        bm = beta_fn(m / a, b)
        denom = m + a * b
        # d/da B(m/a, b) = B * (Psi(m/a) - Psi(m/a + b)) * (-m / a^2)
        dbm_da = bm * (digamma(m / a) - digamma(m / a + b)) * (-m / a ** 2)
        dbm_db = bm * (digamma(b) - digamma(m / a + b))
        d_a += (beta_p - 1.0) * b * np.sum(dbm_da / denom - bm * b / denom ** 2)
        d_b += (beta_p - 1.0) * np.sum(bm * m / denom ** 2 + b * dbm_db / denom)
    return float(d_a), float(d_b)


# ---------------------------------------------------------------------------
# tape-recorded counterparts


def record_kuma_sample(tape, log_a: Tensor, log_b: Tensor, u: float) -> Tensor:
    """Reparameterized keep-probability draw, differentiable in (log a, log b).

    The inverse-CDF draw ``(1 - u^(1/b))^(1/a)`` with ``u`` and the draw
    clamped away from {0, 1}; ``tape=None`` only computes it.
    """
    a = float(np.exp(log_a.item()))
    b = float(np.exp(log_b.item()))
    u = _clamp_unit(u)
    u_pow = u ** (1.0 / b)
    g = 1.0 - u_pow
    pi_raw = g ** (1.0 / a)
    pi = _clamp_unit(pi_raw)
    clamped = pi != pi_raw
    if clamped and tape is not None:
        tape.clamp_events += 1
    if clamped:
        d_log_a = 0.0
        d_log_b = 0.0
    else:
        # d pi / d log a = pi * (-log g) / a ; d pi / d log b via u^(1/b)
        d_log_a = pi * (-np.log(g)) / a
        d_log_b = pi * u_pow * np.log(u) / (a * g * b)

    def bwd(grad, acc):
        g0 = grad[0, 0]
        if log_a.requires_grad:
            acc(log_a, np.array([[g0 * d_log_a]]))
        if log_b.requires_grad:
            acc(log_b, np.array([[g0 * d_log_b]]))

    return _maybe_record(tape, np.array([[pi]]), (log_a, log_b), bwd)


def record_kl_kuma_beta(tape, log_a: Tensor, log_b: Tensor, c: float, L: int,
                        full_series: bool = False) -> Tensor:
    a = float(np.exp(log_a.item()))
    b = float(np.exp(log_b.item()))
    val = kl_kuma_beta(a, b, c, L, full_series=full_series)
    d_a, d_b = kl_kuma_beta_partials(a, b, c, L, full_series=full_series)

    def bwd(grad, acc):
        g0 = grad[0, 0]
        if log_a.requires_grad:
            acc(log_a, np.array([[g0 * d_a * a]]))
        if log_b.requires_grad:
            acc(log_b, np.array([[g0 * d_b * b]]))

    return _maybe_record(tape, np.array([[val]]), (log_a, log_b), bwd)
