"""Gradient estimators for the drop-rate parameters.

Two routes. Pathwise gradients through the concrete relaxation need no
code here: the relaxed masks and the Kumaraswamy draw are recorded on the
tape, so one backward pass reaches (log a, log b). The ARM estimator
differentiates the expectation over the binary masks directly from two
antithetic forward evaluations of the loss.

ARM convention: alpha_l = logit(1 - pi_l) with pi the keep probability, so
the estimator's Bernoulli(sigmoid(alpha)) variables are drop indicators.
``arm_gradient`` works on those raw variables; callers map them to keep
masks (keep = 1 - drop) before running the network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import ContractViolation, EstimatorFailure

_EPS = 1e-10


@dataclass
class ArmDraw:
    """Uniform variates and logits for one ARM step.

    ``u[l]`` covers every Bernoulli variable of layer l (all blocks
    concatenated) and is reused by both forward passes of the step.
    """

    u: list
    alpha: np.ndarray

    def __post_init__(self):
        if len(self.u) != len(self.alpha):
            raise ContractViolation("one uniform vector per layer is required")


@dataclass
class ArmEstimate:
    """Per-layer gradient estimates plus step diagnostics."""

    grad_alpha: np.ndarray
    delta_loss: float
    per_layer_variance: np.ndarray


def arm_z1(draw: ArmDraw) -> list:
    """The first antithetic setting, Z1 = 1[u > sig(-a)], per layer."""
    return [(u > expit(-a)).astype(np.float64) for u, a in zip(draw.u, draw.alpha)]


def arm_z2(draw: ArmDraw) -> list:
    """The second setting, Z2 = 1[u < sig(a)]: the recorded training pass's."""
    return [(u < expit(a)).astype(np.float64) for u, a in zip(draw.u, draw.alpha)]


def arm_gradient(loss_eval, draw: ArmDraw, loss2: float) -> ArmEstimate:
    """Two-evaluation ARM estimate of d E[loss] / d alpha_l.

    ``loss2`` is L(Z2), which the caller already has: the recorded training
    pass runs on ``arm_z2(draw)``. ``loss_eval`` maps a per-layer list of
    binary variable vectors to a scalar loss and must be deterministic given
    those vectors (all other noise frozen); it is called once, for Z1. The
    shared-parameter reduction is used: each layer's estimate is
    (L(Z1) - L(Z2)) * sum_e(u_e - 1/2).
    """
    loss1 = float(loss_eval(arm_z1(draw)))
    loss2 = float(loss2)
    if not (np.isfinite(loss1) and np.isfinite(loss2)):
        raise EstimatorFailure(
            f"non-finite ARM losses: L(Z1)={loss1}, L(Z2)={loss2}"
        )
    delta = loss1 - loss2
    grads = np.array([delta * np.sum(u - 0.5) for u in draw.u])
    variances = np.array([np.var(delta * (u - 0.5)) for u in draw.u])
    return ArmEstimate(grad_alpha=grads, delta_loss=delta,
                       per_layer_variance=variances)


def kuma_partials(a: float, b: float, u: float):
    """Exact (d pi/d a, d pi/d b) of the draw pi = (1 - u^(1/b))^(1/a)."""
    u = min(max(u, _EPS), 1.0 - _EPS)
    u_pow = u ** (1.0 / b)
    g = 1.0 - u_pow
    pi = g ** (1.0 / a)
    d_a = pi * (-np.log(g)) / a ** 2
    d_b = pi * u_pow * np.log(u) / (a * g * b ** 2)
    return d_a, d_b


def chain_to_kuma(grad_alpha: float, pi: float, a: float, b: float,
                  u_pi: float):
    """Map d loss/d alpha to (d loss/d a, d loss/d b).

    alpha = logit(1 - pi) gives d alpha/d pi = -1/(pi (1 - pi)); pi must be
    this step's Kumaraswamy draw for u_pi. Boundary pi values are clamped
    to [1e-10, 1 - 1e-10] before differentiating.
    """
    pi = min(max(pi, _EPS), 1.0 - _EPS)
    d_alpha_d_pi = -1.0 / (pi * (1.0 - pi))
    d_pi_a, d_pi_b = kuma_partials(a, b, u_pi)
    return grad_alpha * d_alpha_d_pi * d_pi_a, grad_alpha * d_alpha_d_pi * d_pi_b
