"""Gradient estimators for the drop-rate parameters.

Both reach (log a, log b) by one route: the keep probability draw pi is
recorded on the tape (``variational.record_kuma_sample``), and one backward
pass differentiates it. Pathwise gradients through the concrete relaxation
need no code here: the relaxed masks hang off the recorded draw. The ARM
estimator differentiates the expectation over the binary masks directly
from two antithetic forward evaluations of the loss; its estimate enters
the backward pass as a seed, dL/dpi on the recorded draw (``arm_pi_grad``
and ``tape.backward``'s ``seeds``).

ARM convention: alpha_l = logit(1 - pi_l) with pi the keep probability, so
the estimator's Bernoulli(sigmoid(alpha)) variables are drop indicators.
``arm_gradient`` works on those raw variables. The uniforms of a training
step are drawn by ``model.sample_step_masks``, which maps the indicators
to keep masks (keep = 1 - drop, ``model.arm_masks``) before the network
runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import ContractViolation, EstimatorFailure


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
    """Per-layer gradient estimates plus the step's L(Z1) - L(Z2)."""

    grad_alpha: np.ndarray
    delta_loss: float


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
    return ArmEstimate(grad_alpha=grads, delta_loss=delta)


def arm_pi_grad(pi: float, grad_alpha: float) -> np.ndarray:
    """ARM's estimate as dL/dpi at the keep probability ``pi``, a 1x1
    gradient to seed ``tape.backward`` with on the recorded draw: alpha =
    logit(1 - pi) gives dL/dpi = -grad_alpha / (pi (1 - pi))."""
    return np.array([[-grad_alpha / (pi * (1.0 - pi))]])
