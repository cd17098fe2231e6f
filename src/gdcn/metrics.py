"""Accuracy, predictive uncertainty, and over-smoothing diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .graph import spmm


@dataclass
class UncertaintyReport:
    """Per-node entropy/correctness plus PAvPU across threshold fractions."""

    entropy: np.ndarray
    correct: np.ndarray
    threshold_fracs: np.ndarray
    pavpu: np.ndarray
    p_acc_given_cert: np.ndarray
    p_cert_given_inacc: np.ndarray


def accuracy(predictions: np.ndarray, labels: np.ndarray,
             idx_set: np.ndarray) -> float:
    idx_set = np.asarray(idx_set, dtype=np.int64)
    if len(idx_set) == 0:
        raise ContractViolation("accuracy over an empty index set")
    return float(np.mean(predictions[idx_set] == labels[idx_set]))


def predictive_entropy(mean_probs: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Row-wise entropy in nats, with 0 log 0 := 0. A row that holds a
    non-finite value, or is not a distribution within ``tol``, raises
    ``ContractViolation``."""
    p = np.asarray(mean_probs, dtype=np.float64)
    if not np.isfinite(p).all():
        raise ContractViolation(
            "rows must be finite probability distributions")
    if np.any(p < -tol) or np.any(np.abs(p.sum(axis=1) - 1.0) > tol):
        raise ContractViolation("rows must be probability distributions")
    p = np.clip(p, 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0.0, p * np.log(p), 0.0)
    return -plogp.sum(axis=1)


def pavpu(correct: np.ndarray, entropy: np.ndarray, threshold_fracs,
          max_entropy: float | None = None):
    """(accurate&certain + inaccurate&uncertain) / all, per threshold fraction.

    A node is certain iff its entropy is at most ``frac * max_entropy``;
    ``max_entropy`` defaults to the maximum observed entropy (pass ``ln C``
    to threshold against the theoretical maximum instead). Returns
    (pavpu, p_acc_given_cert, p_cert_given_inacc) arrays; conditional
    probabilities with empty denominators are NaN.
    """
    correct = np.asarray(correct, dtype=bool)
    entropy = np.asarray(entropy, dtype=np.float64)
    fracs = np.asarray(threshold_fracs, dtype=np.float64)
    if len(correct) != len(entropy) or len(correct) == 0:
        raise ContractViolation("correctness and entropy must align and be non-empty")
    if np.any(fracs < 0.0) or np.any(fracs > 1.0):
        raise ContractViolation("threshold fractions must lie in [0, 1]")
    cap = float(entropy.max()) if max_entropy is None else float(max_entropy)
    out = np.empty(len(fracs))
    acc_cert = np.empty(len(fracs))
    cert_inacc = np.empty(len(fracs))
    n = len(correct)
    for i, f in enumerate(fracs):
        certain = entropy <= f * cap
        n_ac = int(np.sum(correct & certain))
        n_ic = int(np.sum(~correct & certain))
        n_iu = int(np.sum(~correct & ~certain))
        out[i] = (n_ac + n_iu) / n
        n_cert = n_ac + n_ic
        acc_cert[i] = n_ac / n_cert if n_cert else np.nan
        n_inacc = n_ic + n_iu
        cert_inacc[i] = n_ic / n_inacc if n_inacc else np.nan
    return out, acc_cert, cert_inacc


def uncertainty_report(mean_probs: np.ndarray, labels: np.ndarray,
                       idx_set: np.ndarray, threshold_fracs,
                       max_entropy: float | None = None) -> UncertaintyReport:
    idx_set = np.asarray(idx_set, dtype=np.int64)
    probs = mean_probs[idx_set]
    ent = predictive_entropy(probs)
    correct = probs.argmax(axis=1) == labels[idx_set]
    fracs = np.asarray(threshold_fracs, dtype=np.float64)
    pav, p_ac, p_ci = pavpu(correct, ent, fracs, max_entropy=max_entropy)
    return UncertaintyReport(entropy=ent, correct=correct,
                             threshold_fracs=fracs, pavpu=pav,
                             p_acc_given_cert=p_ac, p_cert_given_inacc=p_ci)


def total_variation(h: np.ndarray, a, lam: float,
                    normalized: bool = False) -> float:
    """``||H - (1/lam) A H||_F^2`` on the raw adjacency.

    With ``normalized`` the result is divided by ``||H||_F^2`` (0 for a zero
    signal by convention), matching per-layer trajectories that are
    comparable across layer widths.
    """
    if lam <= 0:
        raise ContractViolation("lam must be positive (|lambda_max| of A)")
    h = np.asarray(h, dtype=np.float64)
    if h.ndim == 1:
        h = h.reshape(-1, 1)
    diff = h - spmm(a, h) / lam
    tv = float(np.sum(diff * diff))
    if not normalized:
        return tv
    denom = float(np.sum(h * h))
    return 0.0 if denom == 0.0 else tv / denom
