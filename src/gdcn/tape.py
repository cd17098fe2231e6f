"""Minimal reverse-mode differentiation over the op set used by the model.

Every value is a 2-D float64 ``Tensor`` (scalars are 1x1, edge vectors are
nnz x 1). The one exception is a constant holding a
``scipy.sparse.csr_array``, such as the layer-0 feature input: it never
requires grad, and ``record_matmul``, ``record_slice_cols`` and
``record_scale`` accept it unchanged.

Ops are free functions ``record_*(tape, ...) -> Tensor``; passing
``tape=None`` computes the value without recording, which is how inference
passes run. A fresh tape is built for every training step, so there is no
retained-graph machinery.

Gradients for an op's inputs are only computed when that input (transitively)
requires grad; constants cost nothing on the backward pass.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_array, issparse
from scipy.special import expit

from .errors import ContractViolation
from .graph import SparseMatrix, spmm, spmm_t


class Tensor:
    """2-D float64 array (or CSR constant) with a grad-requirement flag.

    Hashed by identity.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        if issparse(data):
            if requires_grad:
                raise ContractViolation("a sparse tensor cannot require grad")
            self.data = csr_array(data).astype(np.float64, copy=False)
            self.requires_grad = False
            return
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        elif arr.ndim != 2:
            raise ContractViolation(f"tensors are 2-D, got shape {arr.shape}")
        self.data = arr
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractViolation("item() requires a scalar tensor")
        return float(self.data[0, 0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


class Tape:
    """Ordered record of operations; inputs always precede outputs."""

    def __init__(self):
        self.records = []  # (output Tensor, backward callable)
        self.clamp_events = 0  # numeric-boundary clamps hit while recording

    def record(self, out: Tensor, backward) -> None:
        """Append a node. ``backward(grad_out, accumulate)`` pushes gradients
        to the node's inputs via ``accumulate(tensor, grad_array)``."""
        self.records.append((out, backward))


def _maybe_record(tape, out_data, inputs, backward) -> Tensor:
    needs = any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=needs)
    if tape is not None and needs:
        tape.record(out, backward)
    return out


class Gradients:
    """Gradient store keyed by parameter tensors; absent entries read as 0."""

    def __init__(self, store: dict):
        self._store = store

    def get(self, t: Tensor) -> np.ndarray:
        g = self._store.get(t)
        return np.zeros_like(t.data) if g is None else g

    def __contains__(self, t: Tensor) -> bool:
        return t in self._store


def backward(tape: Tape, loss: Tensor) -> Gradients:
    """Reverse accumulation from a scalar loss over the recorded tape."""
    if loss.data.shape != (1, 1):
        raise ContractViolation(f"loss terminal must be scalar, got {loss.data.shape}")
    grads: dict = {loss: np.ones((1, 1))}

    def accumulate(t: Tensor, g: np.ndarray) -> None:
        if t in grads:
            grads[t] = grads[t] + g
        else:
            grads[t] = g

    for out, bwd in reversed(tape.records):
        g = grads.get(out)
        if g is None:
            continue
        bwd(g, accumulate)
    return Gradients(grads)


# ---------------------------------------------------------------------------
# ops


def record_matmul(tape, x: Tensor, w: Tensor) -> Tensor:
    if x.data.shape[1] != w.data.shape[0]:
        raise ContractViolation(
            f"matmul inner dims disagree: {x.data.shape} @ {w.data.shape}"
        )
    out_data = x.data @ w.data

    def bwd(g, acc):
        if x.requires_grad:
            acc(x, g @ w.data.T)
        if w.requires_grad:
            acc(w, x.data.T @ g)

    return _maybe_record(tape, out_data, (x, w), bwd)


def record_masked_spmm(tape, a: SparseMatrix, mask: Tensor, h: Tensor,
                       differentiate_mask: bool = False) -> Tensor:
    """``(A ⊙ mask) @ H`` with adjoints to H and, optionally, the mask.

    The mask gradient is ``A_e * (G[row_e,:] . H[col_e,:])`` per stored entry.
    """
    mvec = mask.data.ravel()
    if len(mvec) != a.nnz:
        raise ContractViolation(f"mask length {len(mvec)} != nnz {a.nnz}")
    masked = a.with_values(a.values * mvec)
    out_data = spmm(masked, h.data)
    rows = a.row_indices()
    cols = a.col_idx

    def bwd(g, acc):
        if h.requires_grad:
            acc(h, spmm_t(masked, g))
        if differentiate_mask and mask.requires_grad:
            per_edge = a.values * np.einsum("ij,ij->i", g[rows], h.data[cols])
            acc(mask, per_edge.reshape(mask.data.shape))

    return _maybe_record(tape, out_data, (mask, h) if differentiate_mask else (h,), bwd)


def record_relu(tape, x: Tensor) -> Tensor:
    out_data = np.maximum(x.data, 0.0)

    def bwd(g, acc):
        if x.requires_grad:
            acc(x, g * (x.data > 0.0))  # subgradient 0 at 0

    return _maybe_record(tape, out_data, (x,), bwd)


def record_sigmoid(tape, x: Tensor) -> Tensor:
    out_data = expit(x.data)

    def bwd(g, acc):
        if x.requires_grad:
            acc(x, g * out_data * (1.0 - out_data))

    return _maybe_record(tape, out_data, (x,), bwd)


def record_add(tape, x: Tensor, y: Tensor) -> Tensor:
    if x.data.shape != y.data.shape:
        raise ContractViolation(f"add shapes differ: {x.data.shape} vs {y.data.shape}")
    out_data = x.data + y.data

    def bwd(g, acc):
        if x.requires_grad:
            acc(x, g)
        if y.requires_grad:
            acc(y, g)

    return _maybe_record(tape, out_data, (x, y), bwd)


def record_add_rowvec(tape, x: Tensor, b: Tensor) -> Tensor:
    """Add a 1 x f row vector to every row of an n x f tensor."""
    if b.data.shape != (1, x.data.shape[1]):
        raise ContractViolation("row vector shape mismatch")
    out_data = x.data + b.data

    def bwd(g, acc):
        if x.requires_grad:
            acc(x, g)
        if b.requires_grad:
            acc(b, g.sum(axis=0, keepdims=True))

    return _maybe_record(tape, out_data, (x, b), bwd)


def record_scale(tape, x: Tensor, c: float) -> Tensor:
    c = float(c)
    out_data = c * x.data

    def bwd(g, acc):
        if x.requires_grad:
            acc(x, c * g)

    return _maybe_record(tape, out_data, (x,), bwd)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum g over the axes that numpy broadcasting expanded to reach g.shape."""
    for axis in range(2):
        if shape[axis] == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def record_mul(tape, x: Tensor, y: Tensor) -> Tensor:
    """Elementwise product with numpy broadcasting over the two axes."""
    try:
        out_data = x.data * y.data
    except ValueError as exc:
        raise ContractViolation(
            f"mul shapes incompatible: {x.data.shape} vs {y.data.shape}"
        ) from exc

    def bwd(g, acc):
        if x.requires_grad:
            acc(x, _unbroadcast(g * y.data, x.data.shape))
        if y.requires_grad:
            acc(y, _unbroadcast(g * x.data, y.data.shape))

    return _maybe_record(tape, out_data, (x, y), bwd)


def record_frobenius_sq(tape, x: Tensor) -> Tensor:
    out_data = np.array([[np.sum(x.data * x.data)]])

    def bwd(g, acc):
        if x.requires_grad:
            acc(x, 2.0 * g[0, 0] * x.data)

    return _maybe_record(tape, out_data, (x,), bwd)


def record_slice_cols(tape, x: Tensor, start: int, stop: int) -> Tensor:
    out_data = x.data[:, start:stop]

    def bwd(g, acc):
        if x.requires_grad:
            full = np.zeros_like(x.data)
            full[:, start:stop] = g
            acc(x, full)

    return _maybe_record(tape, out_data, (x,), bwd)


def record_slice_rows(tape, x: Tensor, start: int, stop: int) -> Tensor:
    out_data = x.data[start:stop, :]

    def bwd(g, acc):
        if x.requires_grad:
            full = np.zeros_like(x.data)
            full[start:stop, :] = g
            acc(x, full)

    return _maybe_record(tape, out_data, (x,), bwd)


def record_log_softmax_rows(tape, x: Tensor) -> Tensor:
    """Row-wise log-softmax, max-subtracted for stability."""
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    out_data = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    def bwd(g, acc):
        if x.requires_grad:
            acc(x, g - np.exp(out_data) * g.sum(axis=1, keepdims=True))

    return _maybe_record(tape, out_data, (x,), bwd)


def record_masked_nll(tape, logprobs: Tensor, labels: np.ndarray,
                      observed: np.ndarray) -> Tensor:
    """Mean negative log-likelihood over the observed node set."""
    observed = np.asarray(observed, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if len(observed) == 0:
        raise ContractViolation("observed node set is empty")
    n, c = logprobs.data.shape
    lv = labels[observed]
    if lv.min() < 0 or lv.max() >= c:
        raise ContractViolation("label outside class range")
    out_data = np.array([[-logprobs.data[observed, lv].mean()]])

    def bwd(g, acc):
        if logprobs.requires_grad:
            gl = np.zeros_like(logprobs.data)
            np.subtract.at(gl, (observed, lv), g[0, 0] / len(observed))
            acc(logprobs, gl)

    return _maybe_record(tape, out_data, (logprobs,), bwd)
