"""Minimal reverse-mode differentiation over the op set used by the model.

Every value is a 2-D ``Tensor`` (scalars are 1x1, edge vectors are
nnz x 1). A constant may hold a ``scipy.sparse.csr_array``, such as the
layer-0 feature input: it never requires grad, and only
``record_gdc_aggregate`` takes it.

``record_gdc_aggregate`` is the one aggregation op. It takes one CSR
pattern and, per feature block, that block's stored entries, which the
caller (``model.forward``) builds; it knows nothing of masks. Every block's
matrix is that one pattern carrying the block's entries, zeros stored, and
the products take them as ``values`` (``graph.spmm``, ``graph.spmm_t``).
Concrete-relaxed entries are constants too: the op takes their keep
probability pi and per block the entries of ``dA_b/dpi``, and gives pi its
gradient directly.

The dtype rule, one for every tensor: float32 data stays float32, and any
other data becomes float64. Ops compute in their operands' dtype, so a pass
over float32 operands runs in float32, taped or not (``training.train``,
``model.predict_mc``, ``model.forward_deterministic``), and a pass over
float64 operands, such as a finite-difference check's, stays float64.
``record_gdc_aggregate`` computes in its block entries' dtype, and
accumulates its inner products for dL/dpi in float64.
``record_log_softmax_rows`` always computes in float64, so the loss after
it is float64; its backward hands its input a gradient in the input's
dtype, so a float32 pass's backward stays float32 down to the parameters.

Ops are free functions ``record_*(tape, ...) -> Tensor``; passing
``tape=None`` computes the value without recording, which is how inference
passes run. A fresh tape is built for every training step, so there is no
retained-graph machinery.

Gradients for an op's inputs are only computed when that input (transitively)
requires grad; constants cost nothing on the backward pass.

``record_gdc_aggregate`` can take its multiply-first products ``H_b W[blk_b]``
precomputed (``BlockProducts``). Only ``model.predict_mc`` does, because its
passes share one input and one set of fixed weights; every other pass
builds its own. Ops keep no cache: a weight update such as Adam's changes
``W.data`` in place, so reuse keyed on array identity would serve stale
products.

``record_gdc_aggregate`` knows nothing of the graph's size: a call on a
rectangular (rows_out, rows_in) matrix, such as the rows a loss reads
(``model.loss_rows``), is an ordinary call. Its sparse products run row by
row, and so do its dense products (``H_b W_b``, ``M W``, ``G W^T``) up to
how the BLAS tiles them: its value rows and dH equal the matching rows of a
call on the whole graph with the same entries wherever the BLAS rounds a
row alike at either height, and agree to rounding otherwise. Its dense
reductions over rows (dW and dL/dpi) sum over the rows it has, so they
agree with that call's to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.sparse import csr_array, issparse

from .errors import ContractViolation
from .graph import float_array, spmm, spmm_t


class Tensor:
    """2-D array (or CSR constant) with a grad-requirement flag.

    The data is float32 when it was given as float32, float64 otherwise.
    Hashed by identity.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        if issparse(data):
            if requires_grad:
                raise ContractViolation("a sparse tensor cannot require grad")
            data = csr_array(data)
            self.data = (data if data.dtype == np.float32
                         else data.astype(np.float64, copy=False))
            self.requires_grad = False
            return
        arr = float_array(data)
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


def backward(tape: Tape, loss: Tensor, seeds: dict | None = None) -> Gradients:
    """Reverse accumulation from a scalar loss over the recorded tape.

    ``seeds`` maps tensors to gradients from outside the loss, such as ARM's
    dL/dpi on a recorded draw; each is its tensor's first contribution.
    """
    if loss.data.shape != (1, 1):
        raise ContractViolation(f"loss terminal must be scalar, got {loss.data.shape}")
    grads: dict = {loss: np.ones((1, 1))}

    def accumulate(t: Tensor, g: np.ndarray) -> None:
        if t in grads:
            grads[t] = grads[t] + g
        else:
            grads[t] = g

    for t, g in (seeds or {}).items():
        if np.shape(g) != t.data.shape:
            raise ContractViolation(f"seed shape {np.shape(g)} != {t.shape}")
        accumulate(t, g)
    for out, bwd in reversed(tape.records):
        g = grads.get(out)
        if g is None:
            continue
        bwd(g, accumulate)
    return Gradients(grads)


# ---------------------------------------------------------------------------
# ops


@lru_cache(maxsize=None)
def block_bounds(f_in: int, n_blocks: int) -> tuple:
    """Contiguous near-equal feature blocks, original feature order kept,
    as ``((c0, c1), ...)``."""
    edges = np.linspace(0, f_in, n_blocks + 1).astype(int)
    return tuple((int(edges[i]), int(edges[i + 1])) for i in range(n_blocks))


def split_columns(h_data, n_blocks: int) -> list:
    """``H[:, blk_b]`` for every block; one block is H itself."""
    f_in = h_data.shape[1]
    return [h_data if (c0, c1) == (0, f_in) else h_data[:, c0:c1]
            for c0, c1 in block_bounds(f_in, n_blocks)]


def multiplies_first(h_data, f_out: int, n_blocks: int) -> bool:
    """Whether ``record_gdc_aggregate`` multiplies before it aggregates."""
    return issparse(h_data) or h_data.shape[1] >= n_blocks * f_out


@dataclass(frozen=True)
class BlockProducts:
    """The column blocks ``H_b`` of a layer input and ``S_b = H_b W[blk_b]``.

    ``record_gdc_aggregate`` builds these itself when multiplying first.
    ``model.predict_mc``, whose passes share one input and fixed weights,
    builds them once (``block_products``) and passes them in. The products
    hold the weights' values at the time of the call, so they go stale when
    the weights change, in place or not.
    """

    h_blocks: tuple
    products: tuple


def block_products(h_blocks, w_data: np.ndarray) -> BlockProducts:
    """``S_b = H_b W[blk_b]`` for column blocks from ``split_columns``."""
    bounds = block_bounds(w_data.shape[0], len(h_blocks))
    return BlockProducts(tuple(h_blocks), tuple(
        h_b @ w_data[c0:c1] for h_b, (c0, c1) in zip(h_blocks, bounds)))


def record_gdc_aggregate(tape, a: csr_array, values: list, h: Tensor,
                         w: Tensor, pi: Tensor | None = None,
                         tangents: list | None = None,
                         products: BlockProducts | None = None) -> Tensor:
    """``sum_b A_b (H[:, blk_b] W[blk_b, :])`` as one op.

    ``A_b`` is the CSR pattern ``a`` carrying ``values[b]``, block b's
    stored entries (``model.forward`` builds them from the masks), and
    ``blk_b`` is ``block_bounds(f_in, len(values))[b]``. ``a`` may be
    rectangular, (rows_out, rows_in) with rows_in the rows of H, and every
    reduction over rows sums over the rows the op has. No block
    builds a matrix of its own: each product takes ``values[b]`` on ``a``,
    zeros stored, and a stored zero adds an exact zero on finite operands.

    The product order follows the shapes (``multiplies_first``):

    - *aggregate first* for a dense H with ``f_in < nb * f_out``: the
      blocks ``A_b H[:, blk_b]`` fill one (rows_out, f_in) array M, and a
      single ``M @ W`` follows;
    - *multiply first* otherwise (a CSR H, or ``f_in >= nb * f_out``):
      ``S_b = H_b W_b`` per block, and each ``A_b S_b`` adds into one
      output, row by row in block order (``graph.spmm(..., out=)``). With
      one block this is ``spmm(A_0, H @ W)``.

    ``products`` supplies the ``H_b`` and ``S_b`` of the multiply-first
    order, built by ``block_products`` from this ``h`` and this ``w`` as
    they are now; the op then uses them instead of computing them, with the
    same arithmetic, so value and gradients are bit for bit those of a call
    without them. Nothing here can tell stale products from fresh ones.
    Supplying them in the aggregate-first order, or with another block
    count, raises ``ContractViolation``.

    The entries are constants. Concrete blocks hang off one keep
    probability ``pi``, and ``tangents[b]`` holds ``dA_b/dpi`` per stored
    entry of ``a``; the backward adds to ``pi`` one product per block on
    the op's pattern: ``<dM[:, blk_b], T_b H_b>`` aggregating first,
    ``<G, T_b S_b>`` multiplying first, with ``T_b`` the pattern carrying
    ``tangents[b]``. Without ``tangents`` pi gets no gradient.
    """
    nb = len(values)
    if nb == 0:
        raise ContractViolation("need at least one block of entries")
    hd, wd = h.data, w.data
    f_in, f_out = wd.shape
    if hd.shape[1] != f_in:
        raise ContractViolation(
            f"matmul inner dims disagree: {hd.shape} @ {wd.shape}")
    if a.shape[1] != hd.shape[0]:
        raise ContractViolation(
            f"matrix {a.shape} does not take the {hd.shape[0]} input rows")
    bounds = block_bounds(f_in, nb)
    grad_pi = pi is not None and tangents is not None and pi.requires_grad
    if grad_pi and len(tangents) != nb:
        raise ContractViolation(f"{len(tangents)} tangents for {nb} blocks")
    inputs = (h, w) + ((pi,) if grad_pi else ())

    def acc_pi(acc, lefts, rights):
        """Add ``sum_b <lefts[b], T_b rights[b]>`` to pi's grad. The
        products ``T_b rights[b]`` run in the operands' dtype; the inner
        products sum in float64, since their terms cancel."""
        dpi = 0.0
        for t_b, left, right in zip(tangents, lefts, rights):
            dpi += np.einsum("ij,ij->", left, spmm(a, right, values=t_b),
                             dtype=np.float64)
        acc(pi, np.array([[dpi]], dtype=pi.data.dtype))

    if not multiplies_first(hd, f_out, nb):
        if products is not None:
            raise ContractViolation(
                "block products apply only when multiplying first")
        h_blocks = split_columns(hd, nb)
        m = np.concatenate([spmm(a, h_b, values=v)
                            for v, h_b in zip(values, h_blocks)], axis=1)
        out_data = m @ wd

        def bwd(g, acc):
            if w.requires_grad:
                acc(w, m.T @ g)
            if not (h.requires_grad or grad_pi):
                return
            dm = g @ wd.T
            if grad_pi:
                acc_pi(acc, [dm[:, c0:c1] for c0, c1 in bounds], h_blocks)
            if h.requires_grad:
                dh = np.empty_like(hd)
                for v, (c0, c1) in zip(values, bounds):
                    dh[:, c0:c1] = spmm_t(a, dm[:, c0:c1], values=v)
                acc(h, dh)

        return _maybe_record(tape, out_data, inputs, bwd)

    if products is None:
        products = block_products(split_columns(hd, nb), wd)
    elif len(products.products) != nb:
        raise ContractViolation(
            f"{len(products.products)} block products for {nb} blocks")
    h_blocks = products.h_blocks
    out_data = spmm(a, products.products[0], values=values[0])
    for v, s_b in zip(values[1:], products.products[1:]):
        spmm(a, s_b, values=v, out=out_data)
    # The S_b stay reachable from the backward only where dL/dpi needs them.
    kept_products = products.products if grad_pi else None

    def bwd(g, acc):
        dh = np.empty_like(hd) if h.requires_grad else None
        dw = np.empty_like(wd) if w.requires_grad else None
        if grad_pi:
            acc_pi(acc, [g] * nb, kept_products)
        if dh is None and dw is None:
            return
        for b, (c0, c1) in enumerate(bounds):
            ds = spmm_t(a, g, values=values[b])
            if dw is not None:
                dw[c0:c1] = h_blocks[b].T @ ds
            if dh is not None:
                dh[:, c0:c1] = ds @ wd[c0:c1].T
        if dh is not None:
            acc(h, dh)
        if dw is not None:
            acc(w, dw)

    return _maybe_record(tape, out_data, inputs, bwd)


def record_relu(tape, x: Tensor) -> Tensor:
    out_data = np.maximum(x.data, 0.0)

    def bwd(g, acc):
        if x.requires_grad:
            acc(x, g * (x.data > 0.0))  # subgradient 0 at 0

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


def record_log_softmax_rows(tape, x: Tensor) -> Tensor:
    """Row-wise log-softmax, max-subtracted for stability, always computed
    in float64: the probabilities of a row sum to 1 within 1e-9 also when
    ``x`` is float32. The backward computes in float64 too and hands ``x``
    its gradient in ``x``'s dtype."""
    xd = x.data.astype(np.float64, copy=False)
    shifted = xd - xd.max(axis=1, keepdims=True)
    out_data = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    def bwd(g, acc):
        if x.requires_grad:
            dx = g - np.exp(out_data) * g.sum(axis=1, keepdims=True)
            acc(x, dx.astype(x.data.dtype, copy=False))

    return _maybe_record(tape, out_data, (x,), bwd)


def record_masked_nll(tape, logprobs: Tensor, labels: np.ndarray,
                      observed: np.ndarray) -> Tensor:
    """Mean negative log-likelihood over the observed node set.

    ``observed`` indexes the rows of ``logprobs`` and ``labels`` holds one
    label per row: after a compact pass (``model.loss_rows``), the plan's
    ``observed`` positions and the labels of the plan's last rows.
    """
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
