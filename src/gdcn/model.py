"""GCN layer stack with pluggable connection-sampling regularizers.

A layer computes

    H_out = act( sum_b  (N(A) ⊙ Z_b) (H[:, block_b] W[block_b, :]) )

where Z_b is the edge mask of feature block b. The whole block sum is one
tape op, ``tape.record_gdc_aggregate``, on one CSR pattern (``a_norm``, or
a loss-row plan's compact part of it) and each block's stored entries.
``forward`` builds the entries, in the pattern's dtype: ``a.data ⊙ z_b``
by default; under ``renorm_after_mask`` ``EdgeSet.normalized_values(z_b)``,
the normalization rule's values for the edges the mask keeps (the graph
owns both rules); ``a.data`` itself, one block, for a layer with no edge
mask. Concrete masks carry the recorded keep probability pi and tangents
``dZ_b/dpi``; the op gets ``a.data ⊙ dZ_b/dpi`` and turns it into
``dL/dpi`` with one product per block. Hidden activations use ReLU, the
head is a row-wise log-softmax.

Both product orders cost the same dense work, n * f_in * f_out; the sparse
products touch nnz * f_in entries when aggregating first and
nnz * nb * f_out when multiplying first. So a dense input with
f_in < nb * f_out aggregates first, and anything else (a CSR input, or
f_in >= nb * f_out) multiplies first. At the tie both orders cost the same,
and multiplying first keeps a one-block layer bit-identical to
``spmm(A ⊙ Z, H @ W)`` and needs no (n, f_in) intermediate. A one-block
dense layer that widens (f_in < f_out) aggregates first, so it equals that
product only to rounding.

The edge-space and parameter-space views are equivalent: masking the
adjacency entry for (v, u) and then applying W equals aggregating with the
per-edge weight diag(z_vu) W. The test suite checks this identity against a
dense per-edge oracle.

``Dataset.features`` stays a dense array, float32 once row-normalized.
``training.train`` and the CLI read the dataset's own float32 CSR form,
converted once per features array (``Dataset.features_csr``), and every
pass shares it uncast; ``predict_mc`` and ``forward_deterministic``
convert a dense input to a float32 CSR constant once per call. So the
layer-0 matmuls run on sparse kernels and layer-0 DropOut draws one value
per stored entry. ``forward`` never converts: a dense input keeps the
dense path.

A pass computes in the dtype of its operands (``tape``'s dtype rule).
Training's passes, ``predict_mc``'s and the deterministic evaluation's run
in float32 on ``float32_operands``: float32 copies of the weights, biases
and ``a_norm`` and the float32 CSR input, with the masks applied in
float32 and the masks drawn as a float64 pass draws them. Concrete
tangents are applied in float32 too. Each pass finishes in float64, where
the log-softmax casts its (n, C) logits, so every pass returns float64
log-probabilities and the loss on them is float64. A pass on float64
operands stays float64.

The deterministic evaluation scales each connection by its layer's
expected keep probability pi. That value is the same for every GDC block,
so ``sum_b (A ⊙ pi) H_b W_b = (A ⊙ pi) (H W)``: in expectation a GDC layer
is a one-block layer on ``pi A``, one dense product and one ``spmm``.

Layer 0's block products ``S_b = X[:, blk_b] W_0[blk_b]`` depend on the
masks only when the layer-0 input is masked or scaled. When layer 0 draws
edge masks only (no mask, DropEdge, GDC, random walk; no ``dropout_keep``)
and multiplies first, ``layer0_products`` computes the products for the
current weights (and None otherwise), and ``forward(..., layer0=...)``
hands them to the fused op. Only ``predict_mc`` does this, once per call,
because its passes share fixed weights; every training pass and the
deterministic evaluation build their own. DropOut and node sampling at
layer 0 mask the input, so their products are computed in every pass.

A loss that reads only some nodes, such as the semi-supervised NLL on the
labelled ones, needs at layer l of L only the rows within L - 1 - l hops
of them. ``loss_rows`` plans those rows, and ``forward(..., rows=plan)``
computes only them, into compact arrays whose row i is plan row
``out[i]``.

A masked adjacency is never built as a matrix of its own: each block's
entries ride on the layer's one pattern, zeros stored, and a stored zero
adds an exact zero on finite operands. A masked CSR layer-0 input stores
only its nonzero entries (``graph.kept``), so its products skip the
features it drops.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse import csr_array, issparse
from scipy.special import logit

from .errors import ContractViolation, MalformedInputError
from .estimators import ArmDraw, arm_z2
from .graph import (EdgeSet, build_adjacency, dense_to_csr, entry_rows,
                    index_dtype, kept, normalize_with_edges)
from .masks import (EdgeMask, MaskKind, MaskSpec, expected_keep_mask,
                    free_uniforms, keep_mask, sample_concrete_mask,
                    sample_dropedge_mask, sample_dropout_mask,
                    sample_gdc_masks, sample_node_mask,
                    sample_randomwalk_mask)
from .tape import (BlockProducts, Tensor, block_products, constant,
                   multiplies_first, parameter, record_add, record_add_rowvec,
                   record_frobenius_sq, record_gdc_aggregate,
                   record_log_softmax_rows, record_masked_nll, record_mul,
                   record_relu, record_scale, split_columns)
from .variational import (KumaraswamyParams, kuma_mean,
                          median_draw_unclamped, record_kl_kuma_beta,
                          record_kuma_sample)

CHECKPOINT_MAGIC = b"GDCN"


@dataclass
class GCNConfig:
    """Architecture plus regularizer/estimator selection.

    The flags:

    - ``use_bias``: a per-layer bias row; the paper's layer is bias-free,
      so it is off by default.
    - ``renorm_trick``: normalize ``A + I`` by ``D + I`` (Kipf and Welling)
      instead of adding ``I`` to the normalized ``A``.
    - ``renorm_after_mask``: normalize each masked adjacency again, as
      DropEdge does, instead of masking the normalized one. It needs binary
      symmetric masks: no concrete estimator, no random-walk layer.
    - ``concrete_standard``: divide the whole concrete logit by the
      temperature, the standard relaxation, instead of the paper's form
      that tempers only the probability logit.
    - ``kl_weight_scaling``: weigh ``||M_l||^2`` by ``|E| pi_l / 2``, the
      weight part of the paper's KL, instead of a flat L2 factor.
    - ``kl_full_series``: the Kumaraswamy-Beta KL series against the
      paper's Beta(c/L, c(L-1)/L) prior, instead of the closed form that
      is exact only for Beta(c/L, 1).
    """

    layer_dims: list
    masks: list
    estimator: str = "none"  # none | concrete | arm
    beta_prior_c: float = 2.0
    kuma_init_b: float = 3.0
    use_bias: bool = False
    renorm_trick: bool = False
    renorm_after_mask: bool = False
    concrete_standard: bool = False
    kl_weight_scaling: bool = False
    kl_full_series: bool = False

    def __post_init__(self):
        if len(self.layer_dims) < 2:
            raise ContractViolation("need at least input and output dims")
        if len(self.masks) != self.n_layers:
            raise ContractViolation(
                f"{self.n_layers} layers need {self.n_layers} mask specs, "
                f"got {len(self.masks)}"
            )
        if self.estimator not in ("none", "concrete", "arm"):
            raise ContractViolation(f"unknown estimator '{self.estimator}'")
        for name in ("beta_prior_c", "kuma_init_b"):
            value = getattr(self, name)
            if not value > 0:   # NaN fails too
                raise ContractViolation(f"{name} must be > 0, got {value}")
        if not median_draw_unclamped(1.0, self.kuma_init_b):
            raise ContractViolation(
                f"kuma_init_b {self.kuma_init_b} puts the median initial "
                f"keep draw on its clamp, where it has no gradient")
        for l, spec in enumerate(self.masks):
            if spec.n_blocks > self.layer_dims[l]:
                raise ContractViolation(
                    f"layer {l}: n_blocks {spec.n_blocks} exceeds input width "
                    f"{self.layer_dims[l]}"
                )
        if self.renorm_after_mask:
            if self.estimator == "concrete":
                raise ContractViolation(
                    "renorm_after_mask needs binary masks; it cannot be "
                    "combined with the concrete estimator"
                )
            for l, spec in enumerate(self.masks):
                if spec.kind in (MaskKind.DROPEDGE, MaskKind.GDC,
                                 MaskKind.RANDOM_WALK) and not spec.symmetric:
                    raise ContractViolation(
                        f"renorm_after_mask requires symmetric edge masks; "
                        f"layer {l}'s {spec.kind.value} masks are not")
        if (self.estimator != "none") != any(s.learned for s in self.masks):
            raise ContractViolation(
                "an estimator is needed exactly when a layer learns its drop rate"
            )

    @property
    def n_layers(self) -> int:
        return len(self.layer_dims) - 1


@dataclass
class LayerParams:
    m: Tensor
    bias: Tensor | None = None
    kuma: KumaraswamyParams | None = None
    fixed_keep: float = 1.0

    def tensors(self):
        out = [self.m]
        if self.bias is not None:
            out.append(self.bias)
        if self.kuma is not None:
            out.extend(self.kuma.tensors())
        return out


@dataclass
class PreparedGraph:
    """Raw adjacency, its normalization, and the aligned edge set.

    ``renorm_trick`` records which normalization ``a_norm`` holds, and
    ``renorm_after_mask`` whether ``forward`` renormalizes each block's
    masked adjacency by that rule; both must match the config's.
    """

    a_raw: csr_array
    a_norm: csr_array
    edges: EdgeSet
    renorm_trick: bool = False
    renorm_after_mask: bool = False

    @classmethod
    def from_edges(cls, edge_list, n: int, renorm_trick: bool = False,
                   renorm_after_mask: bool = False) -> "PreparedGraph":
        a_raw = build_adjacency(edge_list, n)
        a_norm, edges = normalize_with_edges(a_raw, renorm_trick=renorm_trick)
        return cls(a_raw=a_raw, a_norm=a_norm, edges=edges,
                   renorm_trick=renorm_trick,
                   renorm_after_mask=renorm_after_mask)


def check_graph(graph: PreparedGraph, config: GCNConfig) -> None:
    """Raise ``ContractViolation`` when ``graph`` was prepared with another
    ``renorm_trick`` or ``renorm_after_mask`` than ``config`` asks for."""
    for name in ("renorm_trick", "renorm_after_mask"):
        have, want = getattr(graph, name), getattr(config, name)
        if have != want:
            raise ContractViolation(
                f"graph was prepared with {name}={have}, config has {want}")


@dataclass
class LayerMasks:
    """The factors one layer of one forward pass applies."""

    # Boolean (n, f_in) or (n, 1) mask, on a CSR input also a 1-D mask with
    # one value per stored entry; the expected keep value, a float, in the
    # deterministic pass.
    feature: np.ndarray | float | None = None
    edge: EdgeMask | None = None         # None keeps every entry, 1 block


def glorot_bound(f_in: int, f_out: int) -> float:
    return float(np.sqrt(6.0 / (f_in + f_out)))


def init_params(config: GCNConfig, rng: np.random.Generator) -> list:
    """Glorot-uniform weights plus per-layer drop parameterization."""
    params = []
    for l in range(config.n_layers):
        f_in, f_out = config.layer_dims[l], config.layer_dims[l + 1]
        bound = glorot_bound(f_in, f_out)
        m = parameter(rng.uniform(-bound, bound, size=(f_in, f_out)))
        bias = parameter(np.zeros((1, f_out))) if config.use_bias else None
        spec = config.masks[l]
        kuma = KumaraswamyParams(1.0, config.kuma_init_b) if spec.learned else None
        params.append(LayerParams(m=m, bias=bias, kuma=kuma,
                                  fixed_keep=spec.keep_prob))
    return params


def sparse_input(x: Tensor, dtype=None) -> Tensor:
    """The layer-0 input as a CSR constant of ``dtype`` (by default its
    own), converted by ``graph.dense_to_csr``; a taped input, or a CSR one
    of that dtype, is returned unchanged."""
    if x.requires_grad:
        return x
    dtype = x.data.dtype if dtype is None else dtype
    if issparse(x.data):
        return x if x.data.dtype == dtype else constant(x.data.astype(dtype))
    return constant(dense_to_csr(x.data, dtype))


def _mask_csr(x, mask):
    """Feature mask applied to a CSR input in the input's dtype, storing
    only the nonzero products (``graph.kept``): a float scales every stored
    entry, a 1-D mask scales each stored entry, a 2-D one ((n, 1) or
    (n, f)) multiplies each stored entry by its own value."""
    if np.ndim(mask) == 2:
        mask = np.broadcast_to(mask, x.shape)[entry_rows(x), x.indices]
    return kept(x, np.multiply(x.data, mask, dtype=x.dtype,
                               casting="same_kind"))


def layer0_products(config: GCNConfig, params: list,
                    x: Tensor) -> BlockProducts | None:
    """Layer 0's block products ``S_b = H_b W_0[blk_b]`` on the weights as
    they are now, or None where they cannot be reused across passes.

    Reuse needs a layer-0 input that no mask touches and no factor scales,
    in every mode: the layer-0 spec draws edge masks only (no mask,
    DropEdge, GDC or random walk) and has no ``dropout_keep``. DropOut and
    node sampling mask the input of a stochastic pass and scale it in the
    deterministic one. It also needs the multiply-first product order,
    which a CSR input always takes.

    The products hold the weights' current values: after any change to
    ``params[0].m``, such as an Adam step, which updates it in place, they
    are stale.
    """
    spec = config.masks[0]
    if (spec.kind in (MaskKind.DROPOUT, MaskKind.NODE_SAMPLING)
            or spec.dropout_keep is not None
            or not multiplies_first(x.data, config.layer_dims[1],
                                    spec.n_blocks)):
        return None
    return block_products(split_columns(x.data, spec.n_blocks),
                          params[0].m.data)


@dataclass(frozen=True)
class LayerRows:
    """One layer of a ``LossRows`` plan.

    The layer computes output rows ``out`` (sorted node ids) from input
    rows ``inp`` (the previous layer's ``out``; None at layer 0, whose
    input keeps all n rows). ``entries`` are the storage positions, in the
    graph's ``A + I`` pattern, of the stored entries of rows ``out``, in
    storage order, and ``a`` is the normalized adjacency on them: a
    (len(out), len(inp)) CSR array whose columns are renumbered into
    ``inp``.
    """

    out: np.ndarray
    inp: np.ndarray | None
    entries: np.ndarray
    a: csr_array


@dataclass(frozen=True)
class LossRows:
    """The rows each layer must compute for a loss that reads some nodes.

    ``layers`` holds one ``LayerRows`` per layer. The last layer's rows
    are the loss's nodes, sorted and unique, and ``observed`` gives each
    loss node's position among them, in the order the nodes were given.
    """

    layers: tuple
    observed: np.ndarray

    def loss_inputs(self, labels: np.ndarray) -> tuple:
        """``(labels, observed)`` for a loss on the compact log-probabilities:
        the labels of the last layer's rows, in compact row order, and the
        loss nodes' positions among those rows."""
        return np.asarray(labels)[self.layers[-1].out], self.observed


def loss_rows(graph: PreparedGraph, observed, n_layers: int) -> LossRows:
    """The loss-row plan of an ``n_layers`` stack whose loss reads the rows
    ``observed`` of its output.

    Walking back from the last layer, a layer's input rows are the columns
    its output rows store. Masks never change the pattern, so one plan
    serves every draw. A pass on the plan (``forward(..., rows=plan)``)
    computes the loss rows and dH as the full pass does, row by row; its
    dW and dL/dpi sum over the plan's rows only, so they agree with the
    full pass's to rounding.
    """
    a = graph.a_norm
    n = a.shape[0]
    observed = np.asarray(observed, dtype=np.int64)
    if observed.size and (observed.min() < 0 or observed.max() >= n):
        raise ContractViolation(f"observed node outside [0, {n})")

    def reached(ids):
        """The sorted distinct node ids among ``ids``, and the position
        among them of every node id (a bucket pass, no sort)."""
        mark = np.zeros(n, dtype=bool)
        mark[ids] = True
        return np.flatnonzero(mark), np.cumsum(mark) - 1

    out, position = reached(observed)
    last_position = position
    layers = []
    for l in reversed(range(n_layers)):
        starts = a.indptr[out]
        counts = a.indptr[out + 1] - starts
        indptr = np.zeros(len(out) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        entries = (np.repeat(starts - indptr[:-1], counts)
                   + np.arange(indptr[-1]))
        cols = a.indices[entries]
        inp = None
        if l > 0:
            inp, position = reached(cols)
            cols = position[cols]
        width = n if inp is None else len(inp)
        idx = index_dtype(len(entries), width)
        mat = csr_array((a.data[entries], cols.astype(idx), indptr.astype(idx)),
                        shape=(len(out), width))
        layers.append(LayerRows(out=out, inp=inp, entries=entries, a=mat))
        out = inp
    layers.reverse()
    return LossRows(layers=tuple(layers), observed=last_position[observed])


def _at_plan(plan: LayerRows | None, values: np.ndarray) -> np.ndarray:
    """``values`` (one per stored entry of ``A + I``) at the plan's entries."""
    return values if plan is None else values[plan.entries]


def forward(params: list, x: Tensor, graph: PreparedGraph, masks: list,
            tape=None, capture_hidden: bool = False,
            layer0: BlockProducts | None = None,
            rows: LossRows | None = None):
    """Stack forward pass; returns log-probabilities (and hidden outputs).

    ``masks`` is one ``LayerMasks`` per layer. Hidden outputs are captured
    post-activation for the over-smoothing diagnostics, as float64 copies
    whatever the pass's dtype. A layer whose ``edge`` is None aggregates
    with the adjacency's own entries, one block. ``layer0`` holds layer 0's
    precomputed block products (``layer0_products`` on this ``x`` and these
    weights); they apply only to an unmasked, unscaled layer-0 input and
    must have as many blocks as the layer-0 edge mask.

    ``rows`` (``loss_rows``) restricts the pass to the rows its loss can
    reach: each layer computes only its plan rows, into compact arrays, so
    the result holds the last layer's plan rows (read them through
    ``rows.observed``) and hidden outputs hold their layer's rows. The
    masks stay drawn over all n rows and the whole pattern; each layer
    takes its rows and entries of them, and the fused op runs on the plan's
    rectangular (len(out), len(inp)) matrix. Its products run row by row,
    so the result rows and each layer's dH equal the full pass's wherever
    the BLAS rounds a dense product's row alike at either height (the
    tests hold them bit for bit), and agree to rounding otherwise. The
    dense reductions over rows (dW and dL/dpi) sum over the plan's rows
    only, so they agree with the full pass's to rounding.
    """
    n_layers = len(params)
    if len(masks) != n_layers:
        raise ContractViolation("one LayerMasks per layer is required")
    if rows is not None and len(rows.layers) != n_layers:
        raise ContractViolation(
            f"a plan of {len(rows.layers)} layers for {n_layers} layers")
    h = x
    hidden = []
    for l, (p, lm) in enumerate(zip(params, masks)):
        f_in = p.m.data.shape[0]
        if h.data.shape[1] != f_in:
            raise ContractViolation(
                f"layer {l}: input width {h.data.shape[1]} != weight rows {f_in}"
            )
        products = layer0 if l == 0 else None
        if products is not None and lm.feature is not None:
            raise ContractViolation(
                "layer 0: block products need an unmasked, unscaled input")
        plan = rows.layers[l] if rows is not None else None
        if lm.feature is not None:
            feature = lm.feature
            if (plan is not None and plan.inp is not None
                    and np.ndim(feature) == 2):
                feature = feature[plan.inp]
            if issparse(h.data):
                h = constant(_mask_csr(h.data, feature))
            else:
                h = record_mul(tape, h, constant(
                    np.asarray(feature, dtype=h.data.dtype)))
        a = graph.a_norm if plan is None else plan.a
        edge, pi, tangents = lm.edge, None, None
        if edge is None:
            values = [a.data]
        elif edge.n_blocks > f_in:
            raise ContractViolation(
                f"layer {l}: {edge.n_blocks} mask blocks exceed width {f_in}"
            )
        elif graph.renorm_after_mask:
            values = [_at_plan(plan, graph.edges.normalized_values(
                blk.data, graph.renorm_trick)).astype(a.dtype, copy=False)
                for blk in edge.blocks]
        else:
            values = [np.multiply(a.data, _at_plan(plan, blk.data.ravel()),
                                  dtype=a.dtype, casting="same_kind")
                      for blk in edge.blocks]
            if edge.tangents is not None:
                pi = edge.pi
                tangents = [np.multiply(a.data, _at_plan(plan, t),
                                        dtype=a.dtype, casting="same_kind")
                            for t in edge.tangents]
        out = record_gdc_aggregate(tape, a, values, h, p.m, pi=pi,
                                   tangents=tangents, products=products)
        if p.bias is not None:
            out = record_add_rowvec(tape, out, p.bias)
        if l < n_layers - 1:
            h = record_relu(tape, out)
            if capture_hidden:
                hidden.append(h.data.astype(np.float64))
        else:
            h = record_log_softmax_rows(tape, out)
    return (h, hidden) if capture_hidden else h


@dataclass
class StepDraws:
    """Everything sampled for one pass's mask realization."""

    layer_masks: list = field(default_factory=list)
    pi_tensors: list = field(default_factory=list)  # keep probability per layer
    arm: ArmDraw | None = None   # ARM's uniforms and logits (train mode)
    arm_layers: list = field(default_factory=list)  # (l, spec, free_entries)


def expected_keep(spec: MaskSpec, p: LayerParams) -> float:
    """E[pi] of one layer: the Kumaraswamy mean when learned, 1.0 for no
    mask, the fixed keep probability otherwise."""
    if spec.learned:
        return kuma_mean(p.kuma.a, p.kuma.b)
    return 1.0 if spec.kind == MaskKind.NONE else spec.keep_prob


def _keep_prob_for(spec: MaskSpec, p: LayerParams, mode: str, rng,
                   tape) -> Tensor:
    """One layer's keep probability for this pass.

    A learned layer in a stochastic mode draws it from its Kumaraswamy
    posterior, recorded on ``tape`` so that gradients reach (log a, log b);
    every other case is the constant ``expected_keep``.
    """
    if mode == "det" or not spec.learned:
        return constant(expected_keep(spec, p))
    return record_kuma_sample(tape, p.kuma.log_a, p.kuma.log_b,
                              float(rng.random()))


def _dropout_mask(n: int, f_in: int, keep_prob: float, rng,
                  entries: int | None) -> np.ndarray:
    """(n, f_in) DropOut mask, or a 1-D one over ``entries`` stored entries."""
    if entries is not None:
        return sample_dropout_mask(entries, 1, keep_prob, rng).ravel()
    return sample_dropout_mask(n, f_in, keep_prob, rng)


def sample_step_masks(config: GCNConfig, params: list, graph: PreparedGraph,
                      rng: np.random.Generator | None = None, tape=None,
                      mode: str = "train",
                      input_nnz: int | None = None) -> StepDraws:
    """Draw every factor of one pass: one full set of per-layer masks.

    Modes: ``train`` (stochastic), ``mc`` (stochastic, binary everywhere),
    and ``det`` (every mask at its expected keep value; needs no ``rng``).
    A ``det`` feature mask is a float, and every edge layer, GDC included,
    gets the one block of ``expected_keep_mask``: its blocks would all hold
    the same values, so one product over the whole input replaces the
    per-block ones. In ``train`` mode every learned layer records
    its keep probability draw on ``tape``, whatever the estimator, and the
    estimator decides that layer's edge masks: ``concrete`` draws relaxed
    masks and their tangents from the recorded draw, while under ``arm``
    the step's shared uniforms follow the per-layer draws (``draws.arm``)
    and each learned layer gets the keep mask of Z2 (``arm_masks``).

    Every DropOut, node, DropEdge, GDC and random-walk mask draws through
    ``masks.bernoulli``, one random byte per entry, in both stochastic
    modes, so a config without learned layers gets the same masks from the
    same stream in ``train`` and ``mc`` mode.

    ``input_nnz`` is the stored-entry count of a CSR layer-0 input; layer-0
    DropOut masks then hold one value per stored entry instead of an
    (n, f_in) matrix.
    """
    if mode not in ("train", "mc", "det"):
        raise ContractViolation(f"unknown mask mode '{mode}'")
    if mode != "det" and rng is None:
        raise ContractViolation(f"mask mode '{mode}' needs an rng")
    n = graph.edges.n
    draws = StepDraws()
    prev_edge = None  # random-walk layer coupling; None: all kept
    for l, spec in enumerate(config.masks):
        f_in = config.layer_dims[l]
        lm = LayerMasks()
        entries = input_nnz if l == 0 else None  # per-entry DropOut
        pi_tensor = _keep_prob_for(spec, params[l], mode, rng, tape)
        pi_val = pi_tensor.item()
        if spec.kind in (MaskKind.DROPOUT, MaskKind.NODE_SAMPLING):
            if mode == "det":
                lm.feature = pi_val
            elif spec.kind == MaskKind.DROPOUT:
                lm.feature = _dropout_mask(n, f_in, pi_val, rng, entries)
            else:
                lm.feature = sample_node_mask(n, pi_val, rng).reshape(-1, 1)
        elif spec.kind != MaskKind.NONE and mode == "det":
            lm.edge = expected_keep_mask(graph.edges, spec, pi_val)
        elif spec.kind == MaskKind.RANDOM_WALK:
            lm.edge = sample_randomwalk_mask(graph.edges, pi_val, prev_edge,
                                             rng)
            prev_edge = lm.edge
        elif mode == "train" and spec.learned:
            # ARM's binary masks follow the per-layer draws.
            if config.estimator == "concrete":
                lm.edge = sample_concrete_mask(
                    graph.edges, spec, pi_tensor, rng,
                    standard=config.concrete_standard)
        elif spec.kind == MaskKind.DROPEDGE:
            lm.edge = sample_dropedge_mask(graph.edges, spec, pi_val, rng)
        elif spec.kind == MaskKind.GDC:
            lm.edge = sample_gdc_masks(graph.edges, spec, pi_val, rng)
        if spec.dropout_keep is not None:
            if mode == "det":
                extra = spec.dropout_keep
            else:
                # A per-entry mask cannot combine with an (n, 1) node mask.
                if lm.feature is not None and lm.feature.ndim == 2:
                    entries = None
                extra = _dropout_mask(n, f_in, spec.dropout_keep, rng,
                                      entries)
            lm.feature = extra if lm.feature is None else lm.feature * extra
        draws.layer_masks.append(lm)
        draws.pi_tensors.append(pi_tensor)
    if mode == "train" and config.estimator == "arm":
        arm = [(l, spec, *free_uniforms(graph.edges, spec, rng))
               for l, spec in enumerate(config.masks) if spec.learned]
        draws.arm_layers = [(l, spec, free) for l, spec, free, _ in arm]
        draws.arm = ArmDraw(
            u=[u.ravel() for *_, u in arm],
            alpha=np.array([logit(1.0 - draws.pi_tensors[l].item())
                            for l, *_ in arm]))
        draws.layer_masks = arm_masks(draws, graph, arm_z2(draws.arm))
    return draws


def arm_masks(draws: StepDraws, graph: PreparedGraph, z_drop: list) -> list:
    """The step's layer masks with each ARM layer's edge mask set to the
    keep mask of its drop indicators in ``z_drop`` (``arm_z1`` or
    ``arm_z2`` of ``draws.arm``)."""
    masks = list(draws.layer_masks)
    for (l, spec, free), z in zip(draws.arm_layers, z_drop):
        keep = 1.0 - z.reshape(spec.n_blocks, -1)
        masks[l] = replace(masks[l], edge=keep_mask(graph.edges, free, keep))
    return masks


def training_loss(tape, logprobs: Tensor, labels: np.ndarray,
                  observed: np.ndarray, params: list, kl_terms: list,
                  l2_factor: float, warmup: float,
                  weight_coefs: list | None = None) -> Tensor:
    """Masked NLL + weight penalty + warm-up-scaled KL, on one tape.

    By default the weight penalty is flat ``l2_factor * sum_l ||M_l||^2``;
    ``weight_coefs`` (scalar tensors, one per layer) replaces the flat
    factor with per-layer coefficients, e.g. ``|E| * pi_l / 2``.
    """
    loss = record_masked_nll(tape, logprobs, labels, observed)
    for l, p in enumerate(params):
        fro = record_frobenius_sq(tape, p.m)
        if weight_coefs is not None:
            term = record_mul(tape, weight_coefs[l], fro)
        else:
            term = record_scale(tape, fro, l2_factor)
        loss = record_add(tape, loss, term)
    for kl in kl_terms:
        loss = record_add(tape, loss, record_scale(tape, kl, warmup))
    return loss


def record_kl_terms(tape, config: GCNConfig, params: list) -> list:
    """KL(q(pi_l) || prior) for every learned layer, recorded on the tape."""
    n_layers = config.n_layers
    terms = []
    for p in params:
        if p.kuma is not None:
            terms.append(record_kl_kuma_beta(
                tape, p.kuma.log_a, p.kuma.log_b, config.beta_prior_c,
                n_layers, full_series=config.kl_full_series))
    return terms


def forward_deterministic(params, x, graph, config, capture_hidden=False):
    """Expected-keep evaluation pass (no sampling, no tape).

    Every layer is one product (``sample_step_masks``' ``det`` mode),
    computed in float32 on ``float32_operands``; the log-softmax finishes
    each row in float64, and hidden outputs are float64 copies.
    """
    check_graph(graph, config)
    draws = sample_step_masks(config, params, graph, mode="det")
    params, x, graph = float32_operands(params, x, graph)
    return forward(params, x, graph, draws.layer_masks, tape=None,
                   capture_hidden=capture_hidden)


def float32_params(params: list) -> list:
    """``params`` with every weight and bias a float32 parameter copy, so
    that a taped pass on them records float32 gradients; the drop
    parameters are shared. Float32 data is wrapped, not copied."""
    def f32(t):
        return None if t is None else parameter(
            t.data.astype(np.float32, copy=False))

    return [replace(p, m=f32(p.m), bias=f32(p.bias)) for p in params]


def float32_operands(params: list, x: Tensor, graph: PreparedGraph):
    """The operands of a float32 pass: ``(params, x, graph)`` with
    ``float32_params``' copies of the weights and biases, ``x`` as a
    float32 CSR constant (``sparse_input``) and ``graph`` sharing
    everything but a float32 copy of ``a_norm``. The arguments are left
    unchanged. Operands that are float32 already are shared, not copied:
    ``Dataset.features_csr()``'s float32 CSR input is passed through as
    it is, and ``training.train`` casts the rest once, so every pass on its
    operands reuses that cast."""
    graph32 = replace(graph, a_norm=graph.a_norm.astype(np.float32,
                                                        copy=False))
    return float32_params(params), sparse_input(x, np.float32), graph32


def predict_mc(params, x, graph, config, s: int, rng: np.random.Generator):
    """Monte-Carlo predictive distribution from ``s`` stochastic passes.

    Returns (mean class probabilities, per-sample probabilities), both
    float64; keep probabilities of learned layers are drawn fresh per pass.
    Each pass draws its masks as a training step does, every binary entry
    through ``masks.bernoulli`` (``sample_step_masks``' ``mc`` mode), except
    that a learned layer's edge masks are binary here, where training
    relaxes them (concrete) or draws ARM's pair.
    The passes compute in float32 on ``float32_operands``, from the masks
    and draws a float64 pass would use, and each finishes in float64: the
    log-softmax casts its (n, C) logits, so that every row's probabilities
    sum to 1 within 1e-9. ``params`` keep their float64 values. The weights
    are fixed for the call, so where layer 0 draws edge masks only its
    block products are computed once and shared by every pass.
    """
    if s < 1:
        raise ContractViolation("need at least one Monte Carlo sample")
    check_graph(graph, config)
    params, x, graph = float32_operands(params, x, graph)
    nnz = x.data.nnz if issparse(x.data) else None
    layer0 = layer0_products(config, params, x)
    per_sample = np.empty((s, x.data.shape[0], params[-1].m.data.shape[1]))
    for i in range(s):
        draws = sample_step_masks(config, params, graph, rng, tape=None,
                                  mode="mc", input_nnz=nnz)
        logprobs = forward(params, x, graph, draws.layer_masks, tape=None,
                           layer0=layer0)
        per_sample[i] = np.exp(logprobs.data)
    return per_sample.mean(axis=0), per_sample


# ---------------------------------------------------------------------------
# checkpoints: magic "GDCN", u32 version, u32 layer count, u32 dims,
# row-major float64 weight matrices, then per-layer drop parameters.
# Version 2 appends a bias vector after each weight matrix.


def save_checkpoint(path, params: list) -> None:
    version = 2 if any(p.bias is not None for p in params) else 1
    dims = [p.m.data.shape[0] for p in params] + [params[-1].m.data.shape[1]]
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", version, len(params)))
        fh.write(struct.pack(f"<{len(dims)}I", *dims))
        for p in params:
            fh.write(p.m.data.astype("<f8").tobytes())
            if version == 2:
                bias = p.bias.data if p.bias is not None else np.zeros(
                    (1, p.m.data.shape[1]))
                fh.write(bias.astype("<f8").tobytes())
        for p in params:
            if p.kuma is not None:
                fh.write(struct.pack("<Bdd", 1, p.kuma.log_a.item(),
                                     p.kuma.log_b.item()))
            else:
                fh.write(struct.pack("<Bd", 0, p.fixed_keep))


def load_checkpoint(path) -> list:
    """Parameters from ``save_checkpoint``'s file.

    An unreadable file, a bad magic number, an unknown version or layer
    kind, a short read or trailing bytes raise ``MalformedInputError``, and
    so do values no model can hold: a non-finite weight or bias, a
    Kumaraswamy ``log a`` or ``log b`` whose ``exp`` is not a positive
    finite number, or a fixed keep probability outside [0, 1]. The stored
    log values are kept bit for bit.
    """
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as exc:
        raise MalformedInputError(f"cannot read checkpoint {path}: {exc}")
    pos = 0

    def take(size: int) -> bytes:
        nonlocal pos
        if size > len(buf) - pos:
            raise MalformedInputError(
                f"checkpoint {path} is truncated: {size} bytes needed at "
                f"offset {pos}, {len(buf) - pos} left")
        pos += size
        return buf[pos - size:pos]

    def unpack(fmt):
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    def floats(rows: int, cols: int, what: str) -> Tensor:
        arr = np.frombuffer(take(8 * rows * cols), dtype="<f8")
        if not np.all(np.isfinite(arr)):
            raise MalformedInputError(
                f"checkpoint {path}: {what} holds a non-finite value")
        return parameter(arr.reshape(rows, cols).copy())

    magic = take(4)
    if magic != CHECKPOINT_MAGIC:
        raise MalformedInputError(f"bad checkpoint magic {magic!r}")
    version, n_layers = unpack("<II")
    if version not in (1, 2) or n_layers < 1:
        raise MalformedInputError(
            f"unsupported checkpoint version {version} with {n_layers} layers")
    dims = np.frombuffer(take(4 * (n_layers + 1)), dtype="<u4").tolist()
    params = [LayerParams(
        m=floats(f_in, f_out, f"layer {l} weights"),
        bias=floats(1, f_out, f"layer {l} bias") if version == 2 else None)
        for l, (f_in, f_out) in enumerate(zip(dims, dims[1:]))]
    for l, p in enumerate(params):
        (kind,) = unpack("<B")
        if kind == 1:
            try:
                p.kuma = KumaraswamyParams.from_logs(*unpack("<dd"))
            except ContractViolation as exc:
                raise MalformedInputError(f"layer {l}: {exc}") from exc
        elif kind == 0:
            (p.fixed_keep,) = unpack("<d")
            if not 0.0 <= p.fixed_keep <= 1.0:  # NaN fails too
                raise MalformedInputError(
                    f"layer {l}: keep probability {p.fixed_keep} outside "
                    f"[0, 1]")
        else:
            raise MalformedInputError(f"layer {l}: unknown drop kind {kind}")
    if pos != len(buf):
        raise MalformedInputError(
            f"checkpoint {path} has {len(buf) - pos} trailing bytes")
    return params
