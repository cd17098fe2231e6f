"""Samplers for the unified connection-dropping framework.

All four regularizers (DropOut, DropEdge, node sampling, GDC) plus the
random-walk variant are expressed as masks: feature masks multiply the layer
input, edge masks give each feature block's adjacency entries. Edge masks
are aligned to the ``EdgeSet`` storage order and may be binary or
concrete-relaxed; ``model.forward`` turns block b's mask into that block's
entries (``a.data ⊙ z_b``, or ``EdgeSet.normalized_values(z_b)`` when
renormalizing after masking). A layer with no edge mask keeps every
entry, and the first random-walk layer takes ``prev=None``, since nothing
before it was dropped. A relaxed mask records nothing on a tape: it
carries its keep probability and each block's tangent ``dz/dpi``, which
the aggregation pushes forward to give ``dL/dpi``.

Samplers are pure functions of an explicit ``numpy.random.Generator``;
callers own stream splitting. DropOut and node masks are boolean, edge
masks float64. The ARM mask functions (``arm_free_entries``,
``arm_edge_mask``) draw nothing: ``model.sample_step_masks`` draws the
uniforms, and they only map its drop indicators onto the pattern.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .errors import ContractViolation
from .graph import EdgeSet
from .tape import Tensor, constant


class MaskKind(enum.Enum):
    NONE = "none"
    DROPOUT = "dropout"
    DROPEDGE = "dropedge"
    NODE_SAMPLING = "node"
    GDC = "gdc"
    RANDOM_WALK = "randomwalk"


@dataclass
class MaskSpec:
    """Per-layer regularizer description.

    ``n_blocks`` is the number of GDC feature blocks, each with its own edge
    mask; every other kind has one block. The flags:

    - ``learned``: the keep probability is drawn from the layer's
      Kumaraswamy posterior, the paper's adaptive (learned) sampling rate.
    - ``symmetric``: one draw per undirected edge, so the masked adjacency
      of an undirected graph (the paper's citation graphs) stays symmetric.
    - ``relaxed``: declares concrete-relaxed masks, the paper's continuous
      relaxation that lets gradients reach the drop rate. Sampling follows
      the estimator instead (relaxed for learned layers under ``concrete``),
      so the flag only enables the temperature check.
    - ``protect_self_loops``: self-loops are never dropped, so the mask
      covers only the graph's edges and each node keeps its own features.
    - ``dropout_keep``: extra feature DropOut on top of the edge mask, the
      DropOut-plus-DropEdge (DO-DE) baseline the paper compares against.
    """

    kind: MaskKind = MaskKind.NONE
    learned: bool = False
    keep_prob: float = 1.0         # used when not learned
    n_blocks: int = 1
    symmetric: bool = False
    relaxed: bool = False
    temperature: float = 0.67
    protect_self_loops: bool = False
    dropout_keep: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.keep_prob <= 1.0:
            raise ContractViolation("keep_prob must lie in [0, 1]")
        if self.n_blocks < 1:
            raise ContractViolation("n_blocks must be >= 1")
        if self.n_blocks != 1 and self.kind != MaskKind.GDC:
            raise ContractViolation(f"n_blocks {self.n_blocks} needs kind "
                                    f"gdc, got {self.kind.value}")
        if self.relaxed and self.temperature <= 0:
            raise ContractViolation("relaxed masks require temperature > 0")
        if self.dropout_keep is not None and not 0.0 <= self.dropout_keep <= 1.0:
            raise ContractViolation("dropout_keep must lie in [0, 1]")
        if self.learned and self.kind not in (MaskKind.DROPEDGE, MaskKind.GDC):
            raise ContractViolation(
                "learned keep probabilities apply to edge masks (dropedge/gdc) only"
            )


@dataclass
class EdgeMask:
    """Per-block keep values on the EdgeSet pattern, each block (nnz, 1);
    a concrete mask also holds its ``pi`` and per-block tangents dz_b/dpi."""

    blocks: list = field(default_factory=list)
    pi: Tensor | None = None
    tangents: list | None = None

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


def _check_prob(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ContractViolation(f"keep probability {p} outside [0, 1]")


def sample_dropout_mask(n: int, f: int, keep_prob: float,
                        rng: np.random.Generator) -> np.ndarray:
    """I.i.d. Bernoulli(keep_prob) boolean feature mask, applied as H * Z."""
    _check_prob(keep_prob)
    return rng.random((n, f)) < keep_prob


def sample_node_mask(n: int, keep_prob: float,
                     rng: np.random.Generator) -> np.ndarray:
    """I.i.d. Bernoulli(keep_prob) boolean node mask, applied as diag(z) H."""
    _check_prob(keep_prob)
    return rng.random(n) < keep_prob


def sample_dropedge_mask(edges: EdgeSet, keep_prob: float, symmetric: bool,
                         rng: np.random.Generator,
                         protect_self_loops: bool = False) -> EdgeMask:
    """One Bernoulli draw per undirected edge (symmetric) or per entry.

    Self-loop entries are drawn like any other edge unless protected. This
    is GDC with one block (``sample_gdc_masks``), draw for draw.
    """
    return sample_gdc_masks(edges, 1, keep_prob, symmetric, rng,
                            protect_self_loops=protect_self_loops)


def sample_gdc_masks(edges: EdgeSet, n_blocks: int, keep_prob: float,
                     symmetric: bool, rng: np.random.Generator,
                     protect_self_loops: bool = False) -> EdgeMask:
    """n_blocks independent DropEdge-style masks, one per feature block;
    with n_blocks=1, DropEdge's mask (``sample_dropedge_mask``)."""
    if n_blocks < 1:
        raise ContractViolation("n_blocks must be >= 1")
    _check_prob(keep_prob)
    canonical = edges.canonical() if symmetric else None
    blocks = []
    for _ in range(n_blocks):
        if symmetric:
            vals = np.empty(edges.n_entries)
            vals[canonical] = rng.random(int(canonical.sum())) < keep_prob
            edges.symmetrize(vals)
        else:
            vals = (rng.random(edges.n_entries) < keep_prob).astype(np.float64)
        if protect_self_loops:
            vals[edges.is_diag] = 1.0
        blocks.append(constant(vals))
    return EdgeMask(blocks=blocks)


def sample_randomwalk_mask(edges: EdgeSet, keep_prob: float,
                           prev: EdgeMask | None,
                           rng: np.random.Generator) -> EdgeMask:
    """Bernoulli draw gated by connectivity surviving the previous layer.

    Entry (v, u) can only be kept if node v retained at least one incoming
    connection in ``prev``; this keeps every node's receptive field a
    connected subgraph. The first random-walk layer takes ``prev=None``:
    nothing was dropped before it, so no entry is gated.
    """
    _check_prob(keep_prob)
    vals = (rng.random(edges.n_entries) < keep_prob).astype(np.float64)
    if prev is None:
        return EdgeMask(blocks=[constant(vals)])
    if prev.n_blocks != 1:
        raise ContractViolation("random-walk masks are single-block")
    prev_vals = prev.blocks[0].data.ravel()
    if len(prev_vals) != edges.n_entries:
        raise ContractViolation("previous mask not aligned to this edge set")
    row_alive = np.bincount(edges.rows, weights=prev_vals, minlength=edges.n) > 0
    vals *= row_alive[edges.rows]
    return EdgeMask(blocks=[constant(vals)])


def concrete_mask(pi: float, u: np.ndarray, temperature: float,
                  standard: bool = False,
                  force_one: np.ndarray | None = None):
    """Concrete-relaxed keep values and their tangent ``dz/dpi``.

    Computes ``z = sigmoid(logit(pi)/t + logit(u))`` per entry; the printed
    form tempers only the probability logit. ``standard=True`` divides the
    whole argument by t instead. Either way the tangent is
    ``z (1 - z) / (t pi (1 - pi))``; entries in ``force_one`` hold 1 with
    tangent 0. Returns both as (nnz,) arrays.
    """
    if temperature <= 0:
        raise ContractViolation("temperature must be positive")
    if pi <= 0.0 or pi >= 1.0:
        raise ContractViolation("concrete relaxation requires pi in (0, 1)")
    u = np.clip(np.asarray(u, dtype=np.float64).ravel(), 1e-10, 1.0 - 1e-10)
    logit_pi = np.log(pi / (1.0 - pi))
    noise = np.log(u / (1.0 - u))
    if standard:
        arg = (logit_pi + noise) / temperature
    else:
        arg = logit_pi / temperature + noise
    z = expit(arg)
    tangent = z * (1.0 - z) / (temperature * pi * (1.0 - pi))
    if force_one is not None:
        z[force_one] = 1.0
        tangent[force_one] = 0.0
    return z, tangent


def sample_concrete_mask(edges: EdgeSet, n_blocks: int, pi, temperature: float,
                         rng: np.random.Generator,
                         symmetric: bool = False, standard: bool = False,
                         protect_self_loops: bool = False) -> EdgeMask:
    """Relaxed GDC mask: n_blocks concrete draws sharing one keep probability.

    ``pi`` may be a plain float or a tape tensor (e.g. a recorded
    Kumaraswamy draw). The blocks are constants; ``record_gdc_aggregate``
    turns ``pi`` and the tangents the mask carries into ``dL/dpi``.
    """
    if n_blocks < 1:
        raise ContractViolation("n_blocks must be >= 1")
    pi_t = pi if isinstance(pi, Tensor) else constant(pi)
    force = edges.is_diag if protect_self_loops else None
    blocks, tangents = [], []
    for _ in range(n_blocks):
        u = rng.random(edges.n_entries)
        if symmetric:
            edges.symmetrize(u)
        z, tangent = concrete_mask(pi_t.item(), u, temperature,
                                   standard=standard, force_one=force)
        blocks.append(constant(z))
        tangents.append(tangent)
    return EdgeMask(blocks=blocks, pi=pi_t, tangents=tangents)


def arm_free_entries(edges: EdgeSet, spec: MaskSpec) -> np.ndarray:
    """Positions holding an independent ARM variable in each block of a layer.

    The other entries follow from these: a symmetric mask copies each
    non-canonical entry from its mirror, and protected self-loops stay 1.
    """
    free = np.ones(edges.n_entries, dtype=bool)
    if spec.symmetric:
        free &= edges.canonical()
    if spec.protect_self_loops:
        free &= ~edges.is_diag
    return np.flatnonzero(free)


def arm_edge_mask(edges: EdgeSet, spec: MaskSpec, z_drop: np.ndarray,
                  free_idx: np.ndarray) -> EdgeMask:
    """Keep mask (1 - drop indicators) scattered onto the full pattern.

    ``z_drop`` holds the ``spec.n_blocks`` blocks of ARM drop indicators,
    concatenated, each over the entries ``free_idx``.
    """
    blocks = []
    for z in z_drop.reshape(spec.n_blocks, len(free_idx)):
        vals = np.ones(edges.n_entries)
        vals[free_idx] = 1.0 - z
        if spec.symmetric:
            edges.symmetrize(vals)
        blocks.append(constant(vals))
    return EdgeMask(blocks=blocks)


def expected_keep_mask(edges: EdgeSet, keep_prob: float,
                       protect_self_loops: bool = False) -> EdgeMask:
    """Deterministic-evaluation mask: every entry at its expected keep
    value, one block for any layer kind.

    A GDC layer's blocks all expect the same value, so in expectation the
    layer aggregates ``sum_b (A ⊙ pi) H_b W_b = (A ⊙ pi) (H W)``: one block
    over the whole input."""
    _check_prob(keep_prob)
    vals = np.full(edges.n_entries, keep_prob)
    if protect_self_loops:
        vals[edges.is_diag] = 1.0
    return EdgeMask(blocks=[constant(vals)])
