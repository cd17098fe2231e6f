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
masks float64. Every edge mask but the random-walk one holds one value per
block at each of ``free_entries``' positions and derives the rest; so do
ARM's, whose uniforms ``model.sample_step_masks`` draws (``free_uniforms``)
and whose keep masks ``model.arm_masks`` builds (``keep_mask``).

Binary masks (DropOut, node, DropEdge, GDC and random-walk) draw through
one exact Bernoulli rule, ``bernoulli``, in training steps and Monte
Carlo passes alike: one random byte per entry, compared with 256 p, and a
uniform only on a tie. Concrete and ARM uniforms and the Kumaraswamy draw
of a learned keep probability use ``rng.random``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .errors import ContractViolation
from .graph import EdgeSet
from .tape import Tensor, constant


# Inside the clamps of pi and u, a relaxed mask's logit is at most 46.06 / t
# in magnitude, which overflows float64 for t below about 2.6e-307.
MIN_TEMPERATURE = 1e-300


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
      Read by DropEdge and GDC masks only; other kinds reject it.
    - ``relaxed``: declares concrete-relaxed masks, the paper's continuous
      relaxation that lets gradients reach the drop rate. ``GCNConfig``
      requires it exactly on learned layers under ``concrete``, the layers
      whose masks sampling relaxes; it enables the temperature check.
    - ``protect_self_loops``: self-loops are never dropped, so the mask
      covers only the graph's edges and each node keeps its own features.
      Read by DropEdge and GDC masks only; other kinds reject it.
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
        if self.relaxed and not self.temperature > 0:   # NaN fails too
            raise ContractViolation("relaxed masks require temperature > 0")
        if self.relaxed and self.temperature < MIN_TEMPERATURE:
            raise ContractViolation(
                f"relaxed masks require temperature >= {MIN_TEMPERATURE}, "
                f"got {self.temperature}")
        if self.dropout_keep is not None and not 0.0 <= self.dropout_keep <= 1.0:
            raise ContractViolation("dropout_keep must lie in [0, 1]")
        if self.learned and self.kind not in (MaskKind.DROPEDGE, MaskKind.GDC):
            raise ContractViolation(
                "learned keep probabilities apply to edge masks (dropedge/gdc) only"
            )
        for flag in ("symmetric", "protect_self_loops"):
            if getattr(self, flag) and self.kind not in (MaskKind.DROPEDGE,
                                                          MaskKind.GDC):
                raise ContractViolation(
                    f"{flag} applies to dropedge/gdc masks only, got "
                    f"{self.kind.value}")


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


def bernoulli(shape, p: float, rng: np.random.Generator) -> np.ndarray:
    """I.i.d. Bernoulli(p) booleans from one random byte per entry: the
    rule of every binary mask.

    With ``t = 256 p`` (exact in float64) and ``k = floor(t)``, an entry
    keeps where its byte ``u < k``. Only where ``u == k``, and only if
    ``t > k``, does it draw a uniform, one per tie in position order, and
    keep where that lies below ``t - k``. So P(keep) = k/256 + (t - k)/256
    = p, to the precision of ``rng.random() < p``, and p = 0 and p = 1
    draw no uniform: the lazy comparison of a uniform's leading bits with
    p's (Knuth & Yao, 1976). The bytes are those of ``ceil(n / 8)`` raw
    64-bit outputs of the bit generator, little-endian, the first n of
    them, which is cheaper than ``rng.bytes``: that one assembles its bytes
    from 32-bit draws.
    """
    _check_prob(p)
    n = int(np.prod(shape))
    u = (rng.bit_generator.random_raw(-(-n // 8)).astype("<u8", copy=False)
         .view(np.uint8)[:n])
    t = 256.0 * p
    k = int(t)
    keep = u < k
    if t > k:
        ties = np.flatnonzero(u == k)
        keep[ties] = rng.random(len(ties)) < t - k
    return keep.reshape(shape)


def sample_dropout_mask(n: int, f: int, keep_prob: float,
                        rng: np.random.Generator) -> np.ndarray:
    """I.i.d. Bernoulli(keep_prob) boolean feature mask, applied as H * Z."""
    return bernoulli((n, f), keep_prob, rng)


def sample_node_mask(n: int, keep_prob: float,
                     rng: np.random.Generator) -> np.ndarray:
    """I.i.d. Bernoulli(keep_prob) boolean node mask, applied as diag(z) H."""
    return bernoulli(n, keep_prob, rng)


def free_entries(edges: EdgeSet, spec: MaskSpec) -> np.ndarray | None:
    """Positions that draw a value in each block of ``spec``'s edge mask,
    or None when every entry does. No other mask code reads the flags: a
    symmetric mask draws one value per undirected edge (its canonical
    entry), and a protected self-loop draws none."""
    if not (spec.symmetric or spec.protect_self_loops):
        return None
    free = np.ones(edges.n_entries, dtype=bool)
    if spec.symmetric:
        free &= edges.canonical()
    if spec.protect_self_loops:
        free &= ~edges.is_diag
    return np.flatnonzero(free)


def _n_free(edges: EdgeSet, free: np.ndarray | None) -> int:
    return edges.n_entries if free is None else len(free)


def free_uniforms(edges: EdgeSet, spec: MaskSpec, rng: np.random.Generator):
    """``free_entries`` and one uniform per block and free position,
    shape (n_blocks, n_free): all that a concrete or ARM mask draws."""
    free = free_entries(edges, spec)
    return free, rng.random((spec.n_blocks, _n_free(edges, free)))


def _on_pattern(edges: EdgeSet, free: np.ndarray | None, values: np.ndarray,
                fill: float = 1.0) -> np.ndarray:
    """One block's ``values`` at the ``free`` positions, on the full
    ``A + I`` pattern. An edge outside ``free`` copies its mirror, and a
    self-loop outside it (a protected one) holds ``fill``: 1 in a keep
    mask, 0 in a concrete tangent."""
    if free is None:
        return values
    full = np.full(edges.n_entries, fill)
    full[free] = values
    drawn = np.zeros(edges.n_entries, dtype=bool)
    drawn[free] = True
    mirrored = ~drawn & ~edges.is_diag
    full[mirrored] = full[edges.mirror[mirrored]]
    return full


def keep_mask(edges: EdgeSet, free: np.ndarray | None,
              keep: np.ndarray) -> EdgeMask:
    """Edge mask whose block b holds ``keep[b]`` at the ``free`` positions;
    binary GDC, DropEdge, ARM and expected-keep masks are all built here."""
    return EdgeMask(blocks=[constant(_on_pattern(edges, free, k))
                            for k in keep])


def sample_gdc_masks(edges: EdgeSet, spec: MaskSpec, keep_prob: float,
                     rng: np.random.Generator) -> EdgeMask:
    """``spec.n_blocks`` independent Bernoulli(keep_prob) masks, one per
    feature block; with one block, DropEdge's (``sample_dropedge_mask``)."""
    free = free_entries(edges, spec)
    keep = bernoulli((spec.n_blocks, _n_free(edges, free)), keep_prob, rng)
    return keep_mask(edges, free, keep.astype(np.float64))


def sample_dropedge_mask(edges: EdgeSet, spec: MaskSpec, keep_prob: float,
                         rng: np.random.Generator) -> EdgeMask:
    """DropEdge's mask: GDC with the one block of a DropEdge ``spec``
    (``sample_gdc_masks``), draw for draw."""
    return sample_gdc_masks(edges, spec, keep_prob, rng)


def sample_randomwalk_mask(edges: EdgeSet, keep_prob: float,
                           prev: EdgeMask | None,
                           rng: np.random.Generator) -> EdgeMask:
    """Bernoulli draw gated by connectivity surviving the previous layer.

    Entry (v, u) can only be kept if node v retained at least one incoming
    connection in ``prev``; this keeps every node's receptive field a
    connected subgraph. The first random-walk layer takes ``prev=None``:
    nothing was dropped before it, so no entry is gated.
    """
    vals = bernoulli(edges.n_entries, keep_prob, rng).astype(np.float64)
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
                  standard: bool = False):
    """Concrete-relaxed keep values and their tangent ``dz/dpi``.

    Computes ``z = sigmoid(logit(pi)/t + logit(u))`` per entry; the printed
    form tempers only the probability logit. ``standard=True`` divides the
    whole argument by t instead. Either way the tangent is
    ``z (1 - z) / (t pi (1 - pi))``. Returns both with ``u``'s length.
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
    return z, tangent


def sample_concrete_mask(edges: EdgeSet, spec: MaskSpec, pi,
                         rng: np.random.Generator,
                         standard: bool = False) -> EdgeMask:
    """Relaxed GDC mask: ``spec.n_blocks`` concrete draws at ``spec``'s
    temperature, sharing one keep probability.

    ``pi`` may be a plain float or a tape tensor (e.g. a recorded
    Kumaraswamy draw). The blocks are constants; ``record_gdc_aggregate``
    turns ``pi`` and the tangents the mask carries into ``dL/dpi``.
    """
    pi_t = pi if isinstance(pi, Tensor) else constant(pi)
    free, u = free_uniforms(edges, spec, rng)
    blocks, tangents = [], []
    for u_b in u:
        z, tangent = concrete_mask(pi_t.item(), u_b, spec.temperature,
                                   standard=standard)
        blocks.append(constant(_on_pattern(edges, free, z)))
        tangents.append(_on_pattern(edges, free, tangent, fill=0.0))
    return EdgeMask(blocks=blocks, pi=pi_t, tangents=tangents)


def expected_keep_mask(edges: EdgeSet, spec: MaskSpec,
                       keep_prob: float) -> EdgeMask:
    """Deterministic-evaluation mask: every free entry of ``spec``'s mask
    at its expected keep value, one block for any layer kind.

    A GDC layer's blocks all expect the same value, so in expectation the
    layer aggregates ``sum_b (A ⊙ pi) H_b W_b = (A ⊙ pi) (H W)``: one block
    over the whole input."""
    _check_prob(keep_prob)
    free = free_entries(edges, spec)
    return keep_mask(edges, free,
                     np.full((1, _n_free(edges, free)), keep_prob))
