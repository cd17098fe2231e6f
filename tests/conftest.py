"""Shared oracles and fixtures.

Oracles here are deliberately independent of the package internals: dense
matrix arithmetic, direct summation, and central finite differences. Tests
compare the package's sparse/taped paths against these.
"""

import os
import struct
from dataclasses import replace

import numpy as np
import pytest

from gdcn.checkpoint import save_checkpoint
from gdcn.masks import MaskKind, MaskSpec
from gdcn.model import GCNConfig, init_params
from gdcn.tape import parameter, record_gdc_aggregate
from gdcn.variational import record_kuma_sample

from synthetic import make_synthetic_files


def finite_diff(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of a flat vector."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        g.flat[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def float64_params(params: list) -> list:
    """``params`` with float64 copies of the weights and biases, which are
    float32 from ``init_params`` on; the drop parameters are shared. A
    pass on them and a float64 input stays float64, as a finite-difference
    check or a float64 reference pass needs."""
    def f64(t):
        return None if t is None else parameter(t.data.astype(np.float64))

    return [replace(p, m=f64(p.m), bias=f64(p.bias)) for p in params]


def kuma_draw(log_a: float, log_b: float, u: float) -> float:
    """The Kumaraswamy inverse-CDF draw at (log a, log b), as the model
    computes it (``record_kuma_sample`` without a tape)."""
    return record_kuma_sample(None, parameter(log_a), parameter(log_b),
                              u).item()


def mask_values(mask) -> np.ndarray:
    """An ``EdgeMask``'s blocks stacked into one (n_blocks, nnz) array."""
    return np.stack([b.data.ravel() for b in mask.blocks])


def free_positions(edges, symmetric: bool = False,
                   protect_self_loops: bool = False) -> np.ndarray:
    """Where an edge mask draws, written out: every entry, less the
    mirrored half of a symmetric mask and the protected self-loops."""
    free = np.ones(edges.n_entries, dtype=bool)
    if symmetric:
        free &= edges.rows <= edges.cols
    if protect_self_loops:
        free &= edges.rows != edges.cols
    return np.flatnonzero(free)


def masked_aggregate(tape, a, masks, h, w, pi=None, tangents=None, **kwargs):
    """``record_gdc_aggregate`` on ``a`` with block b's entries
    ``a.data * masks[b]`` and, given ``tangents``, tangent entries
    ``a.data * tangents[b]``: the entries ``model.forward`` builds from an
    edge mask. A mask is an array or a constant tensor."""
    def entries(z):
        return a.data * np.ravel(getattr(z, "data", z))

    return record_gdc_aggregate(
        tape, a, [entries(z) for z in masks], h, w, pi=pi,
        tangents=None if tangents is None else [entries(t) for t in tangents],
        **kwargs)


def rel_err(a, b, floor: float = 1e-4) -> float:
    # floor: magnitude below which the comparison is effectively absolute;
    # central differences at h=1e-5 carry ~1e-10 absolute noise.
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def dense_normalize(a_dense: np.ndarray, renorm_trick: bool = False) -> np.ndarray:
    """Dense oracle for the normalizing operator."""
    a = np.asarray(a_dense, dtype=np.float64)
    n = a.shape[0]
    if renorm_trick:
        a_hat = a + np.eye(n)
        d = a_hat.sum(axis=1)
        d_is = np.diag(1.0 / np.sqrt(d))
        return d_is @ a_hat @ d_is
    d = a.sum(axis=1)
    with np.errstate(divide="ignore"):
        inv = np.where(d > 0, 1.0 / np.sqrt(d), 0.0)
    return np.eye(n) + np.diag(inv) @ a @ np.diag(inv)


# The model of ``small_checkpoint``: dims 3-4-2, biases, one learned and
# one fixed layer, so that every section of the file is present.
SMALL_CHECKPOINT_CONFIG = GCNConfig(
    layer_dims=[3, 4, 2], estimator="concrete", use_bias=True,
    masks=[MaskSpec(kind=MaskKind.GDC, learned=True, relaxed=True),
           MaskSpec(kind=MaskKind.DROPEDGE, keep_prob=0.4)])


def small_checkpoint(tmp_path) -> bytes:
    """A version-2 checkpoint of ``SMALL_CHECKPOINT_CONFIG``. Its 258
    bytes: header [0, 24), layer 0 weights [24, 120) and bias [120, 152),
    layer 1 weights [152, 216) and bias [216, 232), layer 0 kind byte 232
    with log a [233, 241) and log b [241, 249), layer 1 kind byte 249 with
    its keep probability [250, 258)."""
    path = tmp_path / "small.bin"
    save_checkpoint(path, init_params(SMALL_CHECKPOINT_CONFIG,
                                      np.random.default_rng(0)),
                    SMALL_CHECKPOINT_CONFIG)
    return path.read_bytes()


# (offset into ``small_checkpoint``, float64 written there, error text)
CHECKPOINT_VALUE_FAULTS = [
    (24, np.inf, "layer 0 weights holds a non-finite value"),
    (200, np.nan, "layer 1 weights holds a non-finite value"),
    (120, -np.inf, "layer 0 bias holds a non-finite value"),
    (24, 1e300, "layer 0 weights holds a value outside float32's range"),
    (216, -1e39, "layer 1 bias holds a value outside float32's range"),
    (233, -1000.0, "layer 0: Kumaraswamy"),
    (233, np.nan, "layer 0: Kumaraswamy"),
    (241, 1000.0, "layer 0: Kumaraswamy"),
    (250, 1.5, "layer 1: keep probability 1.5 outside [0, 1]"),
    (250, -0.25, "layer 1: keep probability -0.25 outside [0, 1]"),
    (250, np.nan, "layer 1: keep probability nan outside [0, 1]"),
]


def with_float(raw: bytes, offset: int, value: float) -> bytes:
    """``raw`` with the little-endian float64 at ``offset`` replaced."""
    return raw[:offset] + struct.pack("<d", value) + raw[offset + 8:]


def random_edges(rng: np.random.Generator, n: int, p: float = 0.5):
    """Random undirected edge list on n nodes."""
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j))
    return edges


@pytest.fixture(scope="session")
def synthetic_files(tmp_path_factory):
    """Content/cites files for a separable 3-cluster graph."""
    directory = tmp_path_factory.mktemp("synth")
    content, cites = make_synthetic_files(str(directory), n_per_cluster=10,
                                          n_clusters=3, seed=7)
    return content, cites


def cora_dir():
    """Directory holding cora.content / cora.cites, if supplied."""
    for candidate in (os.environ.get("GDCN_DATA_DIR"),
                      os.path.join(os.path.dirname(__file__), "..", "data", "cora")):
        if not candidate:
            continue
        content = os.path.join(candidate, "cora.content")
        cites = os.path.join(candidate, "cora.cites")
        if os.path.exists(content) and os.path.exists(cites):
            return candidate
    return None


requires_cora = pytest.mark.skipif(
    cora_dir() is None,
    reason="Cora content/cites files not available (place them in data/cora/ "
           "or set GDCN_DATA_DIR); they cannot be fetched in this environment",
)
