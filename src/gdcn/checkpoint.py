"""Checkpoint files: their only reader and writer, and their config check.

The layout, little-endian: the magic ``b"GDCN"``; a u32 version, 2 for a
model with biases and 1 for one without; a u32 layer count L >= 1; the
L + 1 dims as u32; per layer its row-major float64 weights and, in version
2, its float64 bias row; then per layer a drop-kind byte, 1 (learned)
followed by the float64 Kumaraswamy log a and log b, or 0 (fixed) followed
by the float64 keep probability.

Weights and biases load rounded to float32, the model's dtype, which a
float64 holds exactly; one beyond float32's finite range is a fault.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import ContractViolation, MalformedInputError
from .model import GCNConfig, LayerParams
from .tape import parameter
from .variational import KumaraswamyParams

MAGIC = b"GDCN"


def save_checkpoint(path, params: list, config: GCNConfig) -> None:
    """Write ``params`` of the model ``config`` describes; a fixed layer
    stores the config's keep probability."""
    dims, version = config.layer_dims, 2 if config.use_bias else 1
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack(f"<II{len(dims)}I", version,
                                     config.n_layers, *dims))
        for p in params:
            fh.write(p.m.data.astype("<f8").tobytes())
            if config.use_bias:
                fh.write(p.bias.data.astype("<f8").tobytes())
        for spec, p in zip(config.masks, params):
            if spec.learned:
                fh.write(struct.pack("<Bdd", 1, p.kuma.log_a.item(),
                                     p.kuma.log_b.item()))
            else:
                fh.write(struct.pack("<Bd", 0, spec.keep_prob))


def load_checkpoint(path, config: GCNConfig) -> list:
    """The parameters in ``path`` for the model ``config`` describes: the
    weights and biases rounded to float32, the stored log values bit for
    bit.

    Every fault raises ``MalformedInputError``, the file's own first: it is
    unreadable, truncated or too long, or has a bad magic, version or drop
    kind, a non-finite weight or bias, or one beyond float32's range, a
    Kumaraswamy (log a, log b) with no positive finite (a, b), or a keep
    probability outside [0, 1]. Then its dims, its biases (version 2), each
    layer's drop kind and each fixed layer's keep probability must be the
    config's.
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

    def floats(rows: int, cols: int, what: str):
        arr = np.frombuffer(take(8 * rows * cols), dtype="<f8")
        with np.errstate(over="ignore"):
            arr32 = arr.astype(np.float32)
        if not np.all(np.isfinite(arr32)):
            fault = ("a non-finite value" if not np.all(np.isfinite(arr))
                     else "a value outside float32's range")
            raise MalformedInputError(
                f"checkpoint {path}: {what} holds {fault}")
        return parameter(arr32.reshape(rows, cols))

    magic = take(4)
    if magic != MAGIC:
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
    keeps = [None] * n_layers   # a fixed layer's stored keep probability
    for l, p in enumerate(params):
        (kind,) = unpack("<B")
        if kind == 1:
            try:
                p.kuma = KumaraswamyParams.from_logs(*unpack("<dd"))
            except ContractViolation as exc:
                raise MalformedInputError(f"layer {l}: {exc}") from exc
        elif kind == 0:
            (keeps[l],) = unpack("<d")
            if not 0.0 <= keeps[l] <= 1.0:  # NaN fails too
                raise MalformedInputError(
                    f"layer {l}: keep probability {keeps[l]} outside [0, 1]")
        else:
            raise MalformedInputError(f"layer {l}: unknown drop kind {kind}")
    if pos != len(buf):
        raise MalformedInputError(
            f"checkpoint {path} has {len(buf) - pos} trailing bytes")

    if dims != list(config.layer_dims):
        raise MalformedInputError(f"checkpoint dims {dims} do not match "
                                  f"config/data dims {list(config.layer_dims)}")
    if (version == 2) != config.use_bias:
        raise MalformedInputError(f"checkpoint version {version} does not "
                                  f"match config use_bias = {config.use_bias}")
    for l, (spec, p, keep) in enumerate(zip(config.masks, params, keeps)):
        if spec.learned != (p.kuma is not None):
            raise MalformedInputError(f"layer {l}: checkpoint drop "
                                      f"parameterization does not match config")
        if keep is not None and keep != spec.keep_prob:
            raise MalformedInputError(
                f"layer {l}: checkpoint keep probability {keep} does not "
                f"match config keep_prob {spec.keep_prob}")
    return params
