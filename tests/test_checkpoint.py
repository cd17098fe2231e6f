"""Checkpoint files: round trips, faults of the file itself, and files that
do not fit the config they are loaded under."""

import dataclasses
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdcn.checkpoint import load_checkpoint, save_checkpoint
from gdcn.errors import MalformedInputError
from gdcn.masks import MaskKind, MaskSpec
from gdcn.model import GCNConfig, init_params
from gdcn.variational import KumaraswamyParams

from conftest import (CHECKPOINT_VALUE_FAULTS, SMALL_CHECKPOINT_CONFIG,
                      small_checkpoint, with_float)

LEARNED = MaskSpec(kind=MaskKind.GDC, learned=True, relaxed=True)


def model(dims, learned, keeps, use_bias):
    """A config with a learned GDC layer where ``learned`` says so and a
    fixed DropEdge layer of keep probability ``keeps[l]`` elsewhere."""
    masks = [LEARNED if on else MaskSpec(kind=MaskKind.DROPEDGE, keep_prob=k)
             for on, k in zip(learned, keeps)]
    return GCNConfig(layer_dims=list(dims), masks=masks, use_bias=use_bias,
                     estimator="concrete" if any(learned) else "none")


def write(path, config, params=None):
    if params is None:
        params = init_params(config, np.random.default_rng(0))
    save_checkpoint(path, params, config)
    return params


def assert_same_tensors(saved, loaded):
    """Equal tensors, bit for bit and dtype for dtype: float32 weights and
    biases, float64 Kumaraswamy logs."""
    assert len(saved) == len(loaded)
    for a, b in zip(saved, loaded):
        ta, tb = a.tensors(), b.tensors()
        assert len(ta) == len(tb)
        for x, y in zip(ta, tb):
            assert x.data.dtype == y.data.dtype
            assert x.data.shape == y.data.shape
            assert x.data.tobytes() == y.data.tobytes()


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        masks = [MaskSpec(kind=MaskKind.GDC, learned=True, relaxed=True),
                 MaskSpec(kind=MaskKind.DROPEDGE, keep_prob=0.4)]
        cfg = GCNConfig(layer_dims=[3, 4, 2], masks=masks, estimator="concrete")
        path = tmp_path / "model.bin"
        params = write(path, cfg)
        loaded = load_checkpoint(path, cfg)
        for a, b in zip(params, loaded):
            assert np.array_equal(a.m.data, b.m.data)
        assert loaded[0].kuma is not None
        assert loaded[0].kuma.a == pytest.approx(params[0].kuma.a)
        assert loaded[1].kuma is None
        assert path.read_bytes()[-9:] == struct.pack("<Bd", 0, 0.4)

    def test_bias_roundtrip_version_2(self, tmp_path):
        cfg = GCNConfig(layer_dims=[3, 4, 2], use_bias=True,
                        masks=[MaskSpec(), MaskSpec()])
        params = init_params(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        for p in params:
            p.bias.data[:] = rng.normal(size=p.bias.data.shape)
        path = tmp_path / "model.bin"
        write(path, cfg, params)
        assert struct.unpack("<I", path.read_bytes()[4:8]) == (2,)
        loaded = load_checkpoint(path, cfg)
        for a, b in zip(params, loaded):
            assert np.array_equal(a.m.data, b.m.data)
            assert np.array_equal(a.bias.data, b.bias.data)

    def test_magic_enforced(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(MalformedInputError):
            load_checkpoint(path, SMALL_CHECKPOINT_CONFIG)

    def test_every_truncation_is_malformed(self, tmp_path):
        raw = small_checkpoint(tmp_path)
        path = tmp_path / "cut.bin"
        for length in range(len(raw)):
            path.write_bytes(raw[:length])
            with pytest.raises(MalformedInputError, match="truncated"):
                load_checkpoint(path, SMALL_CHECKPOINT_CONFIG)

    def test_trailing_byte_is_malformed(self, tmp_path):
        path = tmp_path / "long.bin"
        path.write_bytes(small_checkpoint(tmp_path) + b"\x00")
        with pytest.raises(MalformedInputError, match="1 trailing bytes"):
            load_checkpoint(path, SMALL_CHECKPOINT_CONFIG)

    @pytest.mark.parametrize("offset, value, message", [
        (4, b"\x03\x00\x00\x00", "version 3"),
        (8, b"\x00\x00\x00\x00", "0 layers"),
        (-26, b"\x02", "layer 0: unknown drop kind 2"),  # 17 + 9 bytes left
    ])
    def test_bad_header_field_is_malformed(self, tmp_path, offset, value,
                                           message):
        raw = bytearray(small_checkpoint(tmp_path))
        raw[offset:offset + len(value) or None] = value
        path = tmp_path / "bad.bin"
        path.write_bytes(bytes(raw))
        with pytest.raises(MalformedInputError, match=message):
            load_checkpoint(path, SMALL_CHECKPOINT_CONFIG)

    @pytest.mark.parametrize("offset, value, message", CHECKPOINT_VALUE_FAULTS)
    def test_bad_value_is_malformed(self, tmp_path, offset, value, message):
        path = tmp_path / "bad.bin"
        path.write_bytes(with_float(small_checkpoint(tmp_path), offset, value))
        with pytest.raises(MalformedInputError, match=re.escape(message)):
            load_checkpoint(path, SMALL_CHECKPOINT_CONFIG)

    def test_weights_load_rounded_to_float32(self, tmp_path):
        # A float64 weight loads as its float32 rounding. Halfway between
        # float32's largest value and the next power of two, a value rounds
        # to infinity and is out of range; just below, it loads as the
        # largest value.
        raw = small_checkpoint(tmp_path)
        path = tmp_path / "model.bin"
        top = float(np.finfo(np.float32).max)
        half = top + 2.0 ** 103
        for value, want in ((0.1, np.float32(0.1)),
                            (float(np.nextafter(half, 0.0)), np.float32(top)),
                            (-1e-50, np.float32(-0.0))):
            path.write_bytes(with_float(raw, 24, value))
            got = load_checkpoint(path, SMALL_CHECKPOINT_CONFIG)[0].m.data
            assert got.dtype == np.float32
            assert got[0, 0].tobytes() == want.tobytes()
        path.write_bytes(with_float(raw, 24, half))
        with pytest.raises(MalformedInputError, match=re.escape(
                "layer 0 weights holds a value outside float32's range")):
            load_checkpoint(path, SMALL_CHECKPOINT_CONFIG)

    def test_log_values_roundtrip_bitwise(self, tmp_path):
        cfg = GCNConfig(layer_dims=[3, 2], estimator="concrete",
                        masks=[MaskSpec(kind=MaskKind.GDC, learned=True,
                                        relaxed=True)])
        params = init_params(cfg, np.random.default_rng(0))
        path = tmp_path / "model.bin"
        for log_a, log_b in np.random.default_rng(31).normal(
                scale=3.0, size=(100, 2)):
            params[0].kuma.log_a.data[0, 0] = log_a
            params[0].kuma.log_b.data[0, 0] = log_b
            write(path, cfg, params)
            kuma = load_checkpoint(path, cfg)[0].kuma
            assert (kuma.log_a.item(), kuma.log_b.item()) == (log_a, log_b)

    def test_header_layout(self, tmp_path):
        cfg = GCNConfig(layer_dims=[3, 4, 2], masks=[MaskSpec(), MaskSpec()])
        path = tmp_path / "model.bin"
        write(path, cfg)
        raw = path.read_bytes()
        assert raw[:4] == b"GDCN"
        version, n_layers = struct.unpack("<II", raw[4:12])
        assert version == 1 and n_layers == 2
        dims = struct.unpack("<III", raw[12:24])
        assert dims == (3, 4, 2)


def _replace_mask(config, layer, **changes):
    masks = list(config.masks)
    masks[layer] = dataclasses.replace(masks[layer], **changes)
    return masks


# Configs that ``small_checkpoint`` does not fit, and the error each gives.
MISMATCHES = {
    "dims": (dataclasses.replace(SMALL_CHECKPOINT_CONFIG,
                                 layer_dims=[3, 5, 2]),
             "checkpoint dims [3, 4, 2] do not match config/data dims "
             "[3, 5, 2]"),
    "bias": (dataclasses.replace(SMALL_CHECKPOINT_CONFIG, use_bias=False),
             "checkpoint version 2 does not match config use_bias = False"),
    "learned-to-fixed": (dataclasses.replace(
        SMALL_CHECKPOINT_CONFIG, estimator="none",
        masks=_replace_mask(SMALL_CHECKPOINT_CONFIG, 0, learned=False,
                            relaxed=False)),
        "layer 0: checkpoint drop parameterization does not match config"),
    "fixed-to-learned": (dataclasses.replace(
        SMALL_CHECKPOINT_CONFIG,
        masks=_replace_mask(SMALL_CHECKPOINT_CONFIG, 1, learned=True,
                            relaxed=True)),
        "layer 1: checkpoint drop parameterization does not match config"),
    "keep": (dataclasses.replace(
        SMALL_CHECKPOINT_CONFIG,
        masks=_replace_mask(SMALL_CHECKPOINT_CONFIG, 1,
                            keep_prob=np.nextafter(0.4, 1.0))),
        "layer 1: checkpoint keep probability 0.4 does not match config "
        "keep_prob 0.4000000000000001"),
}


class TestConfigMismatch:
    """A file loads only under the config of the model it was written for."""

    @pytest.mark.parametrize("name", sorted(MISMATCHES))
    def test_mismatch_is_malformed(self, tmp_path, name):
        config, message = MISMATCHES[name]
        path = tmp_path / "small.bin"
        path.write_bytes(small_checkpoint(tmp_path))
        with pytest.raises(MalformedInputError, match=re.escape(message)):
            load_checkpoint(path, config)

    def test_version_1_needs_config_without_bias(self, tmp_path):
        cfg = dataclasses.replace(SMALL_CHECKPOINT_CONFIG, use_bias=False)
        path = tmp_path / "v1.bin"
        write(path, cfg)
        with pytest.raises(MalformedInputError, match=re.escape(
                "checkpoint version 1 does not match config use_bias = True")):
            load_checkpoint(path, SMALL_CHECKPOINT_CONFIG)

    @pytest.mark.parametrize("offset, value, message", CHECKPOINT_VALUE_FAULTS)
    def test_file_fault_comes_first(self, tmp_path, offset, value, message):
        config, _ = MISMATCHES["dims"]
        path = tmp_path / "bad.bin"
        path.write_bytes(with_float(small_checkpoint(tmp_path), offset, value))
        with pytest.raises(MalformedInputError, match=re.escape(message)):
            load_checkpoint(path, config)

    def test_trailing_bytes_come_first(self, tmp_path):
        path = tmp_path / "long.bin"
        path.write_bytes(small_checkpoint(tmp_path) + b"\x00")
        for config, _ in MISMATCHES.values():
            with pytest.raises(MalformedInputError, match="1 trailing bytes"):
                load_checkpoint(path, config)


@st.composite
def models(draw):
    """(config, seed): 1-3 layers of width 1-4, biases on or off, each
    layer learned or fixed with any keep probability in [0, 1]."""
    n_layers = draw(st.integers(1, 3))
    layers = st.lists(st.booleans(), min_size=n_layers, max_size=n_layers)
    dims = draw(st.lists(st.integers(1, 4), min_size=n_layers + 1,
                         max_size=n_layers + 1))
    keeps = draw(st.lists(st.floats(0.0, 1.0), min_size=n_layers,
                          max_size=n_layers))
    return (model(dims, draw(layers), keeps, draw(st.booleans())),
            draw(st.integers(0, 2 ** 32 - 1)))


def random_params(config, seed):
    """Parameters whose every float32 weight and bias is a random finite
    bit pattern, and Kumaraswamy logs anywhere ``exp`` stays positive and
    finite."""
    rng = np.random.default_rng(seed)
    params = init_params(config, rng)
    for p in params:
        for t in (p.m, p.bias):
            if t is not None:
                bits = rng.integers(0, 2 ** 32, size=t.data.shape,
                                    dtype=np.uint32).view(np.float32)
                t.data = np.where(np.isfinite(bits), bits, np.float32(-0.0))
        if p.kuma is not None:
            p.kuma = KumaraswamyParams.from_logs(*rng.uniform(-700, 700, 2))
    return params


def other_configs(config):
    """Configs of other models: one per dim, the bias flipped, and per
    layer the drop kind flipped or the keep probability one ulp away."""
    for l in range(len(config.layer_dims)):
        dims = list(config.layer_dims)
        dims[l] += 1
        yield dataclasses.replace(config, layer_dims=dims)
    yield dataclasses.replace(config, use_bias=not config.use_bias)
    learned = [s.learned for s in config.masks]
    keeps = [s.keep_prob for s in config.masks]
    for l, spec in enumerate(config.masks):
        flipped = learned[:l] + [not learned[l]] + learned[l + 1:]
        yield model(config.layer_dims, flipped, keeps, config.use_bias)
        if not spec.learned:
            other = np.nextafter(spec.keep_prob, 0.5 if spec.keep_prob != 0.5
                                 else 1.0)
            yield dataclasses.replace(config, masks=_replace_mask(
                config, l, keep_prob=float(other)))


@settings(max_examples=150, deadline=None)
@given(models())
def test_roundtrip_under_own_config_only(tmp_path_factory, drawn):
    config, seed = drawn
    path = tmp_path_factory.mktemp("ckpt") / "model.bin"
    params = random_params(config, seed)
    save_checkpoint(path, params, config)
    assert_same_tensors(params, load_checkpoint(path, config))
    tail = b"".join(
        struct.pack("<Bdd", 1, p.kuma.log_a.item(), p.kuma.log_b.item())
        if spec.learned else struct.pack("<Bd", 0, spec.keep_prob)
        for spec, p in zip(config.masks, params))
    assert path.read_bytes().endswith(tail)
    for other in other_configs(config):
        with pytest.raises(MalformedInputError):
            load_checkpoint(path, other)
