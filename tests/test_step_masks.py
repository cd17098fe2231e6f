"""``sample_step_masks`` decides every factor a pass applies: ARM's masks
in training mode, expected keep values as feature masks in the
deterministic mode, and boolean DropOut and node masks."""

import dataclasses

import numpy as np
import pytest
from scipy.special import logit

from gdcn.estimators import ArmDraw, arm_z1, arm_z2
from gdcn.masks import (MaskKind, MaskSpec, bernoulli, sample_dropout_mask,
                        sample_node_mask)
from gdcn.model import (GCNConfig, PreparedGraph, arm_masks, forward,
                        init_params, sample_step_masks, sparse_input)
from gdcn.tape import Tape, backward, constant, record_masked_nll
from gdcn.variational import KumaraswamyParams

from conftest import free_positions, kuma_draw, mask_values, random_edges

N = 12


def graph(seed=0):
    return PreparedGraph.from_edges(
        random_edges(np.random.default_rng(seed), N, 0.3), N)


def arm_config(dropout_keep=None):
    """Two learned layers: a 2-block GDC layer, and a symmetric DropEdge
    layer whose self-loops are protected."""
    masks = [MaskSpec(kind=MaskKind.GDC, learned=True, n_blocks=2,
                      dropout_keep=dropout_keep),
             MaskSpec(kind=MaskKind.DROPEDGE, learned=True, symmetric=True,
                      protect_self_loops=True)]
    return GCNConfig(layer_dims=[6, 5, 3], masks=masks, estimator="arm")


def keep_values(edges, spec, z, free):
    """ARM's keep mask of drop indicators ``z`` (all blocks, concatenated),
    written out: 1 - z at ``free``, a mirrored entry copies its mirror, a
    protected self-loop holds 1. One row per block."""
    vals = np.ones((spec.n_blocks, edges.n_entries))
    vals[:, free] = 1.0 - z.reshape(spec.n_blocks, -1)
    if spec.symmetric:
        lower = edges.rows > edges.cols
        vals[:, lower] = vals[:, edges.mirror[lower]]
    return vals


def arm_params(cfg, seed):
    params = init_params(cfg, np.random.default_rng(seed))
    for p, (a, b) in zip(params, [(1.4, 2.2), (0.9, 3.3)]):
        p.kuma = KumaraswamyParams(a, b)
    return params


class TestArmDraws:
    @pytest.mark.parametrize("dropout_keep", [None, 0.8])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_stream_equals_the_trainers_sequence(self, seed, dropout_keep):
        cfg, g = arm_config(dropout_keep), graph(seed)
        params = arm_params(cfg, seed)
        rng = np.random.default_rng(seed)
        draws = sample_step_masks(cfg, params, g, rng, tape=Tape(),
                                  mode="train")

        # The sequence the trainer drew before the sampler owned ARM's
        # draws: the sampler's per-layer draws with the ARM edge masks
        # unset, then rng.random(nb * |free|) per learned layer, then the
        # keep mask of Z2.
        ref = np.random.default_rng(seed)
        pis, features = [], []
        for spec, p in zip(cfg.masks, params):
            pis.append(kuma_draw(p.kuma.log_a.item(), p.kuma.log_b.item(),
                                 float(ref.random())))
            if spec.dropout_keep is not None:
                features.append(bernoulli((N, 6), spec.dropout_keep, ref))
            else:
                features.append(None)
        free = [free_positions(g.edges, s.symmetric, s.protect_self_loops)
                for s in cfg.masks]
        u = [ref.random(s.n_blocks * len(f)) for s, f in zip(cfg.masks, free)]
        alpha = np.array([logit(1.0 - pi) for pi in pis])
        z2 = arm_z2(ArmDraw(u=u, alpha=alpha))

        assert [pi.item() for pi in draws.pi_tensors] == pis
        assert [got.tobytes() for got in draws.arm.u] == [
            want.tobytes() for want in u]
        assert draws.arm.alpha.tobytes() == alpha.tobytes()
        assert [l for l, *_ in draws.arm_layers] == [0, 1]
        for l, (spec, f, z) in enumerate(zip(cfg.masks, free, z2)):
            lm = draws.layer_masks[l]
            assert draws.arm_layers[l][1] is spec
            got_free = draws.arm_layers[l][2]  # None: every entry draws
            np.testing.assert_array_equal(
                np.arange(g.edges.n_entries) if got_free is None
                else got_free, f)
            assert (mask_values(lm.edge).tobytes()
                    == keep_values(g.edges, spec, z, f).tobytes())
            if features[l] is None:
                assert lm.feature is None
            else:
                np.testing.assert_array_equal(lm.feature, features[l])
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_z1_masks_keep_the_steps_other_factors(self):
        cfg, g = arm_config(dropout_keep=0.8), graph(3)
        draws = sample_step_masks(cfg, arm_params(cfg, 3), g,
                                  np.random.default_rng(3), mode="train")
        z1 = arm_z1(draws.arm)
        masks = arm_masks(draws, g, z1)
        for (l, spec, _), z in zip(draws.arm_layers, z1):
            assert masks[l].feature is draws.layer_masks[l].feature
            want = keep_values(g.edges, spec, z, free_positions(
                g.edges, spec.symmetric, spec.protect_self_loops))
            assert mask_values(masks[l].edge).tobytes() == want.tobytes()
        # Z1 and Z2 share the uniforms but are different settings.
        assert any(not np.array_equal(mask_values(a.edge), mask_values(b.edge))
                   for a, b in zip(masks, draws.layer_masks))

    @pytest.mark.parametrize("estimator", ["none", "concrete", "arm"])
    def test_every_edge_layer_gets_its_mask(self, estimator):
        learned = estimator != "none"
        masks = [MaskSpec(kind=MaskKind.GDC, learned=learned, n_blocks=2,
                          keep_prob=0.5, relaxed=estimator == "concrete"),
                 MaskSpec(kind=MaskKind.DROPEDGE, keep_prob=0.5),
                 MaskSpec(kind=MaskKind.DROPEDGE, learned=learned,
                          keep_prob=0.5, symmetric=True,
                          relaxed=estimator == "concrete")]
        cfg = GCNConfig(layer_dims=[6, 5, 4, 3], masks=masks,
                        estimator=estimator)
        params = init_params(cfg, np.random.default_rng(0))
        draws = sample_step_masks(cfg, params, graph(),
                                  np.random.default_rng(1), tape=Tape(),
                                  mode="train")
        for spec, lm in zip(cfg.masks, draws.layer_masks):
            assert lm.edge is not None
            assert lm.edge.n_blocks == spec.n_blocks
        assert (draws.arm is None) == (estimator != "arm")

    def test_other_modes_draw_no_arm_uniforms(self):
        cfg = arm_config()
        params = arm_params(cfg, 0)
        for mode, rng in (("mc", np.random.default_rng(0)), ("det", None)):
            draws = sample_step_masks(cfg, params, graph(), rng, mode=mode)
            assert draws.arm is None and draws.arm_layers == []
            assert all(lm.edge is not None for lm in draws.layer_masks)


class TestExpectedKeep:
    @pytest.mark.parametrize("sparse_x", [False, True])
    @pytest.mark.parametrize("kind, dropout_keep, want", [
        (MaskKind.DROPOUT, None, 0.6),
        (MaskKind.DROPOUT, 0.8, 0.6 * 0.8),
        (MaskKind.NODE_SAMPLING, None, 0.6),
        (MaskKind.NODE_SAMPLING, 0.8, 0.6 * 0.8),
        (MaskKind.DROPEDGE, 0.8, 0.8),
    ])
    def test_det_feature_equals_a_scaled_input(self, kind, dropout_keep,
                                               want, sparse_x):
        # The deterministic pass's feature factor is a float, applied as a
        # drawn mask is; it equals scaling the input first, bit for bit.
        g = graph(4)
        cfg = GCNConfig(layer_dims=[6, 3], masks=[MaskSpec(
            kind=kind, keep_prob=0.6, dropout_keep=dropout_keep)])
        rng = np.random.default_rng(4)
        params = init_params(cfg, rng)
        lm = sample_step_masks(cfg, params, g, mode="det").layer_masks[0]
        assert isinstance(lm.feature, float) and lm.feature == want
        x = rng.random((N, 6))
        x[x < 0.4] = 0.0
        labels = np.arange(N) % 3

        def run(inp, masks):
            inp = sparse_input(constant(inp)) if sparse_x else constant(inp)
            tape = Tape()
            lp = forward(params, inp, g, masks, tape=tape)
            grads = backward(tape, record_masked_nll(tape, lp, labels,
                                                     np.arange(N)))
            return lp.data, grads.get(params[0].m)

        got = run(x, [lm])
        scaled = run(want * x, [dataclasses.replace(lm, feature=None)])
        for a, b in zip(got, scaled):
            assert a.tobytes() == b.tobytes()


class TestBooleanMasks:
    def test_samplers_return_booleans(self):
        rng = np.random.default_rng(0)
        assert sample_dropout_mask(4, 3, 0.5, rng).dtype == np.bool_
        assert sample_node_mask(5, 0.5, rng).dtype == np.bool_

    @pytest.mark.parametrize("mode", ["train", "mc"])
    @pytest.mark.parametrize("input_nnz", [None, 17])
    @pytest.mark.parametrize("kind", [MaskKind.DROPOUT,
                                      MaskKind.NODE_SAMPLING,
                                      MaskKind.DROPEDGE])
    def test_step_feature_masks_are_boolean(self, kind, input_nnz, mode):
        masks = [MaskSpec(kind=kind, keep_prob=0.5, dropout_keep=0.7),
                 MaskSpec(kind=kind, keep_prob=0.5)]
        cfg = GCNConfig(layer_dims=[6, 5, 3], masks=masks)
        params = init_params(cfg, np.random.default_rng(0))
        draws = sample_step_masks(cfg, params, graph(),
                                  np.random.default_rng(2), mode=mode,
                                  input_nnz=input_nnz)
        for l, lm in enumerate(draws.layer_masks):
            if kind == MaskKind.DROPEDGE and l == 1:
                assert lm.feature is None
            else:
                assert lm.feature.dtype == np.bool_
