"""One rule for the entries an edge mask draws.

A symmetric mask draws one value per undirected edge and a protected
self-loop draws none (``free_entries``); every other entry follows from
those. GDC, DropEdge, concrete, ARM's Z1/Z2 and the deterministic masks all
keep that rule, and a spec with neither flag draws one uniform per entry,
block after block, as the samplers always have.
"""

import numpy as np
import pytest

from gdcn.estimators import arm_z1
from gdcn.masks import (MaskKind, MaskSpec, concrete_mask, expected_keep_mask,
                        free_entries, sample_concrete_mask,
                        sample_dropedge_mask, sample_gdc_masks)
from gdcn.model import (GCNConfig, PreparedGraph, arm_masks, init_params,
                        sample_step_masks)
from gdcn.tape import Tape

from conftest import free_positions, kuma_draw, mask_values, random_edges

N = 11
FLAGS = [dict(symmetric=s, protect_self_loops=p)
         for s in (False, True) for p in (False, True)]
FLAG_IDS = ["plain", "protected", "symmetric", "symmetric-protected"]


def graph(seed=0):
    return PreparedGraph.from_edges(
        random_edges(np.random.default_rng(seed), N, 0.35), N)


def check_rule(edges, flags, blocks, fill=1.0):
    """Mirrored entries equal their mirror; protected self-loops hold
    ``fill`` (one row per block)."""
    if flags["symmetric"]:
        np.testing.assert_array_equal(blocks, blocks[:, edges.mirror])
    if flags["protect_self_loops"]:
        assert np.all(blocks[:, edges.is_diag] == fill)


def advanced_by(rng, seed, n):
    """Whether ``rng`` (seeded ``seed``) has drawn exactly n uniforms."""
    ref = np.random.default_rng(seed)
    ref.random(n)
    return rng.bit_generator.state == ref.bit_generator.state


class TestFreeEntries:
    @pytest.mark.parametrize("flags", FLAGS, ids=FLAG_IDS)
    def test_positions(self, flags):
        edges = graph(1).edges
        got = free_entries(edges, MaskSpec(kind=MaskKind.GDC, **flags))
        if not any(flags.values()):
            assert got is None  # every entry; no index array
        else:
            np.testing.assert_array_equal(got, free_positions(edges, **flags))


class TestUnflaggedStream:
    """Without flags, block b is drawn from ``rng.random(nnz)``, in block
    order, bit for bit as before the samplers shared one rule."""

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("n_blocks", [1, 3])
    def test_binary(self, seed, n_blocks):
        edges = graph(seed).edges
        rng = np.random.default_rng(seed)
        got = sample_gdc_masks(
            edges, MaskSpec(kind=MaskKind.GDC, n_blocks=n_blocks), 0.4, rng)
        ref = np.random.default_rng(seed)
        want = [(ref.random(edges.n_entries) < 0.4).astype(np.float64)
                for _ in range(n_blocks)]
        assert mask_values(got).tobytes() == np.stack(want).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("standard", [False, True])
    @pytest.mark.parametrize("n_blocks", [1, 3])
    def test_concrete(self, n_blocks, standard):
        edges = graph(2).edges
        rng = np.random.default_rng(5)
        got = sample_concrete_mask(
            edges, MaskSpec(kind=MaskKind.GDC, n_blocks=n_blocks,
                            temperature=0.5), 0.7, rng, standard=standard)
        ref = np.random.default_rng(5)
        for b in range(n_blocks):
            z, tangent = concrete_mask(0.7, ref.random(edges.n_entries), 0.5,
                                       standard=standard)
            assert got.blocks[b].data.ravel().tobytes() == z.tobytes()
            assert got.tangents[b].tobytes() == tangent.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("flags", FLAGS, ids=FLAG_IDS)
class TestSharedRule:
    """For every flag combination and mask: the rng advances by exactly
    ``n_blocks * len(free)``, the values at the free positions are those
    draws, and the rule fills in the rest."""

    @pytest.mark.parametrize("kind, n_blocks", [(MaskKind.GDC, 3),
                                                (MaskKind.DROPEDGE, 1)])
    def test_binary(self, flags, kind, n_blocks):
        edges = graph(4).edges
        spec = MaskSpec(kind=kind, n_blocks=n_blocks, **flags)
        sampler = (sample_gdc_masks if kind == MaskKind.GDC
                   else sample_dropedge_mask)
        rng = np.random.default_rng(9)
        vals = mask_values(sampler(edges, spec, 0.5, rng))
        free = free_positions(edges, **flags)
        assert advanced_by(rng, 9, n_blocks * len(free))
        u = np.random.default_rng(9).random((n_blocks, len(free)))
        np.testing.assert_array_equal(vals[:, free], u < 0.5)
        check_rule(edges, flags, vals)

    def test_concrete(self, flags):
        edges = graph(5).edges
        spec = MaskSpec(kind=MaskKind.GDC, n_blocks=2, **flags)
        rng = np.random.default_rng(6)
        mask = sample_concrete_mask(edges, spec, 0.3, rng)
        free = free_positions(edges, **flags)
        assert advanced_by(rng, 6, 2 * len(free))
        u = np.random.default_rng(6).random((2, len(free)))
        vals, tangents = mask_values(mask), np.stack(mask.tangents)
        for b in range(2):
            z, tangent = concrete_mask(0.3, u[b], spec.temperature)
            np.testing.assert_array_equal(vals[b, free], z)
            np.testing.assert_array_equal(tangents[b, free], tangent)
        check_rule(edges, flags, vals)
        check_rule(edges, flags, tangents, fill=0.0)

    def test_arm(self, flags):
        g = graph(6)
        spec = MaskSpec(kind=MaskKind.GDC, learned=True, n_blocks=2, **flags)
        cfg = GCNConfig(layer_dims=[4, 3], masks=[spec], estimator="arm")
        params = init_params(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(8)
        draws = sample_step_masks(cfg, params, g, rng, tape=Tape(),
                                  mode="train")
        free = free_positions(g.edges, **flags)
        # One Kumaraswamy uniform for the layer's keep probability, then
        # ARM's uniforms.
        assert advanced_by(rng, 8, 1 + 2 * len(free))
        ref = np.random.default_rng(8)
        kp = params[0].kuma
        assert draws.pi_tensors[0].item() == kuma_draw(
            kp.log_a.item(), kp.log_b.item(), float(ref.random()))
        assert draws.arm.u[0].tobytes() == ref.random(2 * len(free)).tobytes()
        z2 = draws.layer_masks[0]
        z1 = arm_masks(draws, g, arm_z1(draws.arm))[0]
        for setting in (z1, z2):
            vals = mask_values(setting.edge)
            assert set(np.unique(vals)) <= {0.0, 1.0}
            check_rule(g.edges, flags, vals)
        np.testing.assert_array_equal(
            mask_values(z1.edge)[:, free],
            1.0 - arm_z1(draws.arm)[0].reshape(2, -1))

    def test_deterministic(self, flags):
        edges = graph(7).edges
        vals = mask_values(expected_keep_mask(
            edges, MaskSpec(kind=MaskKind.GDC, n_blocks=3, **flags), 0.4))
        assert vals.shape == (1, edges.n_entries)
        free = free_positions(edges, **flags)
        assert np.all(vals[:, free] == 0.4)
        check_rule(edges, flags, vals)
        if not flags["protect_self_loops"]:
            assert np.all(vals == 0.4)
