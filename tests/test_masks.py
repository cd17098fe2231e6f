"""Samplers: trivial cases, empirical rates, structural properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, logit

from gdcn.errors import ContractViolation
from gdcn.graph import EdgeSet, build_adjacency, normalize
from gdcn.masks import (EdgeMask, MaskKind, MaskSpec, concrete_mask,
                        expected_keep_mask, free_entries, keep_mask,
                        sample_concrete_mask, sample_dropedge_mask,
                        sample_dropout_mask, sample_gdc_masks,
                        sample_node_mask, sample_randomwalk_mask)
from gdcn.tape import (Tape, backward, constant, parameter,
                       record_frobenius_sq)

from conftest import (finite_diff, mask_values, masked_aggregate, random_edges,
                      rel_err)


def edge_set(n=5, seed=0, p=0.6):
    rng = np.random.default_rng(seed)
    return EdgeSet.from_sparse(normalize(build_adjacency(random_edges(rng, n, p), n)))


def dropedge(**flags):
    return MaskSpec(kind=MaskKind.DROPEDGE, **flags)


def gdc(n_blocks, **flags):
    return MaskSpec(kind=MaskKind.GDC, n_blocks=n_blocks, **flags)


class TestDropout:
    def test_keep_one_all_ones(self):
        m = sample_dropout_mask(4, 3, 1.0, np.random.default_rng(0))
        np.testing.assert_array_equal(m, np.ones((4, 3)))

    def test_keep_zero_all_zeros(self):
        m = sample_dropout_mask(4, 3, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(m, np.zeros((4, 3)))

    def test_empirical_mean(self):
        m = sample_dropout_mask(1000, 1000, 0.7, np.random.default_rng(1))
        assert m.mean() == pytest.approx(0.7, abs=0.002)

    def test_range_check(self):
        with pytest.raises(ContractViolation):
            sample_dropout_mask(2, 2, 1.5, np.random.default_rng(0))


class TestDropEdge:
    def test_keep_one(self):
        es = edge_set()
        m = sample_dropedge_mask(es, dropedge(), 1.0, np.random.default_rng(0))
        np.testing.assert_array_equal(mask_values(m), np.ones((1, es.n_entries)))

    def test_symmetric_mirrors(self):
        es = edge_set(8, seed=2)
        m = sample_dropedge_mask(es, dropedge(symmetric=True), 0.5,
                                 np.random.default_rng(3))
        vals = mask_values(m)[0]
        np.testing.assert_array_equal(vals, vals[es.mirror])

    def test_empirical_rate(self):
        es = edge_set(300, seed=5, p=0.15)
        rng = np.random.default_rng(7)
        kept = []
        canonical = es.canonical()
        while sum(len(k) for k in kept) < 100000:
            m = sample_dropedge_mask(es, dropedge(symmetric=True), 0.8, rng)
            kept.append(mask_values(m)[0][canonical])
        frac = np.concatenate(kept).mean()
        assert frac == pytest.approx(0.8, abs=0.01)

    def test_protect_self_loops(self):
        es = edge_set(6, seed=4)
        m = sample_dropedge_mask(es, dropedge(protect_self_loops=True), 0.0,
                                 np.random.default_rng(0))
        vals = mask_values(m)[0]
        assert np.all(vals[es.is_diag] == 1.0)
        assert np.all(vals[~es.is_diag] == 0.0)


class TestNodeMask:
    def test_keep_one(self):
        z = sample_node_mask(5, 1.0, np.random.default_rng(0))
        np.testing.assert_array_equal(z, np.ones(5))

    def test_empirical(self):
        z = sample_node_mask(10 ** 6, 0.7, np.random.default_rng(2))
        assert z.mean() == pytest.approx(0.7, abs=0.002)


class TestGdc:
    def test_single_block_equals_dropedge_same_stream(self):
        es = edge_set(7, seed=9)
        m1 = sample_gdc_masks(es, gdc(1, symmetric=True), 0.6,
                              np.random.default_rng(11))
        m2 = sample_dropedge_mask(es, dropedge(symmetric=True), 0.6,
                                  np.random.default_rng(11))
        np.testing.assert_array_equal(mask_values(m1), mask_values(m2))

    def test_blocks_are_independent_draws(self):
        es = edge_set(30, seed=1, p=0.3)
        m = sample_gdc_masks(es, gdc(2), 0.5, np.random.default_rng(0))
        assert m.n_blocks == 2
        assert not np.array_equal(mask_values(m)[0], mask_values(m)[1])

    def test_bad_block_count(self):
        # The spec a sampler takes carries the block count, and checks it.
        with pytest.raises(ContractViolation, match="n_blocks must be >= 1"):
            gdc(0)

    @settings(max_examples=10, deadline=None)
    @given(st.floats(0.1, 0.9), st.integers(0, 10 ** 6))
    def test_empirical_rate_within_binomial_bound(self, keep, seed):
        es = edge_set(40, seed=3, p=0.2)
        rng = np.random.default_rng(seed)
        m = sample_gdc_masks(es, gdc(4), keep, rng)
        vals = mask_values(m)
        n = vals.size
        bound = 4.0 * np.sqrt(keep * (1.0 - keep) / n)
        assert abs(vals.mean() - keep) < bound


def ones_mask(es):
    """A one-block mask that keeps every entry."""
    return EdgeMask(blocks=[constant(np.ones(es.n_entries))])


class TestRandomWalk:
    def test_prev_all_ones_matches_dropedge_stream(self):
        es = edge_set(6, seed=6)
        prev = ones_mask(es)
        m1 = sample_randomwalk_mask(es, 0.5, prev, np.random.default_rng(5))
        m2 = sample_dropedge_mask(es, dropedge(), 0.5, np.random.default_rng(5))
        np.testing.assert_array_equal(mask_values(m1), mask_values(m2))

    @pytest.mark.parametrize("keep", [0.0, 0.3, 0.9, 1.0])
    @pytest.mark.parametrize("seed", [0, 6])
    def test_first_layer_prev_none_equals_all_ones_gating(self, keep, seed):
        # A first random-walk layer gates nothing: prev=None draws, bit for
        # bit, what gating by an all-ones previous mask drew.
        es = edge_set(7, seed=seed, p=0.3)
        got = sample_randomwalk_mask(es, keep, None,
                                     np.random.default_rng(seed))
        want = sample_randomwalk_mask(es, keep, ones_mask(es),
                                      np.random.default_rng(seed))
        assert mask_values(got).tobytes() == mask_values(want).tobytes()

    def test_prev_all_zeros_gives_zeros(self):
        es = edge_set(6, seed=6)
        prev = expected_keep_mask(es, MaskSpec(kind=MaskKind.RANDOM_WALK), 0.0)
        m = sample_randomwalk_mask(es, 0.9, prev, np.random.default_rng(5))
        np.testing.assert_array_equal(mask_values(m), np.zeros((1, es.n_entries)))

    def test_isolated_node_rows_forced_zero(self):
        # 4-node chain; previous layer isolated node 2 (no incoming kept)
        es = EdgeSet.from_sparse(normalize(build_adjacency(
            [(0, 1), (1, 2), (2, 3)], 4)))
        prev_vals = np.ones(es.n_entries)
        prev_vals[es.rows == 2] = 0.0
        prev = EdgeMask(blocks=[constant(prev_vals)])
        rng = np.random.default_rng(1)
        m = sample_randomwalk_mask(es, 1.0, prev, rng)
        vals = mask_values(m)[0]
        # direct indicator oracle: row v alive iff sum of prev over row v > 0
        alive = np.array([prev_vals[es.rows == v].sum() > 0 for v in range(4)])
        np.testing.assert_array_equal(vals, alive[es.rows].astype(float))
        assert np.all(vals[es.rows == 2] == 0.0)


class TestExpectedKeep:
    @pytest.mark.parametrize("protect", [False, True])
    def test_one_block_at_the_keep_value(self, protect):
        # One block for every layer kind: a GDC layer's blocks would all
        # hold these values.
        es = edge_set(6, seed=2)
        m = expected_keep_mask(es, gdc(3, protect_self_loops=protect), 0.3)
        assert m.n_blocks == 1
        want = np.where(es.is_diag, 1.0, 0.3) if protect else np.full(
            es.n_entries, 0.3)
        np.testing.assert_array_equal(mask_values(m), want[None, :])


class TestConcrete:
    def test_pi_half_is_identity_in_u(self):
        # paper-literal placement: logit(0.5)=0 makes z = u exactly
        u = np.random.default_rng(3).random(1000)
        z, _ = concrete_mask(0.5, u, 0.67)
        np.testing.assert_allclose(z, u, atol=1e-15)

    def test_pi_half_not_identity_under_standard(self):
        u = np.random.default_rng(3).random(1000)
        z, _ = concrete_mask(0.5, u, 0.67, standard=True)
        assert np.max(np.abs(z - u)) > 0.01

    def test_mean_at_half(self):
        u = np.random.default_rng(11).random(100000)
        z, _ = concrete_mask(0.5, u, 0.67)
        assert z.mean() == pytest.approx(0.5, abs=0.005)

    def test_temperature_placement_saturation(self):
        # frozen from an empirical oracle run: at t=0.01, pi=0.9 BOTH variants
        # saturate nearly all draws to within 1e-3 of {0,1} (the tempered
        # term dominates either way): literal 1.0000, standard 0.9872.
        u = np.random.default_rng(0).random(100000)
        lit = expit(logit(0.9) / 0.01 + logit(u))
        std = expit((logit(0.9) + logit(u)) / 0.01)
        near = lambda z: np.mean((z < 1e-3) | (z > 1.0 - 1e-3))
        got_lit = concrete_mask(0.9, u, 0.01)[0]
        got_std = concrete_mask(0.9, u, 0.01, standard=True)[0]
        np.testing.assert_allclose(got_lit, lit, atol=1e-12)
        np.testing.assert_allclose(got_std, std, atol=1e-12)
        assert near(got_lit) == pytest.approx(1.0, abs=1e-3)
        assert near(got_std) == pytest.approx(0.9872, abs=2e-3)

    @pytest.mark.parametrize("standard", [False, True])
    def test_tangent_matches_finite_differences(self, standard):
        # Protected self-loops (tangent 0) are test_free_entries' to check.
        u = np.random.default_rng(6).random(50)
        _, tangent = concrete_mask(0.3, u, 0.67, standard=standard)
        fd = np.array([finite_diff(
            lambda p: concrete_mask(p[0], u, 0.67, standard=standard)[0][i],
            np.array([0.3]))[0] for i in range(50)])
        assert rel_err(tangent, fd) < 1e-6

    def test_boundary_pi_rejected(self):
        with pytest.raises(ContractViolation):
            concrete_mask(1.0, np.array([0.5]), 0.67)

    def test_gradient_reaches_pi(self):
        rng = np.random.default_rng(2)
        a = normalize(build_adjacency(random_edges(rng, 4, 0.6), 4))
        es = EdgeSet.from_sparse(a)
        t = Tape()
        pi = parameter(0.6)
        mask = sample_concrete_mask(es, gdc(2), pi, np.random.default_rng(0))
        assert mask.pi is pi and mask.n_blocks == len(mask.tangents) == 2
        assert not any(b.requires_grad for b in mask.blocks) and not t.records
        out = masked_aggregate(t, a, mask.blocks,
                               constant(rng.normal(size=(4, 2))),
                               constant(np.eye(2)), pi=mask.pi,
                               tangents=mask.tangents)
        g = backward(t, record_frobenius_sq(t, out)).get(pi)
        assert g[0, 0] != 0.0

    def test_symmetric_noise_sharing(self):
        es = edge_set(6, seed=8)
        mask = sample_concrete_mask(es, gdc(1, symmetric=True), constant(0.7),
                                    np.random.default_rng(4))
        vals = mask_values(mask)[0]
        np.testing.assert_allclose(vals, vals[es.mirror], atol=1e-15)
        np.testing.assert_array_equal(mask.tangents[0],
                                      mask.tangents[0][es.mirror])

    def test_protected_self_loops_fixed_at_one(self):
        es = edge_set(5, seed=1)
        pi = parameter(0.3)
        mask = sample_concrete_mask(es, gdc(1, protect_self_loops=True), pi,
                                    np.random.default_rng(2))
        vals = mask_values(mask)[0]
        assert np.all(vals[es.is_diag] == 1.0)
        assert np.all(mask.tangents[0][es.is_diag] == 0.0)
        assert np.all(mask.tangents[0][~es.is_diag] > 0.0)


class TestArmMask:
    def test_symmetric_protected_blocks(self):
        es = edge_set(7, seed=4)
        spec = MaskSpec(kind=MaskKind.GDC, learned=True, n_blocks=2,
                        symmetric=True, protect_self_loops=True)
        free = free_entries(es, spec)
        np.testing.assert_array_equal(
            free, np.flatnonzero(es.rows < es.cols))
        rng = np.random.default_rng(5)
        z = (rng.random(2 * len(free)) < 0.5).astype(np.float64)
        vals = mask_values(keep_mask(es, free, 1.0 - z.reshape(2, -1)))
        np.testing.assert_array_equal(vals[:, free], 1.0 - z.reshape(2, -1))
        np.testing.assert_array_equal(vals, vals[:, es.mirror])
        assert np.all(vals[:, es.is_diag] == 1.0)


class TestMaskSpec:
    def test_learned_requires_edge_kind(self):
        with pytest.raises(ContractViolation):
            MaskSpec(kind=MaskKind.DROPOUT, learned=True)

    def test_temperature_validation(self):
        with pytest.raises(ContractViolation):
            MaskSpec(kind=MaskKind.GDC, relaxed=True, temperature=0.0)

    def test_nan_temperature_rejected(self):
        with pytest.raises(ContractViolation):
            MaskSpec(kind=MaskKind.GDC, relaxed=True, temperature=float("nan"))

    def test_blocks_require_gdc_kind(self):
        for kind in MaskKind:
            if kind != MaskKind.GDC:
                assert MaskSpec(kind=kind, n_blocks=1).n_blocks == 1
                with pytest.raises(ContractViolation, match="needs kind gdc"):
                    MaskSpec(kind=kind, n_blocks=2)
        assert MaskSpec(kind=MaskKind.GDC, n_blocks=2).n_blocks == 2

    @pytest.mark.parametrize("flag", ["symmetric", "protect_self_loops"])
    @pytest.mark.parametrize("kind", [MaskKind.NONE, MaskKind.DROPOUT,
                                      MaskKind.NODE_SAMPLING,
                                      MaskKind.RANDOM_WALK])
    def test_edge_flags_rejected_where_unread(self, kind, flag):
        # These kinds' masks are byte-equal with and without the flag.
        with pytest.raises(ContractViolation,
                           match=f"{flag} applies to dropedge/gdc masks "
                                 f"only, got {kind.value}"):
            MaskSpec(kind=kind, **{flag: True})

    @pytest.mark.parametrize("kind", [MaskKind.DROPEDGE, MaskKind.GDC])
    def test_edge_flags_accepted_on_edge_kinds(self, kind):
        spec = MaskSpec(kind=kind, symmetric=True, protect_self_loops=True)
        assert spec.symmetric and spec.protect_self_loops
