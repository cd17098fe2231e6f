"""Forward pass against dense oracles of all regularizer forms."""

import dataclasses

import numpy as np
import pytest

from gdcn.errors import ContractViolation
from gdcn.graph import EdgeSet, build_adjacency, normalize
from gdcn.masks import (EdgeMask, MaskKind, MaskSpec, expected_keep_mask,
                        sample_dropedge_mask, sample_dropout_mask,
                        sample_gdc_masks, sample_node_mask)
from gdcn.model import (GCNConfig, LayerMasks, PreparedGraph, float32_operands,
                        forward, forward_deterministic, glorot_bound,
                        init_params, layer0_blocks, predict_mc,
                        record_kl_terms, sample_step_masks, sparse_input,
                        training_loss)
from gdcn.tape import (BlockProducts, Tape, backward, block_bounds,
                       block_input, constant)
from gdcn.variational import kl_kuma_beta

from conftest import (dense_normalize, finite_diff, float64_params,
                      mask_values, random_edges, rel_err)


def prepared(n=5, seed=0, p=0.6):
    rng = np.random.default_rng(seed)
    return PreparedGraph.from_edges(random_edges(rng, n, p), n)


def renormalizing(masks: list) -> list:
    """``masks`` with every layer renormalizing its masked adjacency."""
    return [dataclasses.replace(lm, renormalize=True) for lm in masks]


def dense_mask(es: EdgeSet, vals: np.ndarray) -> np.ndarray:
    out = np.zeros((es.n, es.n))
    out[es.rows, es.cols] = vals
    return out


def log_softmax(x):
    s = x - x.max(axis=1, keepdims=True)
    return s - np.log(np.exp(s).sum(axis=1, keepdims=True))


def plain_config(dims, kind=MaskKind.NONE, **mask_kw):
    masks = [MaskSpec(kind=kind, **mask_kw) for _ in range(len(dims) - 1)]
    return GCNConfig(layer_dims=dims, masks=masks)


class TestPreparedGraph:
    def test_from_edges_builds_the_edge_set_once(self, monkeypatch):
        real = EdgeSet.from_sparse
        built = []

        def counting(a):
            built.append(a)
            return real(a)

        monkeypatch.setattr(EdgeSet, "from_sparse", counting)
        edges = np.array(random_edges(np.random.default_rng(4), 9, 0.4))
        g = PreparedGraph.from_edges(edges, 9)
        assert len(built) == 1
        fresh = real(g.a_norm)
        for name in ("rows", "cols", "mirror", "is_diag"):
            assert np.array_equal(getattr(g.edges, name), getattr(fresh, name))
        np.testing.assert_array_equal(g.a_norm.toarray(),
                                      normalize(g.a_raw).toarray())


class TestInitParams:
    def test_deterministic(self):
        cfg = plain_config([4, 8, 3])
        p1 = init_params(cfg, np.random.default_rng(5))
        p2 = init_params(cfg, np.random.default_rng(5))
        for a, b in zip(p1, p2):
            assert np.array_equal(a.m.data, b.m.data)

    def test_glorot_bound_value(self):
        assert glorot_bound(128, 7) == pytest.approx(0.2108, abs=1e-4)

    def test_weights_within_bound_and_centered(self):
        cfg = plain_config([300, 350, 3])
        params = init_params(cfg, np.random.default_rng(0))
        w = params[0].m.data
        bound = glorot_bound(300, 350)
        assert np.all(np.abs(w) <= bound)
        # mean of U(-b, b) over N draws: 0 +/- 3 * (b/sqrt(3)) / sqrt(N)
        n = w.size
        assert abs(w.mean()) < 3.0 * bound / np.sqrt(3.0) / np.sqrt(n)


class TestForwardOracles:
    def _params(self, dims, seed=1):
        cfg = plain_config(dims)
        return cfg, init_params(cfg, np.random.default_rng(seed))

    def test_all_ones_single_block_equals_plain_gcn(self):
        g = prepared(5, seed=3)
        cfg, params = self._params([4, 6, 3])
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 4))
        masks = [LayerMasks() for _ in range(2)]
        got = forward(params, constant(x), g, masks).data
        a = g.a_norm.toarray()
        h1 = np.maximum(a @ x @ params[0].m.data, 0.0)
        want = log_softmax(a @ h1 @ params[1].m.data)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_two_equal_blocks_match_single_block(self):
        g = prepared(5, seed=4)
        cfg, params = self._params([4, 6, 3])
        rng = np.random.default_rng(7)
        x = constant(rng.normal(size=(5, 4)))
        vals = (rng.random(g.edges.n_entries) < 0.7).astype(np.float64)
        one = [LayerMasks(edge=EdgeMask(blocks=[constant(vals)])),
               LayerMasks()]
        two = [LayerMasks(edge=EdgeMask(blocks=[constant(vals), constant(vals)])),
               LayerMasks()]
        np.testing.assert_allclose(forward(params, x, g, one).data,
                                   forward(params, x, g, two).data, atol=1e-12)

    def test_gdc_blocks_match_dense_block_oracle(self):
        """Forward equals the dense per-block sum of the masked aggregation."""
        g = prepared(4, seed=5, p=0.8)
        cfg, params = self._params([4, 3, 2], seed=9)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 4))
        em = sample_gdc_masks(g.edges, MaskSpec(kind=MaskKind.GDC, n_blocks=2),
                              0.6, rng)
        masks = [LayerMasks(edge=em), LayerMasks()]
        got = forward(params, constant(x), g, masks).data

        a = g.a_norm.toarray()
        w = params[0].m.data
        pre = np.zeros((4, 3))
        for b, (c0, c1) in enumerate(block_bounds(4, 2)):
            masked = a * dense_mask(g.edges, mask_values(em)[b])
            pre += masked @ x[:, c0:c1] @ w[c0:c1, :]
        h1 = np.maximum(pre, 0.0)
        want = log_softmax(a @ h1 @ params[1].m.data)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_dropout_mode_matches_dense_eq1_oracle(self):
        g = prepared(4, seed=6, p=0.9)
        cfg, params = self._params([3, 5, 2], seed=3)
        rng = np.random.default_rng(13)
        x = rng.normal(size=(4, 3))
        z0 = sample_dropout_mask(4, 3, 0.5, rng)
        z1 = sample_dropout_mask(4, 5, 0.5, rng)
        masks = [LayerMasks(feature=z0),
                 LayerMasks(feature=z1)]
        got = forward(params, constant(x), g, masks).data
        a = g.a_norm.toarray()
        h1 = np.maximum(a @ (z0 * x) @ params[0].m.data, 0.0)
        want = log_softmax(a @ (z1 * h1) @ params[1].m.data)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_node_mask_matches_dense_eq3_oracle(self):
        g = prepared(5, seed=7)
        cfg, params = self._params([3, 4, 2], seed=5)
        rng = np.random.default_rng(17)
        x = rng.normal(size=(5, 3))
        z = sample_node_mask(5, 0.5, rng)
        masks = [LayerMasks(feature=z.reshape(-1, 1)),
                 LayerMasks()]
        got = forward(params, constant(x), g, masks).data
        a = g.a_norm.toarray()
        h1 = np.maximum(a @ np.diag(z) @ x @ params[0].m.data, 0.0)
        want = log_softmax(a @ h1 @ params[1].m.data)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_renorm_after_mask_matches_literal_eq2_oracle(self):
        """Renormalize-after-mask equals N(A ⊙ Z) H W on a dense oracle."""
        g = prepared(5, seed=8, p=0.7)
        cfg, params = self._params([3, 4, 2], seed=7)
        rng = np.random.default_rng(19)
        x = rng.normal(size=(5, 3))
        # symmetric binary mask on the edge set
        vals = np.ones(g.edges.n_entries)
        can = g.edges.canonical() & ~g.edges.is_diag
        draws = (rng.random(int(can.sum())) < 0.6).astype(np.float64)
        vals[np.flatnonzero(can)] = draws
        idx = np.flatnonzero(~g.edges.canonical())
        vals[idx] = vals[g.edges.mirror[idx]]
        em = EdgeMask(blocks=[constant(vals)])
        masks = [LayerMasks(edge=em), LayerMasks()]
        got = forward(params, constant(x), g, renormalizing(masks)).data

        a_raw = g.a_raw.toarray()
        z_off = dense_mask(g.edges, vals) * (1 - np.eye(5))
        renormed = dense_normalize(a_raw * z_off)
        h1 = np.maximum(renormed @ x @ params[0].m.data, 0.0)
        a = dense_normalize(a_raw)
        want = log_softmax(a @ h1 @ params[1].m.data)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_renorm_after_mask_with_renorm_trick_matches_eq2_oracle(self):
        """With ``renorm_trick``, the masked raw adjacency is renormalized
        as D~^{-1/2} (A ⊙ Z + I) D~^{-1/2}, the graph's own normalization."""
        rng = np.random.default_rng(21)
        g = PreparedGraph.from_edges(random_edges(rng, 6, 0.7), 6,
                                     renorm_trick=True)
        cfg, params = self._params([3, 4, 2], seed=7)
        x = rng.normal(size=(6, 3))
        can = np.flatnonzero(g.edges.canonical() & ~g.edges.is_diag)
        vals = np.ones(g.edges.n_entries)
        vals[can] = (rng.random(len(can)) < 0.6).astype(np.float64)
        lower = ~g.edges.canonical()  # each mirror takes its edge's value
        vals[lower] = vals[g.edges.mirror[lower]]
        masks = [LayerMasks(edge=EdgeMask(blocks=[constant(vals)])),
                 LayerMasks()]
        got = forward(params, constant(x), g, renormalizing(masks)).data

        a_raw = g.a_raw.toarray()
        z_off = dense_mask(g.edges, vals) * (1 - np.eye(6))
        renormed = dense_normalize(a_raw * z_off, renorm_trick=True)
        h1 = np.maximum(renormed @ x @ params[0].m.data, 0.0)
        a = dense_normalize(a_raw, renorm_trick=True)
        want = log_softmax(a @ h1 @ params[1].m.data)
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("renorm_trick", [False, True])
    def test_renorm_after_mask_keep_one_changes_nothing(self, renorm_trick):
        """Renormalizing a mask that keeps every edge gives back the
        prepared matrix, whichever normalization the graph holds."""
        rng = np.random.default_rng(29)
        g = PreparedGraph.from_edges(random_edges(rng, 30, 0.2), 30,
                                     renorm_trick=renorm_trick)
        cfg, params = self._params([3, 4, 2], seed=7)
        x = constant(rng.normal(size=(30, 3)))
        keep = sample_dropedge_mask(
            g.edges, MaskSpec(kind=MaskKind.DROPEDGE, symmetric=True), 1.0, rng)
        masks = [LayerMasks(edge=keep), LayerMasks()]
        plain = forward(params, x, g, masks).data
        renormed = forward(params, x, g, renormalizing(masks)).data
        np.testing.assert_allclose(renormed, plain, atol=1e-12)


    @pytest.mark.parametrize("renorm", [False, True])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_no_edge_mask_equals_keep_one_mask(self, renorm, sparse):
        """``LayerMasks()`` aggregates with the adjacency's own entries: the
        values and gradients equal, bit for bit, a keep-everything mask."""
        g = prepared(7, seed=14, p=0.5)
        cfg, params = self._params([5, 6, 3], seed=4)
        x0 = np.random.default_rng(8).normal(size=(7, 5))
        x0[np.random.default_rng(9).random(x0.shape) < 0.4] = 0.0
        x = sparse_input(constant(x0)) if sparse else constant(x0)

        def run(masks):
            t = Tape()
            lp = forward(params, x, g, masks, tape=t)
            loss = training_loss(t, lp, np.arange(7) % 3, np.arange(7),
                                 params, [], 0.0, 0.0)
            grads = backward(t, loss)
            return [lp.data] + [grads.get(p.m) for p in params]

        ones = LayerMasks(edge=expected_keep_mask(
            g.edges, MaskSpec(kind=MaskKind.DROPEDGE), 1.0),
            renormalize=renorm)
        for got, want in zip(run([LayerMasks()] * 2), run([ones] * 2)):
            assert got.tobytes() == want.tobytes()


class TestParameterSpaceEquivalence:
    def test_edge_masks_equal_per_edge_weights(self):
        """Masked aggregation equals aggregating with diag(z_vu) W per edge.

        Run with one mask block per input feature so z_vu is a genuine
        per-feature vector.
        """
        n, f_in, f_out = 4, 3, 2
        g = prepared(n, seed=10, p=0.9)
        rng = np.random.default_rng(23)
        x = rng.normal(size=(n, f_in))
        w = rng.normal(size=(f_in, f_out))
        em = sample_gdc_masks(
            g.edges, MaskSpec(kind=MaskKind.GDC, n_blocks=f_in), 0.5, rng)

        cfg = plain_config([f_in, f_out])
        params = init_params(cfg, np.random.default_rng(0))
        params[0].m.data = w.copy()
        masks = [LayerMasks(edge=em)]
        got = forward(params, constant(x), g, masks).data  # head: log-softmax

        a = g.a_norm.toarray()
        vals = mask_values(em)
        pre = np.zeros((n, f_out))
        for v in range(n):
            for k in np.flatnonzero(g.edges.rows == v):
                u = g.edges.cols[k]
                z_vu = vals[:, k]  # per-feature mask row vector
                w_vu = np.diag(z_vu) @ w
                pre[v] += a[v, u] * (x[u] @ w_vu)
        want = log_softmax(pre)
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestBlocks:
    def test_partition_disjoint_exhaustive(self):
        for f in (1, 5, 8, 128, 1433):
            for nb in (1, 2, 3, 7):
                if nb > f:
                    continue
                bounds = block_bounds(f, nb)
                covered = []
                for c0, c1 in bounds:
                    covered.extend(range(c0, c1))
                assert covered == list(range(f))
                sizes = [c1 - c0 for c0, c1 in bounds]
                assert max(sizes) - min(sizes) <= 1

    def test_block_count_exceeding_width_rejected(self):
        with pytest.raises(ContractViolation):
            plain_config([2, 4, 2], kind=MaskKind.GDC, n_blocks=3)

    def test_renorm_after_mask_rejects_random_walk(self):
        masks = [MaskSpec(kind=MaskKind.RANDOM_WALK, keep_prob=0.5),
                 MaskSpec()]
        with pytest.raises(ContractViolation,
                           match="layer 0's randomwalk masks are not"):
            GCNConfig(layer_dims=[3, 4, 2], masks=masks,
                      renorm_after_mask=True)

    @pytest.mark.parametrize("kind", [MaskKind.DROPEDGE, MaskKind.GDC])
    def test_renorm_after_mask_names_the_asymmetric_kind(self, kind):
        masks = [MaskSpec(kind=kind, keep_prob=0.5, symmetric=True),
                 MaskSpec(kind=kind, keep_prob=0.5)]
        with pytest.raises(ContractViolation,
                           match=f"layer 1's {kind.value} masks are not"):
            GCNConfig(layer_dims=[3, 4, 2], masks=masks,
                      renorm_after_mask=True)

    @pytest.mark.parametrize("learned, estimator", [(True, "none"),
                                                    (False, "arm")])
    def test_estimator_needed_exactly_when_learned(self, learned, estimator):
        masks = [MaskSpec(kind=MaskKind.GDC, learned=learned)] * 2
        with pytest.raises(ContractViolation, match="estimator"):
            GCNConfig(layer_dims=[3, 4, 2], masks=masks, estimator=estimator)

    # Sampling relaxes exactly the learned layers under concrete, so a
    # layer's flag must say so in both directions.
    @pytest.mark.parametrize("estimator, learned, relaxed", [
        ("concrete", True, False),
        ("concrete", False, True),
        ("arm", True, True),
    ])
    def test_relaxed_must_match_what_the_layer_trains(self, estimator,
                                                      learned, relaxed):
        masks = [MaskSpec(kind=MaskKind.GDC, learned=True,
                          relaxed=estimator == "concrete"),
                 MaskSpec(kind=MaskKind.GDC, learned=learned, keep_prob=0.5,
                          relaxed=relaxed)]
        with pytest.raises(ContractViolation,
                           match=f"layer 1: relaxed={relaxed}, but"):
            GCNConfig(layer_dims=[3, 4, 2], masks=masks, estimator=estimator)
        masks[1] = dataclasses.replace(masks[1], relaxed=not relaxed)
        GCNConfig(layer_dims=[3, 4, 2], masks=masks, estimator=estimator)

    @pytest.mark.parametrize("key", ["beta_prior_c", "kuma_init_b"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    def test_prior_and_init_must_be_positive(self, key, value):
        masks = [MaskSpec(kind=MaskKind.NONE)] * 2
        with pytest.raises(ContractViolation, match=f"{key} must be > 0"):
            GCNConfig(layer_dims=[3, 4, 2], masks=masks, **{key: value})


class TestKeepProbOne:
    def test_every_sampler_reduces_to_plain_layer(self):
        g = prepared(5, seed=12)
        rng = np.random.default_rng(1)
        x = constant(rng.normal(size=(5, 4)))
        base_cfg = plain_config([4, 6, 3])
        params = init_params(base_cfg, np.random.default_rng(2))
        plain = forward(params, x, g,
                        [LayerMasks()] * 2).data
        for kind in (MaskKind.DROPOUT, MaskKind.DROPEDGE,
                     MaskKind.NODE_SAMPLING, MaskKind.GDC,
                     MaskKind.RANDOM_WALK):
            cfg = plain_config([4, 6, 3], kind=kind, keep_prob=1.0)
            draws = sample_step_masks(cfg, params, g,
                                      np.random.default_rng(3), mode="train")
            got = forward(params, x, g, draws.layer_masks).data
            assert np.array_equal(got, plain), kind


class TestTrainingLoss:
    def test_pure_nll_when_no_regularizers(self):
        g = prepared(4, seed=1)
        cfg = plain_config([3, 4, 2])
        params = init_params(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(5)
        x = constant(rng.normal(size=(4, 3)))
        labels = np.array([0, 1, 0, 1])
        observed = np.arange(4)
        t = Tape()
        lp = forward(params, x, g,
                     [LayerMasks()] * 2, tape=t)
        loss = training_loss(t, lp, labels, observed, params, [], 0.0, 0.0)
        want = -np.mean(lp.data[observed, labels[observed]])
        assert loss.item() == pytest.approx(want, abs=1e-15)

    def test_componentwise_sum(self):
        g = prepared(4, seed=2)
        masks = [MaskSpec(kind=MaskKind.GDC, learned=True, relaxed=True),
                 MaskSpec(kind=MaskKind.GDC, learned=True, relaxed=True)]
        cfg = GCNConfig(layer_dims=[3, 4, 2], masks=masks, estimator="concrete")
        params = init_params(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(5)
        x = constant(rng.normal(size=(4, 3)))
        labels = np.array([0, 1, 0, 1])
        observed = np.array([0, 2])
        t = Tape()
        draws = sample_step_masks(cfg, params, g, rng, tape=t, mode="train")
        lp = forward(params, x, g, draws.layer_masks, tape=t)
        kl_terms = record_kl_terms(t, cfg, params)
        l2, wf = 0.01, 0.35
        loss = training_loss(t, lp, labels, observed, params, kl_terms, l2, wf)
        nll = -np.mean(lp.data[observed, labels[observed]])
        # the penalty sums the float64 squares of the float32 weights
        fro = sum(np.sum(p.m.data.astype(np.float64) ** 2) for p in params)
        kl = sum(kl_kuma_beta(p.kuma.a, p.kuma.b, 2.0, 2) for p in params)
        assert loss.item() == pytest.approx(nll + l2 * fro + wf * kl, rel=1e-12)

    def test_zero_weights_uniform_head(self):
        g = prepared(4, seed=3)
        cfg = plain_config([3, 4, 2])
        params = init_params(cfg, np.random.default_rng(0))
        for p in params:
            p.m.data[:] = 0.0
        x = constant(np.random.default_rng(1).normal(size=(4, 3)))
        t = Tape()
        lp = forward(params, x, g,
                     [LayerMasks()] * 2, tape=t)
        loss = training_loss(t, lp, np.array([0, 1, 1, 0]), np.arange(4),
                             params, [], 0.0, 0.0)
        assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)


class TestBias:
    def test_bias_gradient_matches_finite_differences(self):
        g = prepared(5, seed=7)
        cfg = GCNConfig(layer_dims=[3, 4, 2], use_bias=True,
                        masks=[MaskSpec(), MaskSpec()])
        params = float64_params(init_params(cfg, np.random.default_rng(0)))
        rng = np.random.default_rng(1)
        x = constant(rng.normal(size=(5, 3)))
        labels = np.array([0, 1, 1, 0, 1])
        b0 = rng.normal(size=6)
        masks = [LayerMasks()] * 2

        def set_bias(flat):
            params[0].bias.data[:] = flat[:4]
            params[1].bias.data[:] = flat[4:]

        def loss_of(flat):
            set_bias(flat)
            lp = forward(params, x, g, masks)
            return training_loss(None, lp, labels, np.arange(5), params,
                                 [], 0.0, 0.0).item()

        set_bias(b0)
        t = Tape()
        lp = forward(params, x, g, masks, tape=t)
        grads = backward(t, training_loss(t, lp, labels, np.arange(5),
                                          params, [], 0.0, 0.0))
        got = np.concatenate([grads.get(p.bias).ravel() for p in params])
        fd = finite_diff(loss_of, b0)
        assert np.all(got != 0.0)
        assert rel_err(got, fd) < 1e-6


class TestPredictMc:
    def test_keep_one_matches_deterministic(self):
        # predict_mc and the deterministic pass both compute in float32 on
        # float32_operands.
        g = prepared(5, seed=4)
        cfg = plain_config([3, 4, 2], kind=MaskKind.GDC, keep_prob=1.0)
        params = init_params(cfg, np.random.default_rng(0))
        x = constant(np.random.default_rng(1).normal(size=(5, 3)))
        mean, per = predict_mc(params, x, g, cfg, 4, np.random.default_rng(2))
        det = np.exp(forward_deterministic(params, x, g, cfg).data)
        np.testing.assert_allclose(mean, det, atol=1e-12)
        for s in range(4):
            np.testing.assert_array_equal(per[s], per[0])

    def test_single_sample_mean(self):
        g = prepared(5, seed=5)
        cfg = plain_config([3, 4, 2], kind=MaskKind.GDC, keep_prob=0.7)
        params = init_params(cfg, np.random.default_rng(0))
        x = constant(np.random.default_rng(1).normal(size=(5, 3)))
        mean, per = predict_mc(params, x, g, cfg, 1, np.random.default_rng(2))
        np.testing.assert_array_equal(mean, per[0])

    def test_rows_are_distributions_and_vary(self):
        g = prepared(6, seed=6)
        cfg = plain_config([3, 8, 3], kind=MaskKind.GDC, keep_prob=0.6)
        params = init_params(cfg, np.random.default_rng(3))
        x = constant(np.random.default_rng(1).normal(size=(6, 3)) * 2)
        mean, per = predict_mc(params, x, g, cfg, 100, np.random.default_rng(2))
        np.testing.assert_allclose(mean.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(mean >= 0)
        max_prob_var = per.max(axis=2).var(axis=0)
        assert np.any(max_prob_var > 0)


class TestLayer0Products:
    """Layer-0 block products computed once and passed into ``forward``."""

    @staticmethod
    def _gdc(learned=False, n_blocks=3):
        masks = [MaskSpec(kind=MaskKind.GDC, n_blocks=n_blocks, keep_prob=0.6,
                          learned=learned, relaxed=learned, symmetric=True),
                 MaskSpec(kind=MaskKind.DROPEDGE, keep_prob=0.7)]
        return GCNConfig(layer_dims=[7, 4, 2], masks=masks,
                         estimator="concrete" if learned else "none")

    @staticmethod
    def _input(n=6, seed=1):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 7))
        x[rng.random(x.shape) < 0.5] = 0.0
        return x

    @pytest.mark.parametrize("spec, reused", [
        (MaskSpec(), True),
        (MaskSpec(kind=MaskKind.DROPEDGE, keep_prob=0.5), True),
        (MaskSpec(kind=MaskKind.GDC, n_blocks=3, keep_prob=0.5), True),
        (MaskSpec(kind=MaskKind.RANDOM_WALK, keep_prob=0.5), True),
        (MaskSpec(kind=MaskKind.DROPOUT, keep_prob=0.5), False),
        (MaskSpec(kind=MaskKind.NODE_SAMPLING, keep_prob=0.5), False),
        (MaskSpec(kind=MaskKind.DROPEDGE, dropout_keep=0.8), False),
    ])
    def test_only_unmasked_unscaled_inputs_qualify(self, spec, reused):
        cfg = GCNConfig(layer_dims=[7, 4, 2], masks=[spec, MaskSpec()])
        params = init_params(cfg, np.random.default_rng(0))
        x = sparse_input(constant(self._input()))
        blocks = layer0_blocks(cfg, x)
        assert (blocks is not None) == reused
        if reused:
            w = params[0].m.data
            products = BlockProducts(blocks, spec.n_blocks).get(w)
            assert len(products) == spec.n_blocks
            for s_b, (c0, c1) in zip(products,
                                     block_bounds(7, spec.n_blocks)):
                assert np.array_equal(s_b, x.data[:, c0:c1] @ w[c0:c1])

    def test_aggregate_first_input_does_not_qualify(self):
        # dense 7 < 3 * 4 aggregates first; the CSR input multiplies first
        x = constant(self._input())
        cfg = self._gdc()
        params = init_params(cfg, np.random.default_rng(0))
        assert layer0_blocks(cfg, x) is None
        assert layer0_blocks(cfg, sparse_input(x)) is not None

    @pytest.mark.parametrize("learned", [False, True])
    def test_predict_mc_equals_passes_without_products(self, monkeypatch,
                                                       learned):
        import gdcn.model as gmodel
        g = prepared(6, seed=13)
        cfg = self._gdc(learned=learned)
        params = init_params(cfg, np.random.default_rng(0))
        x = constant(self._input())
        supplied = []

        def spy(config, x):
            out = layer0_blocks(config, x)
            supplied.append(out is not None)
            return out

        monkeypatch.setattr(gmodel, "layer0_blocks", spy)
        _, per = predict_mc(params, x, g, cfg, 5, np.random.default_rng(3))
        assert supplied == [True]
        # the passes run on float32 operands; forward takes the same ones
        p32, xs, g32 = float32_operands(params, x, g)
        rng = np.random.default_rng(3)
        for s in range(5):
            draws = sample_step_masks(cfg, p32, g32, rng, mode="mc",
                                      input_nnz=xs.data.nnz)
            want = np.exp(forward(p32, xs, g32, draws.layer_masks).data)
            assert np.array_equal(per[s], want)

    def test_block_count_mismatch_raises(self):
        g = prepared(6, seed=13)
        cfg = self._gdc()
        params = init_params(cfg, np.random.default_rng(0))
        x = sparse_input(constant(self._input()))
        two = BlockProducts(block_input(x.data, 2), 2)
        draws = sample_step_masks(cfg, params, g, np.random.default_rng(1),
                                  mode="mc", input_nnz=x.data.nnz)
        with pytest.raises(ContractViolation, match="2 block products"):
            forward(params, x, g, draws.layer_masks, layer0=two)

    def test_masked_input_rejects_products(self):
        g = prepared(6, seed=13)
        cfg = GCNConfig(layer_dims=[7, 4, 2],
                        masks=[MaskSpec(kind=MaskKind.DROPOUT, keep_prob=0.5),
                               MaskSpec()])
        params = init_params(cfg, np.random.default_rng(0))
        x = sparse_input(constant(self._input()))
        products = BlockProducts(block_input(x.data, 1), 1)
        for mode, rng in (("mc", np.random.default_rng(1)), ("det", None)):
            draws = sample_step_masks(cfg, params, g, rng, mode=mode,
                                      input_nnz=x.data.nnz)
            with pytest.raises(ContractViolation, match="unmasked, unscaled"):
                forward(params, x, g, draws.layer_masks, layer0=products)

