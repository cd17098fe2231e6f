"""Exact Bernoulli masks from random bytes.

``masks.bernoulli`` keeps an entry where its random byte lies below
``floor(256 p)`` and draws a uniform only on a tie, one per tie in position
order. It is the one rule of every binary mask: training steps
(``sample_step_masks(mode="train")``) and Monte Carlo passes (``mode="mc"``)
draw every DropOut, node, DropEdge, GDC and random-walk mask through it.
"""

import numpy as np
import pytest

import gdcn.model as gmodel
from gdcn.errors import ContractViolation
from gdcn.masks import MaskKind, MaskSpec, bernoulli
from gdcn.model import GCNConfig, PreparedGraph, init_params, sample_step_masks
from gdcn.variational import KumaraswamyParams

from conftest import free_positions, kuma_draw, mask_values, random_edges

N = 12
FLAGS = [dict(symmetric=s, protect_self_loops=p)
         for s in (False, True) for p in (False, True)]
FLAG_IDS = ["plain", "protected", "symmetric", "symmetric-protected"]


def graph(seed=0):
    return PreparedGraph.from_edges(
        random_edges(np.random.default_rng(seed), N, 0.3), N)


def random_bytes(rng, n):
    """The ``n`` bytes a Bernoulli draw of n entries reads: the first n
    bytes of ``ceil(n / 8)`` raw 64-bit outputs, little-endian."""
    raw = rng.bit_generator.random_raw(-(-n // 8))
    return np.frombuffer(raw.astype("<u8").tobytes()[:n], np.uint8)


def bytes_only(seed, n):
    """A generator seeded ``seed`` that has drawn ``n`` bytes and nothing
    else."""
    ref = np.random.default_rng(seed)
    random_bytes(ref, n)
    return ref


def by_hand(p, rng, n):
    """``n`` Bernoulli(p) draws, one entry at a time: the bytes first, then
    one uniform per tie in position order, below ``256 p - floor(256 p)``."""
    u = random_bytes(rng, n)
    k = int(np.floor(256.0 * p))
    frac = 256.0 * p - k
    out = np.zeros(n, dtype=bool)
    for i in range(n):
        if u[i] < k:
            out[i] = True
        elif u[i] == k and frac > 0.0:
            out[i] = rng.random() < frac
    return out


class TestBernoulli:
    @pytest.mark.parametrize("p", [0.5, 0.3333, 0.999, 0.001,
                                   0.5 / 256, 77.5 / 256, 255.5 / 256])
    def test_frequency_within_five_standard_errors(self, p):
        n = 10_000_000
        keep = bernoulli(n, p, np.random.default_rng(11))
        se = np.sqrt(p * (1.0 - p) / n)
        assert abs(keep.mean() - p) < 5.0 * se

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("p", [0.3333, 77.3 / 256, 200.9 / 256])
    def test_tie_path_equals_draws_by_hand(self, p, seed):
        n = 20_000
        rng = np.random.default_rng(seed)
        got = bernoulli(n, p, rng)
        ref = np.random.default_rng(seed)
        want = by_hand(p, ref, n)
        k = int(256.0 * p)
        u = random_bytes(np.random.default_rng(seed), n)
        assert (u == k).sum() > 0  # the ties were drawn
        np.testing.assert_array_equal(got, want)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("p, value", [(0.0, False), (1.0, True)])
    def test_zero_and_one_are_exact_and_draw_no_uniform(self, p, value):
        n = 100_000
        rng = np.random.default_rng(3)
        keep = bernoulli(n, p, rng)
        assert keep.dtype == np.bool_ and np.all(keep == value)
        assert rng.bit_generator.state == bytes_only(3, n).bit_generator.state

    @pytest.mark.parametrize("k", [1, 128, 255])
    def test_multiples_of_one_256th_draw_no_uniform(self, k):
        n = 50_000
        rng = np.random.default_rng(4)
        keep = bernoulli(n, k / 256, rng)
        u = random_bytes(np.random.default_rng(4), n)
        np.testing.assert_array_equal(keep, u < k)
        assert rng.bit_generator.state == bytes_only(4, n).bit_generator.state

    def test_same_seed_same_bits_and_shape(self):
        a = bernoulli((7, 130), 0.3333, np.random.default_rng(9))
        b = bernoulli((7, 130), 0.3333, np.random.default_rng(9))
        assert a.shape == (7, 130) and a.dtype == np.bool_
        assert a.tobytes() == b.tobytes()
        np.testing.assert_array_equal(
            a.ravel(), bernoulli(910, 0.3333, np.random.default_rng(9)))

    @pytest.mark.parametrize("rule", [bernoulli])
    @pytest.mark.parametrize("p", [-0.01, 1.01, np.nan])
    def test_rejects_probability_outside_unit_interval(self, rule, p):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ContractViolation, match="outside"):
            rule(5, p, rng)
        assert rng.bit_generator.state == state


def edge_values(edges, free, z, symmetric):
    """An edge mask's blocks written out from the values ``z`` drawn at
    ``free``: a mirrored entry copies its mirror, and an entry outside
    ``free`` that has no mirror (a protected self-loop) holds 1."""
    vals = np.ones((z.shape[0], edges.n_entries))
    vals[:, free] = z
    if symmetric:
        lower = edges.rows > edges.cols
        vals[:, lower] = vals[:, edges.mirror[lower]]
    return vals


class TestStepMasks:
    """Each binary mask of a training step is ``bernoulli`` on a reference
    generator, drawn in layer order. ``TestMcStepMasks`` runs the same
    checks on an MC pass."""

    mode = "train"

    def draws(self, cfg, params, g, seed, input_nnz=None):
        rng = np.random.default_rng(seed)
        return rng, sample_step_masks(cfg, params, g, rng, mode=self.mode,
                                      input_nnz=input_nnz)

    @pytest.mark.parametrize("input_nnz", [None, 37])
    def test_dropout(self, input_nnz):
        cfg = GCNConfig(layer_dims=[40, 30, 3], masks=[
            MaskSpec(kind=MaskKind.DROPOUT, keep_prob=0.6),
            MaskSpec(kind=MaskKind.DROPOUT, keep_prob=0.3333)])
        params = init_params(cfg, np.random.default_rng(0))
        rng, draws = self.draws(cfg, params, graph(), 1, input_nnz)
        ref = np.random.default_rng(1)
        first = (bernoulli(input_nnz, 0.6, ref) if input_nnz is not None
                 else bernoulli((N, 40), 0.6, ref))
        second = bernoulli((N, 30), 0.3333, ref)
        np.testing.assert_array_equal(draws.layer_masks[0].feature, first)
        np.testing.assert_array_equal(draws.layer_masks[1].feature, second)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("kind", [MaskKind.DROPOUT,
                                      MaskKind.NODE_SAMPLING,
                                      MaskKind.DROPEDGE])
    @pytest.mark.parametrize("input_nnz", [None, 37])
    def test_dropout_keep_extra(self, kind, input_nnz):
        g = graph(2)
        cfg = GCNConfig(layer_dims=[40, 3], masks=[
            MaskSpec(kind=kind, keep_prob=0.55, dropout_keep=0.8)])
        params = init_params(cfg, np.random.default_rng(0))
        rng, draws = self.draws(cfg, params, g, 3, input_nnz)
        lm = draws.layer_masks[0]
        ref = np.random.default_rng(3)
        extra_shape = (N, 40)
        if kind == MaskKind.DROPOUT:
            base = bernoulli(input_nnz or (N, 40), 0.55, ref)
            if input_nnz is not None:
                extra_shape = input_nnz
        elif kind == MaskKind.NODE_SAMPLING:
            base = bernoulli(N, 0.55, ref).reshape(-1, 1)
        else:
            edge = bernoulli((1, g.edges.n_entries), 0.55, ref)
            np.testing.assert_array_equal(mask_values(lm.edge), edge)
            base = True
            if input_nnz is not None:
                extra_shape = input_nnz
        extra = bernoulli(extra_shape, 0.8, ref)
        np.testing.assert_array_equal(lm.feature, base * extra)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_node(self):
        cfg = GCNConfig(layer_dims=[6, 5, 3], masks=[
            MaskSpec(kind=MaskKind.NODE_SAMPLING, keep_prob=0.7),
            MaskSpec(kind=MaskKind.NODE_SAMPLING, keep_prob=0.45)])
        params = init_params(cfg, np.random.default_rng(0))
        rng, draws = self.draws(cfg, params, graph(), 4, input_nnz=37)
        ref = np.random.default_rng(4)
        for lm, p in zip(draws.layer_masks, (0.7, 0.45)):
            np.testing.assert_array_equal(
                lm.feature, bernoulli(N, p, ref).reshape(-1, 1))
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("flags", FLAGS, ids=FLAG_IDS)
    @pytest.mark.parametrize("kind, n_blocks", [(MaskKind.GDC, 3),
                                                (MaskKind.DROPEDGE, 1)])
    def test_edge_blocks(self, kind, n_blocks, flags):
        g = graph(5)
        cfg = GCNConfig(layer_dims=[6, 6, 3], masks=[
            MaskSpec(kind=kind, keep_prob=0.35, n_blocks=n_blocks, **flags),
            MaskSpec(kind=kind, keep_prob=0.9, n_blocks=n_blocks, **flags)])
        params = init_params(cfg, np.random.default_rng(0))
        rng, draws = self.draws(cfg, params, g, 6)
        ref = np.random.default_rng(6)
        free = free_positions(g.edges, **flags)
        for lm, p in zip(draws.layer_masks, (0.35, 0.9)):
            z = bernoulli((n_blocks, len(free)), p, ref).astype(np.float64)
            want = edge_values(g.edges, free, z, flags["symmetric"])
            assert mask_values(lm.edge).tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_random_walk(self):
        g = graph(7)
        cfg = GCNConfig(layer_dims=[6, 5, 3], masks=[
            MaskSpec(kind=MaskKind.RANDOM_WALK, keep_prob=0.4),
            MaskSpec(kind=MaskKind.RANDOM_WALK, keep_prob=0.5)])
        params = init_params(cfg, np.random.default_rng(0))
        rng, draws = self.draws(cfg, params, g, 8)
        ref = np.random.default_rng(8)
        nnz = g.edges.n_entries
        first = bernoulli(nnz, 0.4, ref).astype(np.float64)
        alive = np.bincount(g.edges.rows, weights=first, minlength=N) > 0
        second = bernoulli(nnz, 0.5, ref) * alive[g.edges.rows]
        np.testing.assert_array_equal(mask_values(draws.layer_masks[0].edge),
                                      [first])
        np.testing.assert_array_equal(mask_values(draws.layer_masks[1].edge),
                                      [second])
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("name, spec", [
        ("sample_dropout_mask", MaskSpec(kind=MaskKind.DROPOUT,
                                         keep_prob=0.5)),
        ("sample_node_mask", MaskSpec(kind=MaskKind.NODE_SAMPLING,
                                      keep_prob=0.5)),
        ("sample_dropedge_mask", MaskSpec(kind=MaskKind.DROPEDGE,
                                          keep_prob=0.5)),
        ("sample_gdc_masks", MaskSpec(kind=MaskKind.GDC, keep_prob=0.5,
                                      n_blocks=2)),
        ("sample_randomwalk_mask", MaskSpec(kind=MaskKind.RANDOM_WALK,
                                            keep_prob=0.5)),
    ])
    def test_samplers_are_called_through_the_model_namespace(
            self, monkeypatch, name, spec):
        # Wrapping a sampler by its name in gdcn.model sees each of its draws.
        calls = []
        original = getattr(gmodel, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(gmodel, name, counted)
        cfg = GCNConfig(layer_dims=[6, 3], masks=[spec])
        params = init_params(cfg, np.random.default_rng(0))
        self.draws(cfg, params, graph(), 0)
        assert calls == [name]


class TestMcStepMasks(TestStepMasks):
    """``TestStepMasks``' checks on an MC pass, and a learned layer's binary
    edge masks, which only MC passes draw."""

    mode = "mc"

    @pytest.mark.parametrize("estimator", ["concrete", "arm"])
    def test_learned_gdc_draws_its_keep_probability_first(self, estimator):
        g = graph(9)
        relaxed = estimator == "concrete"
        cfg = GCNConfig(layer_dims=[6, 5, 3], estimator=estimator, masks=[
            MaskSpec(kind=MaskKind.GDC, learned=True, n_blocks=2,
                     relaxed=relaxed),
            MaskSpec(kind=MaskKind.GDC, learned=True, n_blocks=2,
                     symmetric=True, relaxed=relaxed)])
        params = init_params(cfg, np.random.default_rng(0))
        for p, (a, b) in zip(params, [(1.4, 2.2), (0.9, 3.3)]):
            p.kuma = KumaraswamyParams(a, b)
        rng, draws = self.draws(cfg, params, g, 10)
        ref = np.random.default_rng(10)
        for spec, p, lm, pi in zip(cfg.masks, params, draws.layer_masks,
                                   draws.pi_tensors):
            want_pi = kuma_draw(p.kuma.log_a.item(), p.kuma.log_b.item(),
                                float(ref.random()))
            assert pi.item() == want_pi
            free = free_positions(g.edges, symmetric=spec.symmetric)
            z = bernoulli((2, len(free)), want_pi, ref).astype(np.float64)
            want = edge_values(g.edges, free, z, spec.symmetric)
            assert mask_values(lm.edge).tobytes() == want.tobytes()
            assert lm.edge.pi is None  # binary in MC passes
        assert draws.arm is None
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("input_nnz", [None, 37])
def test_train_and_mc_draw_the_same_masks_without_learned_layers(input_nnz):
    # With no learned layer, a training step and an MC pass draw the same
    # masks, in the same order, from one seed.
    g = graph(11)
    cfg = GCNConfig(layer_dims=[40, 8, 8, 8, 8, 3], masks=[
        MaskSpec(kind=MaskKind.DROPOUT, keep_prob=0.6, dropout_keep=0.8),
        MaskSpec(kind=MaskKind.NODE_SAMPLING, keep_prob=0.7,
                 dropout_keep=0.9),
        MaskSpec(kind=MaskKind.DROPEDGE, keep_prob=0.55, symmetric=True),
        MaskSpec(kind=MaskKind.GDC, keep_prob=0.35, n_blocks=2,
                 protect_self_loops=True),
        MaskSpec(kind=MaskKind.RANDOM_WALK, keep_prob=0.5)])
    params = init_params(cfg, np.random.default_rng(0))
    rngs, draws = {}, {}
    for mode in ("train", "mc"):
        rngs[mode] = np.random.default_rng(12)
        draws[mode] = sample_step_masks(cfg, params, g, rngs[mode],
                                        mode=mode, input_nnz=input_nnz)
    for got, want in zip(draws["train"].layer_masks,
                         draws["mc"].layer_masks):
        assert (got.feature is None) == (want.feature is None)
        if want.feature is not None:
            assert got.feature.tobytes() == want.feature.tobytes()
        assert (got.edge is None) == (want.edge is None)
        if want.edge is not None:
            assert (mask_values(got.edge).tobytes()
                    == mask_values(want.edge).tobytes())
    assert draws["train"].arm is None
    assert (rngs["train"].bit_generator.state
            == rngs["mc"].bit_generator.state)
