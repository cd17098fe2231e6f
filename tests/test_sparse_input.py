"""CSR layer-0 input: equivalence with the dense path and sparse DropOut."""

import numpy as np
import pytest
from scipy.sparse import csr_array

from gdcn.data import Dataset, make_split
from gdcn.errors import ContractViolation
from gdcn.masks import (MaskKind, MaskSpec, sample_dropedge_mask,
                        sample_dropout_mask, sample_gdc_masks,
                        sample_node_mask)
from gdcn.model import (GCNConfig, LayerMasks, PreparedGraph, _mask_csr,
                        float32_operands, forward, forward_deterministic,
                        init_params, sample_step_masks, sparse_input,
                        training_loss)
from gdcn.tape import Tape, Tensor, backward, constant, parameter
from gdcn.training import TrainConfig, train

from conftest import finite_diff, random_edges, rel_err

N, F_IN, HIDDEN, CLASSES = 9, 8, 6, 3
SYM_DROPEDGE = MaskSpec(kind=MaskKind.DROPEDGE, symmetric=True)


def gdc(n_blocks):
    return MaskSpec(kind=MaskKind.GDC, n_blocks=n_blocks)


def prepared(seed=0):
    return PreparedGraph.from_edges(
        random_edges(np.random.default_rng(seed), N, 0.5), N)


def sparse_features(rng, n=N, f=F_IN, density=0.3):
    """Non-binary values on a random sparsity pattern."""
    keep = rng.random((n, f)) < density
    return np.where(keep, rng.normal(size=(n, f)), 0.0)


def config(kind=MaskKind.NONE, **mask_kw):
    masks = [MaskSpec(kind=kind, **mask_kw) for _ in range(2)]
    return GCNConfig(layer_dims=[F_IN, HIDDEN, CLASSES], masks=masks)


def both_inputs(x):
    dense = constant(x)
    return dense, sparse_input(dense)


class TestSparseTensor:
    def test_requires_grad_rejected(self):
        x = csr_array(np.eye(3))
        with pytest.raises(ContractViolation):
            Tensor(x, requires_grad=True)
        with pytest.raises(ContractViolation):
            parameter(x)

    def test_constant_holds_csr_array(self):
        # one rule for constants and parameters: float32 stays float32,
        # any other dtype becomes float64
        for dtype, want in ((np.float32, np.float32), (np.int64, np.float64),
                            (np.float64, np.float64)):
            t = constant(csr_array(np.eye(3, dtype=dtype)))
            assert isinstance(t.data, csr_array)
            assert t.data.dtype == want and not t.requires_grad
            assert constant(np.eye(3, dtype=dtype)).data.dtype == want
            assert parameter(np.eye(3, dtype=dtype)).data.dtype == want

    def test_sparse_input_converts_dense_only(self):
        x = constant(np.eye(3))
        s = sparse_input(x)
        assert isinstance(s.data, csr_array) and s.data.nnz == 3
        assert sparse_input(s) is s
        w = parameter(np.eye(3))
        assert sparse_input(w) is w
        # a CSR input is converted only to another dtype, into a new array
        s32 = sparse_input(s, np.float32)
        assert s32.data.dtype == np.float32 and sparse_input(s32) is s32
        assert s.data.dtype == np.float64

    @pytest.mark.parametrize("shape,density", [
        ((6, 5), 0.4), ((1, 9), 0.5), ((9, 1), 0.5), ((4, 3), 0.0),
        ((3, 4), 1.0), ((300, 1433), 0.013)])
    def test_sparse_input_arrays_equal_scipy_conversion(self, shape, density):
        rng = np.random.default_rng(12)
        x = np.where(rng.random(shape) < density, rng.normal(size=shape), 0.0)
        if shape[0] > 2:
            x[2] = 0.0                   # an empty row
        if x.size > 2:
            x.flat[1], x.flat[-1] = -0.0, np.inf  # -0.0 is not stored, inf is
        for dtype in (np.float64, np.float32):
            got = sparse_input(constant(x), dtype).data
            want = csr_array(x).astype(dtype)
            assert got.shape == want.shape
            for name in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
                assert getattr(got, name).dtype == getattr(want, name).dtype


class TestForwardEquivalence:
    """``forward`` on a CSR input equals the dense input within 1e-12."""

    @pytest.fixture
    def run(self):
        def go(make_masks, seed=1):
            g = prepared(seed)
            rng = np.random.default_rng(seed)
            params = init_params(config(), rng)
            dense, sparse = both_inputs(sparse_features(rng))
            masks = make_masks(g, rng)
            want = forward(params, dense, g, masks).data
            got = forward(params, sparse, g, masks).data
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        return go

    def test_no_mask(self, run):
        run(lambda g, rng: [LayerMasks(), LayerMasks()])

    def test_det_dropout_scaling(self, run):
        run(lambda g, rng: [LayerMasks(feature=0.4),
                            LayerMasks(feature=0.7)])

    def test_node_mask(self, run):
        run(lambda g, rng: [
            LayerMasks(feature=sample_node_mask(N, 0.5, rng).reshape(-1, 1)),
            LayerMasks()])

    def test_dropedge(self, run):
        run(lambda g, rng: [
            LayerMasks(edge=sample_dropedge_mask(g.edges, SYM_DROPEDGE, 0.6,
                                                 rng)),
            LayerMasks(edge=sample_dropedge_mask(g.edges, SYM_DROPEDGE, 0.6,
                                                 rng))])

    def test_gdc_four_blocks(self, run):
        run(lambda g, rng: [
            LayerMasks(edge=sample_gdc_masks(g.edges, gdc(4), 0.6, rng)),
            LayerMasks(edge=sample_gdc_masks(g.edges, gdc(4), 0.6, rng))])

    def test_entry_mask_equals_dense_mask_on_stored_entries(self):
        g = prepared(2)
        rng = np.random.default_rng(2)
        params = init_params(config(), rng)
        dense, sparse = both_inputs(sparse_features(rng))
        z_dense = sample_dropout_mask(N, F_IN, 0.5, rng)
        rows, cols = sparse.data.nonzero()
        z_entries = z_dense[rows, cols]
        want = forward(params, dense, g,
                       [LayerMasks(feature=z_dense), LayerMasks()]).data
        got = forward(params, sparse, g,
                      [LayerMasks(feature=z_entries), LayerMasks()]).data
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_weight_gradient_matches_finite_differences_on_csr_input():
    """Criterion-1 oracle for dloss/dW_0 through a CSR input, with a
    per-entry DropOut mask and 2-block GDC column slices at layer 0."""
    g = prepared(3)
    rng = np.random.default_rng(3)
    params = init_params(config(), rng)
    x = sparse_input(constant(sparse_features(rng)))
    labels = rng.integers(0, CLASSES, size=N)
    observed = np.arange(0, N, 2)
    masks = [LayerMasks(feature=sample_dropout_mask(x.data.nnz, 1, 0.6,
                                                    rng).ravel(),
                        edge=sample_gdc_masks(g.edges, gdc(2), 0.7, rng)),
             LayerMasks(edge=sample_dropedge_mask(
                 g.edges, MaskSpec(kind=MaskKind.DROPEDGE), 0.7, rng))]
    w0 = params[0].m

    def loss_of(flat):
        w0.data = flat.reshape(F_IN, HIDDEN).copy()
        tape = Tape()
        lp = forward(params, x, g, masks, tape=tape)
        return tape, training_loss(tape, lp, labels, observed, params, [],
                                   5e-3, 0.0)

    flat0 = w0.data.ravel().copy()
    tape, loss = loss_of(flat0)
    got = backward(tape, loss).get(w0).ravel()
    fd = finite_diff(lambda f: loss_of(f)[1].item(), flat0)
    loss_of(flat0)  # restore
    assert rel_err(got, fd) < 1e-4


class TestSparseDropout:
    def test_dense_mask_without_entry_count(self):
        cfg = config(MaskKind.DROPOUT, keep_prob=0.5)
        params = init_params(cfg, np.random.default_rng(0))
        draws = sample_step_masks(cfg, params, prepared(),
                                  np.random.default_rng(1), mode="mc")
        assert draws.layer_masks[0].feature.shape == (N, F_IN)

    def test_entry_mask_on_layer_zero_only(self):
        cfg = config(MaskKind.DROPOUT, keep_prob=0.5)
        params = init_params(cfg, np.random.default_rng(0))
        draws = sample_step_masks(cfg, params, prepared(),
                                  np.random.default_rng(1), mode="train",
                                  input_nnz=17)
        assert draws.layer_masks[0].feature.shape == (17,)
        assert draws.layer_masks[1].feature.shape == (N, HIDDEN)

    def test_kept_fraction_within_binomial_bound(self):
        keep, nnz = 0.3, 200_000
        cfg = config(MaskKind.DROPOUT, keep_prob=keep)
        params = init_params(cfg, np.random.default_rng(0))
        draws = sample_step_masks(cfg, params, prepared(),
                                  np.random.default_rng(4), mode="mc",
                                  input_nnz=nnz)
        z = draws.layer_masks[0].feature
        assert set(np.unique(z)) <= {0.0, 1.0}
        sigma = np.sqrt(keep * (1.0 - keep) / nnz)
        assert abs(z.mean() - keep) < 5.0 * sigma

    def test_zeros_stay_zero_and_kept_entries_keep_values(self):
        rng = np.random.default_rng(5)
        x = csr_array(sparse_features(rng))
        z = sample_dropout_mask(x.nnz, 1, 0.5, rng).ravel()
        masked = _mask_csr(x, z).toarray()
        dense = x.toarray()
        assert np.all(masked[dense == 0.0] == 0.0)
        rows, cols = x.nonzero()
        np.testing.assert_array_equal(masked[rows, cols], dense[rows, cols] * z)

    def test_det_eval_scales_by_keep_prob(self):
        keep = 0.6
        g = prepared(6)
        cfg = config(MaskKind.DROPOUT, keep_prob=keep)
        rng = np.random.default_rng(6)
        params = init_params(cfg, rng)
        x = sparse_features(rng)
        got = forward_deterministic(params, constant(x), g, cfg).data
        # the deterministic pass computes in float32
        want = forward(*float32_operands(params, constant(x), g),
                       [LayerMasks(feature=keep)] * 2).data
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_dropout_keep_multiplies_entry_masks(self):
        nnz = 50
        cfg = config(MaskKind.DROPOUT, keep_prob=0.5, dropout_keep=0.7)
        params = init_params(cfg, np.random.default_rng(0))
        draws = sample_step_masks(cfg, params, prepared(),
                                  np.random.default_rng(7), mode="train",
                                  input_nnz=nnz)
        rng = np.random.default_rng(7)
        first = sample_dropout_mask(nnz, 1, 0.5, rng).ravel()
        extra = sample_dropout_mask(nnz, 1, 0.7, rng).ravel()
        np.testing.assert_array_equal(draws.layer_masks[0].feature,
                                      first * extra)

    def test_node_mask_with_dropout_keep_matches_dense_path(self):
        g = prepared(8)
        cfg = config(MaskKind.NODE_SAMPLING, keep_prob=0.6, dropout_keep=0.7)
        rng = np.random.default_rng(8)
        params = init_params(cfg, rng)
        dense, sparse = both_inputs(sparse_features(rng))
        dense_draws = sample_step_masks(cfg, params, g,
                                        np.random.default_rng(9), mode="mc")
        sparse_draws = sample_step_masks(cfg, params, g,
                                         np.random.default_rng(9), mode="mc",
                                         input_nnz=sparse.data.nnz)
        want = forward(params, dense, g, dense_draws.layer_masks).data
        got = forward(params, sparse, g, sparse_draws.layer_masks).data
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_det_mode_needs_no_rng_and_other_modes_do(self):
        cfg = config(MaskKind.DROPOUT, keep_prob=0.5)
        params = init_params(cfg, np.random.default_rng(0))
        draws = sample_step_masks(cfg, params, prepared(), mode="det")
        assert draws.layer_masks[0].feature == 0.5
        with pytest.raises(ContractViolation):
            sample_step_masks(cfg, params, prepared(), mode="mc")

    def test_train_is_bitwise_repeatable(self):
        rng = np.random.default_rng(10)
        n = 30
        labels = np.arange(n) % CLASSES
        features = (rng.random((n, F_IN)) < 0.3).astype(np.float64)
        ds = make_split(Dataset(features=features, labels=labels,
                                edges=np.array(random_edges(rng, n, 0.2)),
                                class_count=CLASSES),
                        per_class_train=2, n_val=6, n_test=10)
        cfg = config(MaskKind.DROPOUT, keep_prob=0.5, dropout_keep=0.8)
        tc = TrainConfig(epochs=5, patience=5)
        first = train(ds, cfg, tc, seed=3)
        second = train(ds, cfg, tc, seed=3)
        assert ([log.train_loss for log in first.logs]
                == [log.train_loss for log in second.logs])
        for a, b in zip(first.params, second.params):
            assert np.array_equal(a.m.data, b.m.data)
