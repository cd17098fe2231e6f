"""What loading, normalizing and training keep in memory.

The loader returns bool features, ``row_normalize`` and the CSR conversion
make no float64 copy of them, every pass of ``train`` reads the dataset's
one float32 CSR input, and ``train`` frees each step (its tape, its
masks, block products and gradients) before the deterministic evaluation
that follows it.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import gdcn.model as gmodel
import gdcn.tape as gtape
import gdcn.training as training
from gdcn.data import Dataset, load_content_cites, row_normalize
from gdcn.masks import MaskKind
from gdcn.model import PreparedGraph, float32_operands, init_params
from gdcn.tape import constant, stack_blocks
from gdcn.training import TrainConfig, train

from test_training import small_config, synthetic_dataset

# numpy's cast and iteration buffers, which do not grow with the input
_BUFFERS = 256 * 1024


def traced_peak(fn, *args):
    """(fn(*args), the peak bytes that tracemalloc saw it allocate)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - before


def binary(shape, seed=0):
    rng = np.random.default_rng(seed)
    f = rng.random(shape) < 0.05
    f[::4] = False
    return f


class TestLoader:
    def test_features_are_bool(self, synthetic_files):
        ds = load_content_cites(*synthetic_files)
        assert ds.features.dtype == bool
        assert ds.features.any() and not ds.features.all()

    def test_negative_zero_loads_false(self, tmp_path):
        content = tmp_path / "c.content"
        content.write_text("a\t-0\t1\tml\nb\t1\t0\tdb\n", encoding="utf-8")
        cites = tmp_path / "c.cites"
        cites.write_text("a\tb\n", encoding="utf-8")
        ds = load_content_cites(str(content), str(cites))
        assert ds.features.tolist() == [[False, True], [True, False]]
        out = row_normalize(ds.features)
        assert out[0, 0] == 0.0 and not np.signbit(out[0, 0])


class TestRowNormalize:
    @pytest.mark.parametrize("shape", [(2000, 600), (400, 3000)])
    def test_bool_input_allocates_its_output_only(self, shape):
        f = binary(shape)
        before = f.copy()
        out, peak = traced_peak(row_normalize, f)
        assert out.dtype == np.float32
        # O(n) beyond the float32 output: the row sums and the rows whose
        # sum is not positive.
        assert peak <= out.nbytes + 16 * shape[0] + _BUFFERS
        want = row_normalize(f.astype(np.float64))
        assert np.array_equal(out.view(np.uint32), want.view(np.uint32))
        assert np.array_equal(f, before)

    def test_feature_blocks_make_no_float64_copy(self):
        f = binary((2000, 600))
        ds = Dataset(features=f, labels=np.zeros(len(f), int),
                     edges=np.zeros((0, 2), dtype=np.int64), class_count=1)
        stacked, peak = traced_peak(
            lambda: stack_blocks(ds.features_csr(), 4))
        assert peak < f.size * 8 // 4
        assert stacked.nnz == np.count_nonzero(f)


class TestInputShared:
    def test_float32_operands_share_the_dataset_csr(self):
        ds = synthetic_dataset()
        cfg = small_config(ds.n_features, ds.class_count)
        graph = PreparedGraph.from_edges(ds.edges, ds.n_nodes)
        params = init_params(cfg, np.random.default_rng(0))
        csr = ds.features_csr()
        assert csr.dtype == np.float32
        assert float32_operands(params, constant(csr), graph)[1].data is csr

    @pytest.mark.parametrize("kind,estimator", [
        (MaskKind.GDC, "arm"), (MaskKind.DROPOUT, "none")])
    def test_every_train_pass_reads_the_dataset_csr(self, monkeypatch, kind,
                                                    estimator):
        ds = synthetic_dataset()
        ds.features = row_normalize(ds.features)
        cfg = small_config(ds.n_features, ds.class_count, kind=kind,
                           learned=estimator != "none", estimator=estimator)
        real_forward = gmodel.forward
        inputs = []

        def forward(params, x, *args, **kwargs):
            inputs.append(x.data)
            return real_forward(params, x, *args, **kwargs)

        # the passes of a step call training.forward, the det-eval's
        # model.forward
        monkeypatch.setattr(training, "forward", forward)
        monkeypatch.setattr(gmodel, "forward", forward)
        epochs = 3
        train(ds, cfg, TrainConfig(epochs=epochs, patience=epochs,
                                   seeds=(0,)), seed=0)
        # the recorded pass and the det-eval per epoch, ARM's Z1 pass too
        assert len(inputs) == (3 if estimator == "arm" else 2) * epochs
        assert all(x is ds.features_csr() for x in inputs)


class TestStepFreedBeforeDetEval:
    """Without a garbage collection, no tape and no block products built
    before a det-eval may be alive when it starts: they belong to its
    epoch's step, an earlier one or an earlier det-eval."""

    @pytest.mark.parametrize("kind,estimator,n_blocks", [
        (MaskKind.GDC, "arm", 4), (MaskKind.GDC, "concrete", 4),
        (MaskKind.DROPOUT, "none", 1)])
    def test_nothing_of_the_step_is_alive(self, monkeypatch, kind, estimator,
                                          n_blocks):
        real_tape = training.Tape
        real_products = gtape.block_products
        real_det_eval = training._det_eval
        tapes, products, alive, built = [], [], [], []

        def tape():
            t = real_tape()
            tapes.append(weakref.ref(t))
            return t

        def block_products(*args, **kwargs):
            out = real_products(*args, **kwargs)
            products.append(weakref.ref(out[0]))  # S_0, held by the tuple
            return out

        def det_eval(*args, **kwargs):
            alive.append((sum(r() is not None for r in tapes),
                          sum(r() is not None for r in products)))
            built.append(len(products))
            return real_det_eval(*args, **kwargs)

        monkeypatch.setattr(training, "Tape", tape)
        monkeypatch.setattr(gtape, "block_products", block_products)
        monkeypatch.setattr(training, "_det_eval", det_eval)
        ds = synthetic_dataset()
        cfg = small_config(ds.n_features, ds.class_count, kind=kind,
                           learned=estimator != "none", estimator=estimator,
                           n_blocks=n_blocks)
        epochs = 4
        enabled = gc.isenabled()
        gc.disable()
        try:
            train(ds, cfg, TrainConfig(epochs=epochs, patience=epochs,
                                       seeds=(0,)), seed=0)
        finally:
            if enabled:
                gc.enable()
        assert len(tapes) == epochs
        assert alive == [(0, 0)] * epochs
        # every step built products of its own
        assert 0 < built[0] and all(a < b for a, b in zip(built, built[1:]))
