"""The float32, one-product-per-layer deterministic pass against the
float64 pass with one product per GDC block.

The expected keep value of a layer is the same in every GDC block, so the
deterministic pass runs each layer as one block, in float32, and finishes
in float64. Its probabilities must stay within 1e-5 of the float64
per-block pass, with the same argmax, for every mask kind and flag that
changes what the pass multiplies. A training run's logs and parameters
must be bit for bit those of a run whose deterministic evaluation is the
float64 per-block one.
"""

import dataclasses

import numpy as np
import pytest

import gdcn.model as gmodel
import gdcn.training as gtraining
from gdcn.masks import EdgeMask, MaskKind
from gdcn.metrics import accuracy
from gdcn.model import (GCNConfig, PreparedGraph, forward,
                        forward_deterministic, init_params,
                        sample_step_masks, sparse_input)
from gdcn.tape import constant
from gdcn.training import TrainConfig, train

from conftest import float64_params
from test_mc_precision import DIMS, dataset, layers, spec

GDC2_SYM = spec(MaskKind.GDC, n_blocks=2, keep_prob=0.6, symmetric=True)
GDC3_PROTECTED = spec(MaskKind.GDC, n_blocks=3, keep_prob=0.5,
                      protect_self_loops=True)
DROPEDGE_SYM = spec(MaskKind.DROPEDGE, keep_prob=0.6, symmetric=True)

# name -> GCNConfig keyword arguments, and the graph's renorm_trick
CASES = {
    "gdc2-symmetric": dict(masks=layers(GDC2_SYM)),
    "gdc3-protected": dict(masks=layers(GDC3_PROTECTED)),
    "gdc2-learned": dict(masks=layers(spec(
        MaskKind.GDC, n_blocks=2, learned=True, relaxed=True,
        symmetric=True)), estimator="concrete"),
    "dropedge": dict(masks=layers(spec(MaskKind.DROPEDGE, keep_prob=0.7))),
    "randomwalk": dict(masks=layers(spec(MaskKind.RANDOM_WALK,
                                         keep_prob=0.7))),
    "renorm-after-mask": dict(masks=layers(DROPEDGE_SYM, GDC2_SYM,
                                           DROPEDGE_SYM),
                              renorm_after_mask=True),
    "renorm-after-mask-trick": dict(masks=layers(GDC2_SYM),
                                    renorm_after_mask=True,
                                    renorm_trick=True),
    "dropout-keep": dict(masks=layers(
        spec(MaskKind.GDC, n_blocks=3, keep_prob=0.7, dropout_keep=0.8),
        spec(MaskKind.DROPEDGE, keep_prob=0.7, dropout_keep=0.9),
        GDC2_SYM), use_bias=True),
    "dropout": dict(masks=layers(spec(MaskKind.DROPOUT, keep_prob=0.6))),
    "node": dict(masks=layers(spec(MaskKind.NODE_SAMPLING, keep_prob=0.7))),
}


def setup(name):
    kw = dict(CASES[name])
    renorm_trick = kw.pop("renorm_trick", False)   # the graph's rule
    cfg = GCNConfig(layer_dims=DIMS, **kw)
    ds = dataset()
    graph = PreparedGraph.from_edges(ds.edges, ds.n_nodes,
                                     renorm_trick=renorm_trick)
    params = init_params(cfg, np.random.default_rng(1))
    for p in params:
        if p.bias is not None:
            p.bias.data[:] = np.random.default_rng(2).normal(
                size=p.bias.data.shape)
    return cfg, ds, graph, params


def per_block_det_pass(params, x, graph, config, capture_hidden=False):
    """The float64 deterministic pass with one product per GDC block: each
    block of a GDC layer takes the layer's expected-keep mask."""
    params = float64_params(params)
    draws = sample_step_masks(config, params, graph, mode="det")
    masks = [lm if lm.edge is None else dataclasses.replace(
        lm, edge=EdgeMask(blocks=lm.edge.blocks * s.n_blocks))
        for s, lm in zip(config.masks, draws.layer_masks)]
    return forward(params, sparse_input(x), graph, masks, tape=None,
                   capture_hidden=capture_hidden)


def per_block_det_eval(params, x, graph, config, labels, split,
                       capture_hidden=False):
    """``training._det_eval`` with the float64 per-block pass."""
    res = per_block_det_pass(params, x, graph, config,
                             capture_hidden=capture_hidden)
    logprobs, hidden = res if capture_hidden else (res, None)
    pred = logprobs.data.argmax(axis=1)
    return (accuracy(pred, labels, split.val),
            accuracy(pred, labels, split.test), hidden)


@pytest.mark.parametrize("sparse_x", [False, True])
@pytest.mark.parametrize("name", sorted(CASES))
def test_one_block_float32_within_bound_of_per_block(name, sparse_x,
                                                     monkeypatch):
    cfg, ds, graph, params = setup(name)
    x = constant(ds.features)
    if sparse_x:
        x = sparse_input(x)
    before = [t.data.copy() for p in params for t in p.tensors()]
    logits, blocks = [], []

    def spy_softmax(tape, t):
        logits.append(t.data.dtype)
        return log_softmax(tape, t)

    def spy_aggregate(tape, a, values, *args, **kwargs):
        blocks.append(len(values))
        return aggregate(tape, a, values, *args, **kwargs)

    log_softmax = gmodel.record_log_softmax_rows
    aggregate = gmodel.record_gdc_aggregate
    monkeypatch.setattr(gmodel, "record_log_softmax_rows", spy_softmax)
    monkeypatch.setattr(gmodel, "record_gdc_aggregate", spy_aggregate)
    got = forward_deterministic(params, x, graph, cfg)
    monkeypatch.undo()
    # one float32 product per layer, finished in float64
    assert logits == [np.float32] and blocks == [1] * cfg.n_layers
    assert got.data.dtype == np.float64
    want = per_block_det_pass(params, x, graph, cfg).data

    assert np.abs(np.exp(got.data) - np.exp(want)).max() <= 1e-5
    assert np.array_equal(got.data.argmax(axis=1), want.argmax(axis=1))
    again = forward_deterministic(params, x, graph, cfg)
    assert np.array_equal(again.data, got.data)
    after = [t.data for p in params for t in p.tensors()]
    assert all(a.dtype == b.dtype and np.array_equal(a, b)
               for a, b in zip(after, before))
    assert graph.a_norm.dtype == np.float64


@pytest.mark.parametrize("name", ["gdc3-protected", "dropout"])
def test_hidden_outputs_are_float64(name):
    cfg, ds, graph, params = setup(name)
    x = constant(ds.features)
    lp, hidden = forward_deterministic(params, x, graph, cfg,
                                       capture_hidden=True)
    _, want = per_block_det_pass(params, x, graph, cfg, capture_hidden=True)
    assert len(hidden) == cfg.n_layers - 1
    for h, w in zip(hidden, want):
        assert h.dtype == np.float64 and h.shape == w.shape
        assert np.abs(h - w).max() <= 1e-5
    seen = []
    train(ds, cfg, TrainConfig(epochs=2, seeds=(0,)), seed=0, graph=graph,
          hidden_hook=lambda epoch, hs: seen.extend(hs))
    assert len(seen) == 2 * (cfg.n_layers - 1)
    assert all(h.dtype == np.float64 for h in seen)


TRAIN_CASES = {
    "gdc-arm": dict(masks=layers(spec(MaskKind.GDC, n_blocks=2, learned=True,
                                      symmetric=True)),
                    estimator="arm", kuma_init_b=1.0),
    "gdc-concrete": dict(masks=layers(spec(MaskKind.GDC, n_blocks=3,
                                           learned=True, relaxed=True)),
                         estimator="concrete", kuma_init_b=1.0),
    "dropout": dict(masks=layers(spec(MaskKind.DROPOUT, keep_prob=0.5))),
}


@pytest.mark.parametrize("name", sorted(TRAIN_CASES))
def test_training_equals_per_block_det_eval(name, monkeypatch):
    cfg = GCNConfig(layer_dims=DIMS, **TRAIN_CASES[name])
    ds = dataset()
    tc = TrainConfig(epochs=25, patience=25, lr=0.02, seeds=(0,))
    got = train(ds, cfg, tc, seed=3)
    monkeypatch.setattr(gtraining, "_det_eval", per_block_det_eval)
    want = train(ds, cfg, tc, seed=3)

    def logs(result):
        return [dataclasses.replace(log, wall_time=0.0)
                for log in result.logs]

    assert logs(got) == logs(want)
    assert (got.best_epoch, got.best_test_acc) == (want.best_epoch,
                                                   want.best_test_acc)
    for p, q in zip(got.params, want.params):
        for s, t in zip(p.tensors(), q.tensors()):
            assert s.data.tobytes() == t.data.tobytes()
    # the run selected among epochs of different accuracy
    assert len({log.val_acc for log in got.logs}) > 1
