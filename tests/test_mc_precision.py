"""Float32 Monte-Carlo passes against float64 passes on the same draws.

``predict_mc`` computes its passes in float32 and finishes each row in
float64. Its mean probabilities must stay within 1e-5 of the float64
passes on every node, for every mask kind and flag that changes what a
pass multiplies, and the call must leave the caller's parameters, graph
and dataset as they were.
"""

import dataclasses

import numpy as np
import pytest

import gdcn.model as gmodel
from gdcn.data import Dataset, make_split
from gdcn.masks import MaskKind, MaskSpec
from gdcn.model import (GCNConfig, PreparedGraph, forward, init_params,
                        predict_mc, sample_step_masks, sparse_input)
from gdcn.tape import constant
from gdcn.training import TrainConfig, train

from conftest import float64_params
from synthetic import cluster_graph

DIMS = [15, 8, 6, 3]
S = 12


def spec(kind, **kw):
    return MaskSpec(kind=kind, **kw)


def layers(*specs):
    """One spec per layer; a single spec serves every layer."""
    return list(specs) * (len(DIMS) - 1) if len(specs) == 1 else list(specs)


GDC_FIXED = spec(MaskKind.GDC, n_blocks=2, keep_prob=0.6, symmetric=True)
GDC_LEARNED = spec(MaskKind.GDC, n_blocks=2, learned=True, relaxed=True,
                   symmetric=True)
DROPEDGE_SYM = spec(MaskKind.DROPEDGE, keep_prob=0.6, symmetric=True)

# name -> GCNConfig keyword arguments, and the graph's renorm_trick
CASES = {
    "dropout": dict(masks=layers(spec(MaskKind.DROPOUT, keep_prob=0.6))),
    "node": dict(masks=layers(spec(MaskKind.NODE_SAMPLING, keep_prob=0.7))),
    "dropedge-symmetric": dict(masks=layers(DROPEDGE_SYM)),
    "dropedge-protected": dict(masks=layers(spec(
        MaskKind.DROPEDGE, keep_prob=0.5, protect_self_loops=True))),
    "gdc-fixed": dict(masks=layers(GDC_FIXED)),
    "gdc-learned-concrete": dict(masks=layers(GDC_LEARNED),
                                 estimator="concrete"),
    "randomwalk": dict(masks=layers(spec(MaskKind.RANDOM_WALK,
                                         keep_prob=0.7))),
    "renorm-after-mask": dict(masks=layers(DROPEDGE_SYM, GDC_FIXED,
                                           DROPEDGE_SYM),
                              renorm_after_mask=True),
    "renorm-after-mask-trick": dict(masks=layers(GDC_FIXED),
                                    renorm_after_mask=True,
                                    renorm_trick=True),
    "bias-dropout-keep": dict(
        masks=layers(spec(MaskKind.DROPEDGE, keep_prob=0.7, dropout_keep=0.8),
                     spec(MaskKind.DROPOUT, keep_prob=0.6),
                     spec(MaskKind.GDC, n_blocks=2, keep_prob=0.7,
                          dropout_keep=0.9)),
        use_bias=True),
}


def dataset():
    features, labels, edges = cluster_graph(
        10, 3, np.random.default_rng(5), noise_features=DIMS[0] - 3)
    ds = Dataset(features=features, labels=labels, edges=edges,
                 class_count=3)
    return make_split(ds, per_class_train=2, n_val=6, n_test=12)


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


def float64_mean(params, x, graph, cfg, rng):
    """The mean of ``S`` passes through ``forward`` on float64 operands,
    with the draws ``predict_mc`` makes."""
    params = float64_params(params)
    xs = sparse_input(x)
    per = []
    for _ in range(S):
        draws = sample_step_masks(cfg, params, graph, rng, mode="mc",
                                  input_nnz=xs.data.nnz)
        per.append(np.exp(forward(params, xs, graph, draws.layer_masks).data))
    return np.mean(per, axis=0)


@pytest.mark.parametrize("name", sorted(CASES))
def test_float32_mean_within_bound_of_float64(name, monkeypatch):
    cfg, ds, graph, params = setup(name)
    x = constant(ds.features)
    before = [t.data.copy() for p in params for t in p.tensors()]
    a_norm = graph.a_norm.copy()
    logits = []

    def spy(tape, t):
        logits.append(t.data.dtype)
        return log_softmax(tape, t)

    log_softmax = gmodel.record_log_softmax_rows
    monkeypatch.setattr(gmodel, "record_log_softmax_rows", spy)
    mean, per = predict_mc(params, x, graph, cfg, S, np.random.default_rng(3))
    # no float64 operand promoted a pass back to float64
    assert logits == [np.float32] * S
    monkeypatch.undo()
    want = float64_mean(params, x, graph, cfg, np.random.default_rng(3))

    assert mean.dtype == np.float64 and per.dtype == np.float64
    assert np.abs(mean - want).max() <= 1e-5
    assert np.all(np.abs(mean.sum(axis=1) - 1.0) <= 1e-9)
    again = predict_mc(params, x, graph, cfg, S, np.random.default_rng(3))
    assert np.array_equal(again[0], mean) and np.array_equal(again[1], per)
    # the caller's parameters and graph keep their dtypes and values
    after = [t.data for p in params for t in p.tensors()]
    assert all(a.dtype == b.dtype and np.array_equal(a, b)
               for a, b in zip(after, before))
    assert graph.a_norm.dtype == np.float64
    assert np.array_equal(graph.a_norm.data, a_norm.data)


@pytest.mark.parametrize("name", ["gdc-learned-concrete", "dropout"])
def test_train_after_predict_mc_unchanged(name):
    """``predict_mc`` on the dataset's own CSR input leaves that input,
    the graph and the next ``train`` as they were."""
    cfg, ds, graph, _ = setup(name)
    tc = TrainConfig(epochs=3, seeds=(0,))
    first = train(ds, cfg, tc, seed=0, graph=graph)
    csr = ds.features_csr()
    before = csr.copy()
    x = constant(csr)
    predict_mc(first.params, x, graph, cfg, S, np.random.default_rng(3))
    assert ds.features_csr() is csr
    assert csr.dtype == before.dtype == np.float32
    for attr in ("data", "indices", "indptr"):
        a, b = getattr(csr, attr), getattr(before, attr)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), attr
    for p in first.params:
        assert all(t.data.dtype == np.float32
                   for t in (p.m, p.bias) if t is not None)
        assert all(t.data.dtype == np.float64
                   for t in (p.kuma.tensors() if p.kuma else ()))
    second = train(ds, cfg, tc, seed=0, graph=graph)

    def logs(result):
        return [dataclasses.replace(log, wall_time=0.0)
                for log in result.logs]

    assert logs(second) == logs(first)
    for p, q in zip(first.params, second.params):
        for s, t in zip(p.tensors(), q.tensors()):
            assert np.array_equal(s.data, t.data)
