"""A float32 training step's gradients against the float64 step's on the
same draws.

``training.train`` runs every pass on float32 weights and biases, and
takes their gradients in float32. One step's loss and gradients (dW, db,
d(log a) and d(log b)) must stay within a bound of those of the same step
on float64 copies of the same weights, for every mask kind and both
estimators. As in ``tests/test_tape.py::TestPiTangent``, the bound is
relative to the sum of the absolute values of the terms each quantity
sums, taken from the float64 step. H and G are float32 results themselves,
so their scales are those of an absolute pass (``absolute_pass``): every
operand replaced by its absolute value, with the float64 step's ReLU and
mask pattern.

- dW of a layer sums ``H[i, f] A_b[j, i] G[j, o]`` over the block b of
  feature f, so its scale is ``|H_b|^T |A_b|^T |G|``, with G the gradient
  at the layer's aggregation output, plus the weight penalty's ``|2 c W|``
  (c the flat ``l2_factor``, or ``|E| pi / 2`` under
  ``kl_weight_scaling``); db sums G's rows, scale ``sum |G|``.
- The loss's scale is the sum of its parts' magnitudes and, for the NLL,
  the mean over the loss rows of the absolute logit of the label and the
  largest absolute logit.
- d(log a) and d(log b) differ between the two steps only through dL/dpi
  (the KL, the draw's derivative and the weight penalty are float64 in
  both), so their scale is dL/dpi's times ``|dpi/d log a|`` (or ``b``).
  Concrete's dL/dpi sums ``G[j, o] T_b[e] H[i, f] W[f, o]`` over the
  entries e = (j, i): scale ``sum |G| * (|T_b| |H_b| |W_b|)``. ARM's is
  ``(L(Z1) - L(Z2)) sum (u - 1/2) / (pi (1 - pi))``: scale
  ``(|L(Z1)| + |L(Z2)|) |sum (u - 1/2)| / (pi (1 - pi))``.
"""

from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

import gdcn.model as gmodel
import gdcn.training as gtraining
from gdcn.graph import spmm, spmm_t
from gdcn.masks import MaskKind
from gdcn.model import (GCNConfig, PreparedGraph, float32_operands,
                        init_params, loss_rows)
from gdcn.tape import backward, block_bounds, constant
from gdcn.training import TrainConfig, step_gradients

from conftest import float64_params
from test_mc_precision import DIMS, dataset, layers, spec

# |float32 - float64| <= BOUND * (sum of absolute terms). float32's unit
# roundoff is 6e-8; the largest ratio measured over these cases is 1.3e-7,
# on one and on two BLAS threads, and float32 gradients scaled by 1 + 1e-5
# fail every case.
BOUND = 1e-6
L2 = 5e-3

GDC = spec(MaskKind.GDC, n_blocks=2, keep_prob=0.6, symmetric=True)
GDC_LEARNED = spec(MaskKind.GDC, n_blocks=2, learned=True, symmetric=True)
DROPEDGE_LEARNED = spec(MaskKind.DROPEDGE, learned=True)
# The concrete estimator trains relaxed masks on learned layers.
GDC_RELAXED = spec(MaskKind.GDC, n_blocks=2, learned=True, relaxed=True,
                   symmetric=True)
DROPEDGE_RELAXED = spec(MaskKind.DROPEDGE, learned=True, relaxed=True)

# name -> GCNConfig keyword arguments
CASES = {
    "none": dict(masks=layers(spec(MaskKind.NONE)), use_bias=True),
    "dropout": dict(masks=layers(spec(MaskKind.DROPOUT, keep_prob=0.6)),
                    use_bias=True),
    "node": dict(masks=layers(spec(MaskKind.NODE_SAMPLING, keep_prob=0.7))),
    "dropedge": dict(masks=layers(spec(MaskKind.DROPEDGE, keep_prob=0.6,
                                       protect_self_loops=True))),
    "gdc": dict(masks=layers(GDC), use_bias=True),
    "randomwalk": dict(masks=layers(spec(MaskKind.RANDOM_WALK,
                                         keep_prob=0.7))),
    "gdc-concrete": dict(masks=layers(GDC_RELAXED), estimator="concrete"),
    "gdc-concrete-kl-weight": dict(masks=layers(GDC_RELAXED),
                                   estimator="concrete",
                                   kl_weight_scaling=True),
    "gdc-arm": dict(masks=layers(GDC_LEARNED), estimator="arm",
                    use_bias=True),
    "dropedge-concrete": dict(masks=layers(DROPEDGE_RELAXED),
                              estimator="concrete"),
    "dropedge-arm": dict(masks=layers(DROPEDGE_LEARNED), estimator="arm"),
}


def setup(name):
    cfg = GCNConfig(layer_dims=DIMS, **CASES[name])
    ds = dataset()
    graph = PreparedGraph.from_edges(ds.edges, ds.n_nodes)
    params = init_params(cfg, np.random.default_rng(1))
    for p in params:
        if p.bias is not None:
            p.bias.data[:] = np.random.default_rng(2).normal(
                size=p.bias.data.shape)
    return cfg, ds, graph, params


@contextmanager
def recorded_step():
    """While active, what a training step records goes into the yielded
    dict: each taped aggregation's operands and output, the draws, ARM's
    draw and losses, and the tape and its gradient store."""
    seen = {"aggregates": [], "draws": None, "arm": None, "tape": None,
            "grads": None}
    real = {name: getattr(mod, name) for mod, name in (
        (gmodel, "record_gdc_aggregate"), (gtraining, "sample_step_masks"),
        (gtraining, "arm_gradient"), (gtraining, "backward"))}

    def aggregate(tape, a, values, h, w, pi=None, tangents=None,
                  products=None):
        out = real["record_gdc_aggregate"](tape, a, values, h, w, pi=pi,
                                           tangents=tangents,
                                           products=products)
        if tape is not None:
            seen["aggregates"].append((a, values, h, w, tangents, out))
        return out

    def sample(*args, **kwargs):
        seen["draws"] = real["sample_step_masks"](*args, **kwargs)
        return seen["draws"]

    def arm(loss_eval, draw, loss2):
        est = real["arm_gradient"](loss_eval, draw, loss2)
        seen["arm"] = (draw, est.delta_loss + loss2, loss2)
        return est

    def back(tape, loss, seeds=None):
        seen["tape"] = tape
        seen["grads"] = real["backward"](tape, loss, seeds)
        return seen["grads"]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gmodel, "record_gdc_aggregate", aggregate)
        mp.setattr(gtraining, "sample_step_masks", sample)
        mp.setattr(gtraining, "arm_gradient", arm)
        mp.setattr(gtraining, "backward", back)
        yield seen


def run_step(cfg, ds, graph, params, x):
    """``step_gradients`` on ``params``, ``x`` and ``graph``, on the
    training nodes' plan, with the draws of rng 7; returns its result, the
    plan's labels and observed positions, and what it recorded."""
    plan = loss_rows(graph, ds.split.train, cfg.n_layers)
    labels, observed = plan.loss_inputs(ds.labels)
    with recorded_step() as seen:
        result = step_gradients(cfg, TrainConfig(l2_factor=L2), 0, params,
                                np.random.default_rng(7), x, graph, plan,
                                labels, observed)
    return result, (labels, observed), seen


def absolute_pass(params, seen):
    """The step's operand scales: ``(Hs, Gs)``. Hs holds each layer's
    absolute input (``|H_0|`` at layer 0, then ``I * (sum_b |A_b| Hs_b
    |W_b| + |bias|)`` with I where the layer's input is nonzero) and, last,
    the absolute logits; Gs holds each layer's absolute aggregation
    gradient (``|G|`` at the last layer, then ``I * sum_b |A_b|^T Gs_b
    |W_b|^T``). Each bounds the sum of the absolute terms of its value, so
    the rounding of H and G themselves counts in the scale of the sums
    that read them."""
    aggs = seen["aggregates"]
    hs = [abs(aggs[0][2].data)]
    for l, ((a, values, h, w, _, _), p) in enumerate(zip(aggs, params)):
        out = np.zeros((a.shape[0], w.shape[1]))
        bounds = block_bounds(w.shape[0], len(values))
        for v, (c0, c1) in zip(values, bounds):
            out += spmm(a, hs[-1][:, c0:c1] @ np.abs(w.data[c0:c1]),
                        values=np.abs(v))
        if p.bias is not None:
            out += np.abs(p.bias.data)
        if l + 1 < len(aggs):
            out *= aggs[l + 1][2].data != 0
        hs.append(out)
    gs = [np.abs(seen["grads"].get(aggs[-1][5]))]
    for (a, values, h, w, _, _) in reversed(aggs[1:]):
        d = np.empty(h.data.shape)
        bounds = block_bounds(w.shape[0], len(values))
        for v, (c0, c1) in zip(values, bounds):
            d[:, c0:c1] = spmm_t(a, gs[0], values=np.abs(v)) @ np.abs(
                w.data[c0:c1]).T
        gs.insert(0, (h.data != 0) * d)
    return hs, gs


def pi_scale(cfg, graph, p, seen, l, a, tangents, hs, w, gs):
    """The sum of the absolute terms of dL/dpi at learned layer ``l``."""
    if cfg.estimator == "concrete":
        total = 0.0
        bounds = block_bounds(w.shape[0], len(tangents))
        for t_b, (c0, c1) in zip(tangents, bounds):
            hw = hs[:, c0:c1] @ np.abs(w[c0:c1])
            total += np.sum(gs * spmm(a, hw, values=np.abs(t_b)))
    else:
        draw, loss1, loss2 = seen["arm"]
        k = sum(s.learned for s in cfg.masks[:l])
        pi = seen["draws"].pi_tensors[l].item()
        total = ((abs(loss1) + abs(loss2)) * abs(np.sum(draw.u[k] - 0.5))
                 / (pi * (1.0 - pi)))
    if cfg.kl_weight_scaling:
        total += graph.edges.n_entries / 2.0 * np.sum(p.m.data ** 2)
    return total


def scales(cfg, l2, graph, params, seen, result, loss_inputs):
    """The sum of the absolute terms of every gradient, and under
    the key ``"loss"`` of the loss: its parts, and for the NLL the absolute
    logits of each loss row's label and of its largest entry."""
    out = {}
    hs, gs = absolute_pass(params, seen)
    for l, (p, (a, values, h, w, tangents, agg)) in enumerate(
            zip(params, seen["aggregates"])):
        wd = w.data
        bounds = block_bounds(wd.shape[0], len(values))
        dw = np.empty(wd.shape)
        for v, (c0, c1) in zip(values, bounds):
            dw[c0:c1] = hs[l][:, c0:c1].T @ spmm_t(a, gs[l],
                                                   values=np.abs(v))
        # the weight penalty's term: 2 c W with c = l2, or |E| pi_l / 2
        # under kl_weight_scaling
        c = (graph.edges.n_entries / 2.0 * seen["draws"].pi_tensors[l].item()
             if cfg.kl_weight_scaling else l2)
        out[p.m] = dw + np.abs(2.0 * c * p.m.data)
        if p.bias is not None:
            out[p.bias] = gs[l].sum(axis=0, keepdims=True)
        if p.kuma is not None:
            pi = seen["draws"].pi_tensors[l]
            m_pi = pi_scale(cfg, graph, p, seen, l, a, tangents, hs[l], wd,
                            gs[l])
            slope = backward(seen["tape"], pi)
            for t in p.kuma.tensors():
                out[t] = m_pi * np.abs(slope.get(t))
    labels, observed = loss_inputs
    logits = hs[-1][observed]
    out["loss"] = sum(abs(v) for v in result[:3]) + np.mean(
        logits[np.arange(len(observed)), labels[observed]]
        + logits.max(axis=1))
    return out


def within_bound(got, want, scale, bound):
    """Whether the loss and every gradient of step result ``got`` lie
    within ``bound`` times their scale of ``want``'s."""
    return (abs(got[0] - want[0]) <= bound * scale["loss"]
            and set(got[3]) == set(want[3])
            and all(np.all(np.abs(got[3][t] - want[3][t])
                           <= bound * scale[t]) for t in got[3]))


@pytest.mark.parametrize("name", sorted(CASES))
def test_float32_step_within_bound_of_float64(name):
    cfg, ds, graph, params = setup(name)
    x = constant(ds.features_csr())
    _, x32, graph32 = float32_operands(params, x, graph)
    got, _, seen32 = run_step(cfg, ds, graph32, params, x32)
    # the passes ran in float32, and so did their backward down to the
    # weights and biases
    assert all(agg.data.dtype == seen32["grads"].get(agg).dtype == np.float32
               for *_, agg in seen32["aggregates"])
    tensors = [t for p in params for t in p.tensors()]
    assert set(got[3]) == set(tensors)
    assert all(got[3][t].dtype == t.data.dtype for t in tensors)
    assert all(t.data.dtype == np.float32
               for p in params for t in (p.m, p.bias) if t is not None)
    params64 = float64_params(params)
    want, loss_inputs, seen = run_step(cfg, ds, graph, params64, x)
    assert all(agg.data.dtype == np.float64 for *_, agg in seen["aggregates"])
    # the same tensors' gradients, keyed by the float64 copies
    tensors64 = [t for p in params64 for t in p.tensors()]
    got = (*got[:3], {t64: got[3][t] for t, t64 in zip(tensors, tensors64)},
           got[4])
    scale = scales(cfg, L2, graph, params64, seen, want, loss_inputs)
    assert within_bound(got, want, scale, BOUND)
    # the float32 step is no float64 step: some gradient differs
    assert any(not np.array_equal(got[3][t], want[3][t]) for t in tensors64)
