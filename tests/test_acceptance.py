"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion. Criteria 5, 8, and the Cora half of 6 need the published Cora
content/cites files (place them under ``data/cora/`` or point
``GDCN_DATA_DIR`` at them); they skip with a clear message when the files
are absent, since this environment cannot download datasets.
"""

import itertools
import os

import numpy as np
import pytest
from scipy.special import expit

import gdcn.data as data_io
from gdcn.cli import main
from gdcn.estimators import ArmDraw, arm_gradient, arm_z2
from gdcn.graph import build_adjacency, lambda_max
from gdcn.masks import (EdgeMask, MaskKind, MaskSpec, sample_dropedge_mask,
                        sample_dropout_mask, sample_gdc_masks,
                        sample_node_mask)
from gdcn.metrics import pavpu, total_variation, uncertainty_report
from gdcn.model import (GCNConfig, LayerMasks, PreparedGraph, forward,
                        init_params, predict_mc, record_kl_terms,
                        sample_step_masks, training_loss)
from gdcn.tape import Tape, backward, constant
from gdcn.training import TrainConfig, run_seeds
from gdcn.variational import WarmupSchedule, kl_kuma_beta

from conftest import (cora_dir, dense_normalize, finite_diff,
                      float64_params, mask_values, random_edges,
                      requires_cora)
from synthetic import make_synthetic_files
from test_variational import kl_quadrature

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

CORA_SKIP_NOTE = ("SKIPPED: Cora content/cites files are not available and "
                  "cannot be downloaded in this environment; supply them in "
                  "data/cora/ to run this criterion")


def report(num, text):
    print(f"\n[criterion {num}] PASS: {text}")


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness on a random 2-layer model


def test_criterion_1_gradient_correctness():
    rng = np.random.default_rng(0)
    n, f_in, hidden, classes = 12, 8, 6, 3
    graph = PreparedGraph.from_edges(random_edges(rng, n, 0.4), n)
    x_data = rng.normal(size=(n, f_in))
    labels = rng.integers(0, classes, size=n)
    observed = np.arange(0, n, 2)
    masks_spec = [MaskSpec(kind=MaskKind.GDC, learned=True, relaxed=True,
                           n_blocks=nb) for nb in (1, 2)]
    config = GCNConfig(layer_dims=[f_in, hidden, classes], masks=masks_spec,
                       estimator="concrete")
    # float64 weights, so that the pass and its gradients stay float64
    params = float64_params(init_params(config, rng))
    tensors = [t for p in params for t in p.tensors()]

    # frozen noise so the loss is a deterministic function of the parameters
    u_pis = [0.31, 0.77]

    def eval_loss():
        tape = Tape()
        frozen = _FrozenNoise(u_pis, list(frozen_edges))
        draws = sample_step_masks(config, params, graph, frozen, tape=tape,
                                  mode="train")
        lp = forward(params, constant(x_data), graph, draws.layer_masks,
                     tape=tape)
        kl_terms = record_kl_terms(tape, config, params)
        return tape, training_loss(tape, lp, labels, observed, params,
                                   kl_terms, 5e-3, 0.6)

    rng2 = np.random.default_rng(1)
    frozen_edges = [rng2.random(graph.edges.n_entries) for _ in range(3)]

    tape, loss = eval_loss()
    grads = backward(tape, loss)

    flat0 = np.concatenate([t.data.ravel() for t in tensors])

    def loss_at(flat):
        pos = 0
        for t in tensors:
            t.data = flat[pos:pos + t.data.size].reshape(t.data.shape).copy()
            pos += t.data.size
        _, l = eval_loss()
        return l.item()

    fd = finite_diff(loss_at, flat0, h=1e-5)
    loss_at(flat0)  # restore
    got = np.concatenate([grads.get(t).ravel() for t in tensors])
    denom = np.maximum(np.maximum(np.abs(got), np.abs(fd)), 1e-4)
    worst = float(np.max(np.abs(got - fd) / denom))
    assert worst < 1e-4, f"worst relative gradient error {worst}"
    report(1, f"all {len(flat0)} gradients match finite differences "
              f"(worst relative error {worst:.2e} < 1e-4)")


class _FrozenNoise:
    """Replays fixed uniforms: scalars for pi draws, vectors for edges
    (one per block of an edge mask's (blocks, entries) draw)."""

    def __init__(self, scalars, vectors):
        self._scalars = list(scalars)
        self._vectors = list(vectors)
        self._si = 0

    def random(self, size=None):
        if size is None:
            val = self._scalars[self._si % len(self._scalars)]
            self._si += 1
            return val
        rows, cols = size
        return np.stack([self._vectors.pop(0)[:cols] for _ in range(rows)])


# ---------------------------------------------------------------------------
# criterion 2: ARM unbiasedness against an enumeration oracle


def test_criterion_2_arm_unbiasedness():
    alpha = 0.3
    w = np.array([1.1, -0.8, 0.6])

    def loss(z):
        z = np.asarray(z, dtype=np.float64).ravel()
        return float((w @ z - 0.5) ** 2)

    p = expit(alpha)
    exact = 0.0
    for zz in itertools.product((0.0, 1.0), repeat=3):
        zz = np.array(zz)
        prob = np.prod(np.where(zz == 1.0, p, 1.0 - p))
        exact += prob * np.sum(zz - p) * loss(zz)

    rng = np.random.default_rng(7)
    n = 10 ** 5
    draws = np.empty(n)
    for i in range(n):
        d = ArmDraw(u=[rng.random(3)], alpha=np.array([alpha]))
        draws[i] = arm_gradient(lambda z: loss(z[0]), d,
                                loss(arm_z2(d)[0])).grad_alpha[0]
    mean = draws.mean()
    se = draws.std(ddof=1) / np.sqrt(n)
    assert abs(mean - exact) < 4.0 * se, (mean, exact, se)
    assert abs(mean - exact) < 0.01 * abs(exact), (mean, exact)
    report(2, f"ARM mean {mean:.5f} vs exact {exact:.5f} "
              f"({abs(mean - exact) / abs(exact) * 100:.2f}% < 1%, "
              f"|z| = {abs(mean - exact) / se:.2f} < 4)")


# ---------------------------------------------------------------------------
# criterion 3: KL closed form against quadrature


def test_criterion_3_kl_closed_form():
    c, L = 2.0, 2
    worst = 0.0
    for a in (0.5, 1.0, 2.0):
        for b in (1.0, 2.0, 4.0):
            got = kl_kuma_beta(a, b, c, L)
            want = kl_quadrature(a, b, c / L, 1.0)
            worst = max(worst, abs(got - want))
    assert worst < 1e-6, worst
    assert kl_kuma_beta(c / L, 1.0, c, L) == 0.0
    report(3, f"closed-form KL matches quadrature on the 9-point grid "
              f"(worst |diff| {worst:.2e} < 1e-6) and is exactly 0 at (c/L, 1)")


# ---------------------------------------------------------------------------
# criterion 4: regularizer equivalences against dense oracles


def _plain_params(dims, seed=0):
    masks = [MaskSpec() for _ in range(len(dims) - 1)]
    cfg = GCNConfig(layer_dims=dims, masks=masks)
    return init_params(cfg, np.random.default_rng(seed))


def _dense_mask(es, vals):
    out = np.zeros((es.n, es.n))
    out[es.rows, es.cols] = vals
    return out


def _log_softmax(x):
    s = x - x.max(axis=1, keepdims=True)
    return s - np.log(np.exp(s).sum(axis=1, keepdims=True))


def test_criterion_4_regularizer_equivalences():
    rng = np.random.default_rng(3)
    n, f_in, classes = 5, 4, 3
    graph = PreparedGraph.from_edges(random_edges(rng, n, 0.7), n)
    a = graph.a_norm.toarray()
    x = rng.normal(size=(n, f_in))
    params = _plain_params([f_in, classes], seed=5)
    w = params[0].m.data

    # (a) GDC with 1 symmetric block == DropEdge, identical RNG stream
    m_gdc = sample_gdc_masks(graph.edges,
                             MaskSpec(kind=MaskKind.GDC, symmetric=True),
                             0.6, np.random.default_rng(11))
    m_de = sample_dropedge_mask(graph.edges,
                                MaskSpec(kind=MaskKind.DROPEDGE, symmetric=True),
                                0.6, np.random.default_rng(11))
    assert np.array_equal(mask_values(m_gdc), mask_values(m_de))
    out_gdc = forward(params, constant(x), graph,
                      [LayerMasks(edge=m_gdc)]).data
    out_de = forward(params, constant(x), graph, [LayerMasks(edge=m_de)]).data
    assert np.array_equal(out_gdc, out_de)
    # dense oracle of the (pre-normalized) DropEdge form
    want_de = _log_softmax((a * _dense_mask(graph.edges, mask_values(m_de)[0]))
                           @ x @ w)
    np.testing.assert_allclose(out_de, want_de, atol=1e-12)

    # (b) GDC with row-broadcast masks == DropOut (dense Eq. 1 oracle)
    z_do = sample_dropout_mask(n, f_in, 0.5, rng)
    blocks = [constant(z_do[graph.edges.cols, i]) for i in range(f_in)]
    em = EdgeMask(blocks=blocks)
    out_bcast = forward(params, constant(x), graph,
                        [LayerMasks(edge=em)]).data
    want_do = _log_softmax(a @ (z_do * x) @ w)
    np.testing.assert_allclose(out_bcast, want_do, atol=1e-12)

    # (c) node mask == DropOut with whole rows zeroed (dense Eq. 3 oracle)
    z_node = sample_node_mask(n, 0.5, rng)
    out_node = forward(params, constant(x), graph,
                       [LayerMasks(feature=z_node.reshape(-1, 1))]).data
    want_node = _log_softmax(a @ np.diag(z_node) @ x @ w)
    np.testing.assert_allclose(out_node, want_node, atol=1e-12)
    row_do = np.broadcast_to(z_node.reshape(-1, 1), (n, f_in)).copy()
    out_rowdo = forward(params, constant(x), graph,
                        [LayerMasks(feature=row_do)]).data
    np.testing.assert_allclose(out_node, out_rowdo, atol=1e-12)
    report(4, "GDC(nb=1, symmetric) == DropEdge; row-broadcast GDC == DropOut; "
              "node mask == row-zeroing DropOut (dense oracles, 1e-12)")


# ---------------------------------------------------------------------------
# Cora protocol helpers (criteria 5, 6, 8)


def _load_cora():
    d = cora_dir()
    ds = data_io.load_content_cites(os.path.join(d, "cora.content"),
                                    os.path.join(d, "cora.cites"))
    assert ds.n_nodes == 2708 and ds.n_features == 1433
    assert ds.class_count == 7 and len(ds.edges) == 5278
    ds.features = data_io.row_normalize(ds.features)
    return data_io.make_split(ds, per_class_train=20, n_val=500, n_test=1000)


def _cora_gcn_config(ds, depth, variant):
    dims = [ds.n_features] + [128] * (depth - 1) + [ds.class_count]
    if variant == "do":
        masks = [MaskSpec(kind=MaskKind.DROPOUT, keep_prob=0.5)
                 for _ in range(depth)]
        return GCNConfig(layer_dims=dims, masks=masks)
    # Self-loops stay unmasked: the GDC mask carries the sparsity of A and
    # the identity part of the normalization is added after masking.
    masks = [MaskSpec(kind=MaskKind.GDC, learned=True, relaxed=True,
                      n_blocks=(1 if l == 0 else 2),
                      protect_self_loops=True)
             for l in range(depth)]
    return GCNConfig(layer_dims=dims, masks=masks, estimator="concrete")


def _cora_train_config(depth):
    return TrainConfig(epochs=2000, lr=0.005, l2_factor=5e-3,
                       warmup=WarmupSchedule(20) if depth > 2 else None,
                       patience=200, seeds=(0, 1, 2, 3, 4))


_cora_cache = {}


def _cora_summary(depth, variant):
    key = (depth, variant)
    if key not in _cora_cache:
        ds = _load_cora()
        graph = PreparedGraph.from_edges(ds.edges, ds.n_nodes)
        _cora_cache[key] = (ds, graph, run_seeds(
            ds, _cora_gcn_config(ds, depth, variant),
            _cora_train_config(depth), graph=graph))
    return _cora_cache[key]


@requires_cora
def test_criterion_5_cora_reproduction():
    _, _, do2 = _cora_summary(2, "do")
    assert 0.78 <= do2.mean_acc <= 0.83, do2.mean_acc
    _, _, bb2 = _cora_summary(2, "bbgdc")
    assert 0.79 <= bb2.mean_acc <= 0.84, bb2.mean_acc
    _, _, do4 = _cora_summary(4, "do")
    _, _, bb4 = _cora_summary(4, "bbgdc")
    assert bb4.mean_acc > do4.mean_acc, (bb4.mean_acc, do4.mean_acc)
    report(5, f"Cora: GCN-DO 2L {do2.mean_acc:.4f} in [0.78, 0.83]; "
              f"BBGDC 2L {bb2.mean_acc:.4f} in [0.79, 0.84]; "
              f"BBGDC 4L {bb4.mean_acc:.4f} > GCN-DO 4L {do4.mean_acc:.4f}")


def test_criterion_6_pavpu_unit_parts():
    # frac = 1 marks every node certain, so PAvPU equals accuracy
    rng = np.random.default_rng(1)
    correct = rng.random(200) < 0.81
    entropy = rng.random(200) * 1.4
    out, _, _ = pavpu(correct, entropy, [1.0])
    assert out[0] == pytest.approx(correct.mean(), abs=1e-15)
    # the four-node counting case is exactly 1/2
    out, _, _ = pavpu(np.array([True, True, False, False]),
                      np.array([0.1, 0.9, 0.2, 1.0]), [0.5])
    assert out[0] == 0.5
    report(6, "PAvPU(frac=1) == accuracy; 4-node counting case == 0.5 "
              "(Cora comparison reported separately)")


@requires_cora
def test_criterion_6_pavpu_cora_directional():
    ds, graph, do4 = _cora_summary(4, "do")
    _, _, bb4 = _cora_summary(4, "bbgdc")
    fracs = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    x = constant(ds.features)
    rng = np.random.default_rng(0)

    def rep(summary, variant):
        params = summary.results[0].result.params
        cfg = _cora_gcn_config(ds, 4, variant)
        mean_probs, _ = predict_mc(params, x, graph, cfg, 20, rng)
        return uncertainty_report(mean_probs, ds.labels, ds.split.test, fracs)

    r_do = rep(do4, "do")
    r_bb = rep(bb4, "bbgdc")
    wins = int(np.sum(r_bb.pavpu >= r_do.pavpu))
    assert wins > len(fracs) // 2, (r_bb.pavpu, r_do.pavpu)
    report(6, f"Cora PAvPU: BBGDC >= DO at {wins}/{len(fracs)} fracs")


def test_criterion_7_tv_diagnostics(tmp_path):
    # constant signal on a k-regular graph has zero total variation
    a = build_adjacency([(i, (i + 1) % 8) for i in range(8)], 8)
    lam, _ = lambda_max(a)
    tv = total_variation(np.full((8, 2), 2.2), a, lam)
    assert tv == pytest.approx(0.0, abs=1e-12)

    # tracking mode emits every hidden layer at every epoch (4-layer setup)
    content, cites = make_synthetic_files(str(tmp_path / "synth"),
                                          n_per_cluster=10, n_clusters=3)
    out = str(tmp_path / "diag")
    cfg_path = tmp_path / "diag.ini"
    cfg_path.write_text(
        f"[data]\ncontent = {content}\ncites = {cites}\n"
        "per_class_train = 2\nn_val = 4\nn_test = 6\n"
        "[model]\nhidden_dims = 16,16,16\nregularizer = gdc\nlearned = true\n"
        "estimator = concrete\nn_blocks = 1,2\n"
        "[train]\nepochs = 8\nseeds = 0\npatience = 8\nwarmup_ramp = 5\n"
        f"[output]\ndir = {out}\n", encoding="utf-8")
    assert main(["diagnose", "--config", str(cfg_path)]) == 0
    rows = [r.split(",") for r in
            open(os.path.join(out, "tv.csv")).read().splitlines()[1:]]
    epochs = sorted({int(r[0]) for r in rows})
    assert epochs == list(range(8))
    for e in epochs:
        layers = sorted(int(r[1]) for r in rows if int(r[0]) == e)
        assert layers == [0, 1, 2], f"epoch {e} tracked layers {layers}"
    report(7, "TV of constant signal on k-regular graph == 0; tv.csv tracks "
              "every hidden layer at every epoch")


@requires_cora
def test_criterion_8_block_sweep_cora(tmp_path):
    d = cora_dir()
    out = str(tmp_path / "blocks")
    cfg_path = tmp_path / "blocks.ini"
    cfg_path.write_text(
        f"[data]\ncontent = {os.path.join(d, 'cora.content')}\n"
        f"cites = {os.path.join(d, 'cora.cites')}\n"
        "[model]\nhidden_dims = 128,128,128\nregularizer = gdc\n"
        "learned = true\nestimator = concrete\nn_blocks = 1,2\n"
        "[train]\nepochs = 600\npatience = 150\nseeds = 0,1\nwarmup_ramp = 20\n"
        "[sweep]\nblocks = 1,2,4\n"
        f"[output]\ndir = {out}\n", encoding="utf-8")
    assert main(["sweep-blocks", "--config", str(cfg_path)]) == 0
    rows = open(os.path.join(out, "block_sweep.csv")).read().splitlines()
    assert rows[0] == "n_blocks,mean_acc,std_acc"
    assert [r.split(",")[0] for r in rows[1:]] == ["1", "2", "4"]
    report(8, "sweep-blocks over {1,2,4} on Cora emitted one row per setting")


def test_criterion_9_determinism(tmp_path):
    content, cites = make_synthetic_files(str(tmp_path / "synth"),
                                          n_per_cluster=10, n_clusters=3)
    out = str(tmp_path / "run")
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(
        f"[data]\ncontent = {content}\ncites = {cites}\n"
        "per_class_train = 2\nn_val = 4\nn_test = 6\n"
        "[model]\nhidden_dims = 16\nregularizer = gdc\nlearned = true\n"
        "estimator = concrete\nn_blocks = 1,2\n"
        "[train]\nepochs = 20\nseeds = 0,1,2\npatience = 20\n"
        f"[output]\ndir = {out}\n", encoding="utf-8")
    assert main(["train", "--config", str(cfg_path)]) == 0
    first = open(os.path.join(out, "summary.csv"), "rb").read()
    assert main(["train", "--config", str(cfg_path)]) == 0
    second = open(os.path.join(out, "summary.csv"), "rb").read()
    assert first == second
    report(9, "repeated cmd_train produced bitwise-identical summary.csv")
