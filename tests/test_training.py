"""Adam, the training loop, early stopping, and seed summaries."""

import dataclasses

import numpy as np
import pytest

from gdcn.data import Dataset, Split, load_content_cites, make_split
from gdcn.errors import ContractViolation
from gdcn.masks import MaskKind, MaskSpec
from gdcn.model import GCNConfig, PreparedGraph
from gdcn.tape import parameter
from gdcn.training import (AdamState, EpochLog, TrainConfig, adam_step,
                           epoch_log_rows, run_seeds, train)
from gdcn.variational import WarmupSchedule

from conftest import finite_diff, kuma_draw, rel_err
from synthetic import cluster_graph


class TestAdam:
    def test_zero_gradient_fresh_state(self):
        w = parameter(np.array([[1.0, -2.0]]))
        state = AdamState()
        ok = adam_step([w], {w: np.zeros((1, 2))}, state, lr=0.1)
        assert ok
        np.testing.assert_array_equal(w.data, [[1.0, -2.0]])

    def test_first_step_is_signed_lr(self):
        w = parameter(np.array([[1.0, 1.0]]))
        g = np.array([[0.3, -7.0]])
        adam_step([w], {w: g}, AdamState(), lr=0.05)
        np.testing.assert_allclose(w.data, [[1.0 - 0.05, 1.0 + 0.05]], atol=1e-6)

    def test_quadratic_descent(self):
        w = parameter(np.array([[1.0]]))
        state = AdamState()
        for _ in range(100):
            adam_step([w], {w: 2.0 * w.data}, state, lr=0.1)
        assert abs(w.data[0, 0]) < 0.1

    def test_non_finite_rejected(self):
        w = parameter(np.array([[1.0]]))
        state = AdamState()
        ok = adam_step([w], {w: np.array([[np.nan]])}, state, lr=0.1)
        assert not ok and state.rejected == 1
        assert w.data[0, 0] == 1.0

    def test_moments_decay_after_reject_free_zero_step(self):
        w = parameter(np.array([[1.0]]))
        state = AdamState()
        adam_step([w], {w: np.array([[4.0]])}, state, lr=0.0)
        m_before = state.m[w].copy()
        adam_step([w], {w: np.array([[0.0]])}, state, lr=0.0)
        assert abs(state.m[w][0, 0]) < abs(m_before[0, 0])

    def test_in_place_steps_equal_the_formula(self):
        # 50 steps, one of them rejected, against Adam's formula written
        # out with fresh arrays: parameters and moments bit for bit.
        rng = np.random.default_rng(0)
        shapes = [(7, 5), (1, 5), (1, 1)]
        tensors = [parameter(rng.normal(size=s)) for s in shapes]
        want = [t.data.copy() for t in tensors]
        m = [np.zeros(s) for s in shapes]
        v = [np.zeros(s) for s in shapes]
        state = AdamState()
        b1, b2, eps, lr, steps = 0.9, 0.999, 1e-8, 0.01, 0
        for step in range(50):
            grads = [rng.normal(size=s) * 10.0 ** rng.integers(-3, 3)
                     for s in shapes]
            if step == 17:
                grads[1][0, 2] = np.inf
            ok = adam_step(tensors, dict(zip(tensors, grads)), state, lr)
            assert ok == (step != 17)
            if ok:
                steps += 1
                bc1, bc2 = 1.0 - b1 ** steps, 1.0 - b2 ** steps
                for i, g in enumerate(grads):
                    m[i] = b1 * m[i] + (1.0 - b1) * g
                    v[i] = b2 * v[i] + (1.0 - b2) * g * g
                    want[i] = want[i] - lr * (m[i] / bc1) / (
                        np.sqrt(v[i] / bc2) + eps)
            for i, t in enumerate(tensors):
                assert t.data.tobytes() == want[i].tobytes()
                assert state.m[t].tobytes() == m[i].tobytes()
                assert state.v[t].tobytes() == v[i].tobytes()
        assert state.t == 49 and state.rejected == 1


def synthetic_dataset(n_per=10, clusters=2, seed=3, **kwargs):
    features, labels, edges = cluster_graph(n_per, clusters,
                                            np.random.default_rng(seed),
                                            **kwargs)
    ds = Dataset(features=features, labels=labels, edges=edges,
                 class_count=clusters)
    return make_split(ds, per_class_train=2, n_val=4, n_test=6)


def small_config(f_in, classes, kind=MaskKind.DROPOUT, keep=0.9, hidden=16,
                 learned=False, estimator="none", n_blocks=1):
    masks = [MaskSpec(kind=kind, keep_prob=keep, learned=learned,
                      relaxed=(estimator == "concrete" and learned),
                      n_blocks=n_blocks)
             for _ in range(2)]
    return GCNConfig(layer_dims=[f_in, hidden, classes], masks=masks,
                     estimator=estimator)


class TestTrain:
    def test_zero_epochs_returns_initial_params(self):
        ds = synthetic_dataset()
        cfg = small_config(ds.n_features, ds.class_count)
        tc = TrainConfig(epochs=0, seeds=(0,))
        res = train(ds, cfg, tc, seed=0)
        from gdcn.model import init_params
        want = init_params(cfg, np.random.default_rng(0))
        for a, b in zip(res.params, want):
            assert np.array_equal(a.m.data, b.m.data)

    def test_negative_epochs_rejected(self):
        with pytest.raises(ContractViolation, match="epochs must be non-negative"):
            TrainConfig(epochs=-1)

    @pytest.mark.parametrize("key", ["lr", "l2_factor"])
    @pytest.mark.parametrize("value", [-1.0, float("nan")])
    def test_negative_or_nan_step_sizes_rejected(self, key, value):
        with pytest.raises(ContractViolation, match=f"{key} must be"):
            TrainConfig(**{key: value})

    @pytest.mark.parametrize("flag", ["renorm_trick", "renorm_after_mask"])
    def test_graph_must_follow_config_rules(self, flag):
        ds = synthetic_dataset()
        cfg = dataclasses.replace(small_config(ds.n_features, ds.class_count),
                                  **{flag: True})
        tc = TrainConfig(epochs=2, seeds=(0,))
        default = PreparedGraph.from_edges(ds.edges, ds.n_nodes)
        with pytest.raises(ContractViolation, match=flag):
            train(ds, cfg, tc, seed=0, graph=default)
        with pytest.raises(ContractViolation, match=flag):
            run_seeds(ds, cfg, tc, graph=default)
        matching = PreparedGraph.from_edges(ds.edges, ds.n_nodes, **{flag: True})
        assert ([log.train_loss for log in train(ds, cfg, tc, 0).logs]
                == [log.train_loss for log in
                    train(ds, cfg, tc, 0, graph=matching).logs])

    def test_lr_zero_leaves_params_unchanged(self):
        ds = synthetic_dataset()
        cfg = small_config(ds.n_features, ds.class_count)
        tc = TrainConfig(epochs=5, lr=0.0, seeds=(0,))
        res = train(ds, cfg, tc, seed=0)
        from gdcn.model import init_params
        want = init_params(cfg, np.random.default_rng(0))
        for a, b in zip(res.params, want):
            assert np.array_equal(a.m.data, b.m.data)

    def test_separable_synthetic_reaches_full_accuracy(self):
        # two dense clusters with clean one-hot cluster features
        ds = synthetic_dataset(intra_prob=0.8, noise_features=0,
                               feature_flip=0.0)
        cfg = small_config(ds.n_features, ds.class_count, keep=0.9)
        tc = TrainConfig(epochs=200, lr=0.01, l2_factor=1e-4, patience=200,
                         seeds=(0,))
        res = train(ds, cfg, tc, seed=0)
        assert res.best_test_acc == 1.0
        assert len(res.logs) <= 200

    def test_early_stopping_keeps_best_validation(self):
        ds = synthetic_dataset()
        cfg = small_config(ds.n_features, ds.class_count)
        tc = TrainConfig(epochs=120, lr=0.01, patience=15, seeds=(0,))
        res = train(ds, cfg, tc, seed=1)
        logged_best = max(log.val_acc for log in res.logs)
        assert res.best_val_acc == logged_best

    def test_stop_reason_patience(self):
        ds = synthetic_dataset()
        cfg = small_config(ds.n_features, ds.class_count)
        tc = TrainConfig(epochs=500, lr=0.01, patience=3, seeds=(0,))
        res = train(ds, cfg, tc, seed=1)
        assert res.stop_reason == "patience"
        assert len(res.logs) < tc.epochs
        assert len(res.logs) - 1 - res.best_epoch == tc.patience

    def test_stop_reason_max_epochs(self):
        ds = synthetic_dataset()
        cfg = small_config(ds.n_features, ds.class_count)
        tc = TrainConfig(epochs=3, patience=200, seeds=(0,))
        res = train(ds, cfg, tc, seed=1)
        assert res.stop_reason == "max_epochs"
        assert len(res.logs) == tc.epochs

    def test_features_reassigned_after_training_are_used(self):
        # train keeps the CSR form of the features array it read; a new
        # array must be converted again, not read from the kept form.
        ds = synthetic_dataset()
        cfg = small_config(ds.n_features, ds.class_count)
        tc = TrainConfig(epochs=3, seeds=(0,))
        first = train(ds, cfg, tc, seed=1)
        again = train(ds, cfg, tc, seed=1)
        assert ([log.train_loss for log in again.logs]
                == [log.train_loss for log in first.logs])
        scaled = 0.5 * ds.features
        ds.features = scaled
        fresh = dataclasses.replace(ds, features=scaled.copy())
        got = [log.train_loss for log in train(ds, cfg, tc, seed=1).logs]
        assert got == [log.train_loss for log in
                       train(fresh, cfg, tc, seed=1).logs]
        assert got != [log.train_loss for log in first.logs]

    @pytest.mark.parametrize("kind,estimator", [
        (MaskKind.GDC, "arm"), (MaskKind.DROPOUT, "none")])
    def test_bool_features_train_as_float64(self, synthetic_files, kind,
                                            estimator):
        # Features as loaded, not normalized, are bools; they must train bit
        # for bit as the same matrix in float64.
        ds = make_split(load_content_cites(*synthetic_files),
                        per_class_train=2, n_val=4, n_test=6)
        assert ds.features.dtype == bool
        as_float = dataclasses.replace(
            ds, features=ds.features.astype(np.float64))
        cfg = small_config(ds.n_features, ds.class_count, kind=kind,
                           learned=estimator != "none", estimator=estimator,
                           n_blocks=2 if kind == MaskKind.GDC else 1)
        tc = TrainConfig(epochs=4, lr=0.05, patience=4, seeds=(0,))
        got, want = (train(d, cfg, tc, seed=0) for d in (ds, as_float))
        assert [dataclasses.replace(e, wall_time=0.0) for e in got.logs] \
            == [dataclasses.replace(e, wall_time=0.0) for e in want.logs]
        for a, b in zip(got.params, want.params):
            for t, u in zip(a.tensors(), b.tensors()):
                assert np.array_equal(t.data, u.data)

    def test_kl_column_zero_for_fixed_rates(self):
        ds = synthetic_dataset()
        cfg = small_config(ds.n_features, ds.class_count)
        tc = TrainConfig(epochs=3, seeds=(0,))
        res = train(ds, cfg, tc, seed=0)
        assert all(log.kl == 0.0 for log in res.logs)

    def test_learned_gdc_concrete_trains(self):
        ds = synthetic_dataset()
        cfg = small_config(ds.n_features, ds.class_count, kind=MaskKind.GDC,
                           learned=True, estimator="concrete", n_blocks=2)
        tc = TrainConfig(epochs=60, lr=0.02, l2_factor=1e-4, patience=60,
                         warmup=WarmupSchedule(20), seeds=(0,))
        res = train(ds, cfg, tc, seed=0)
        assert res.best_test_acc >= 0.8
        assert all(np.isfinite(log.train_loss) for log in res.logs)
        assert res.logs[-1].kl != 0.0

    def test_learned_dropedge_arm_trains(self):
        ds = synthetic_dataset()
        cfg = small_config(ds.n_features, ds.class_count,
                           kind=MaskKind.DROPEDGE, learned=True,
                           estimator="arm")
        tc = TrainConfig(epochs=60, lr=0.02, l2_factor=1e-4, patience=60,
                         warmup=WarmupSchedule(20), seeds=(0,))
        res = train(ds, cfg, tc, seed=0)
        assert res.best_test_acc >= 0.8

    def test_arm_recorded_nll_equals_second_evaluation(self, monkeypatch):
        # L(Z2) taken from the recorded pass must equal a separate forward
        # on Z2, so the estimate matches the two-evaluation one bit for bit.
        import gdcn.training as training
        from gdcn.estimators import arm_gradient, arm_z2
        checked = []

        def two_evals(loss_eval, draw, loss2):
            got = arm_gradient(loss_eval, draw, loss2)
            want = arm_gradient(loss_eval, draw,
                                loss_eval(arm_z2(draw)))
            checked.append(np.array_equal(got.grad_alpha, want.grad_alpha)
                           and got.delta_loss == want.delta_loss)
            return got

        monkeypatch.setattr(training, "arm_gradient", two_evals)
        ds = synthetic_dataset()
        # hidden 3 with 2 blocks: layer 1 aggregates first (3 < 2 * 2)
        cfg = small_config(ds.n_features, ds.class_count, kind=MaskKind.GDC,
                           learned=True, estimator="arm", n_blocks=2,
                           hidden=3)
        tc = TrainConfig(epochs=8, lr=0.05, patience=8, seeds=(0,))
        train(ds, cfg, tc, seed=0)
        assert checked == [True] * 8

    @pytest.mark.parametrize("estimator", ["arm", "concrete"])
    def test_backward_gets_the_loss_and_arms_seeds(self, monkeypatch,
                                                   estimator):
        # The loss tensor holds the logged loss; ARM's estimate enters
        # backward as one seed per learned layer, on its recorded draw.
        import gdcn.training as training
        real = training.backward
        calls = []

        def spy(tape, loss, seeds=None):
            calls.append((loss.item(), seeds))
            return real(tape, loss, seeds)

        monkeypatch.setattr(training, "backward", spy)
        ds = synthetic_dataset()
        cfg = small_config(ds.n_features, ds.class_count, kind=MaskKind.GDC,
                           learned=True, estimator=estimator, n_blocks=2)
        res = train(ds, cfg, TrainConfig(epochs=3, patience=3, seeds=(0,)),
                    seed=0)
        assert [v for v, _ in calls] == [log.train_loss for log in res.logs]
        for _, seeds in calls:
            if estimator == "concrete":
                assert seeds is None
                continue
            assert len(seeds) == cfg.n_layers
            for pi, g in seeds.items():
                assert pi.requires_grad and 0.0 < pi.item() < 1.0
                assert g.shape == (1, 1) and np.isfinite(g[0, 0])

    @pytest.mark.parametrize("kind,estimator", [
        (MaskKind.GDC, "arm"), (MaskKind.GDC, "concrete"),
        (MaskKind.DROPOUT, "none")])
    def test_loss_row_plan_changes_nothing(self, monkeypatch, kind,
                                           estimator):
        # Every step of a run on the training nodes' receptive fields must
        # give, on its parameters and draws, the loss and gradients of a
        # step whose passes compute every row (a plan over all nodes that
        # reads the training rows). Their sums run over other rows, which
        # a GEMM may block otherwise, so they agree to rounding: within
        # BOUND of the sum of the absolute values of their terms, the float32
        # step's bound (tests/test_train_precision.py), as TestPiTangent's.
        import gdcn.training as training
        from gdcn.model import LossRows, loss_rows
        from test_train_precision import (BOUND, recorded_step, scales,
                                          within_bound)
        real = training.step_gradients
        checked = []

        def step(cfg, tc, epoch, params, params32, rng, x, graph, plan,
                 labels, observed):
            every = loss_rows(graph, np.arange(graph.edges.n), cfg.n_layers)
            full = LossRows(layers=every.layers, observed=ds.split.train)
            full_inputs = full.loss_inputs(ds.labels)
            twin = np.random.default_rng()
            twin.bit_generator.state = rng.bit_generator.state
            with recorded_step() as seen:
                want = real(cfg, tc, epoch, params, params32, twin, x, graph,
                            full, *full_inputs)
            got = real(cfg, tc, epoch, params, params32, rng, x, graph, plan,
                       labels, observed)
            assert len(plan.layers[0].out) < graph.edges.n
            assert rng.bit_generator.state == twin.bit_generator.state
            scale = scales(cfg, tc.l2_factor, graph, params, seen, want,
                           full_inputs)
            checked.append(within_bound(got, want, scale, BOUND))
            return got

        ds = synthetic_dataset(n_per=20, intra_prob=0.15)
        learned = estimator != "none"
        cfg = small_config(ds.n_features, ds.class_count, kind=kind,
                           learned=learned, estimator=estimator,
                           n_blocks=2 if kind == MaskKind.GDC else 1)
        tc = TrainConfig(epochs=4, lr=0.05, patience=4, seeds=(0,))
        monkeypatch.setattr(training, "step_gradients", step)
        train(ds, cfg, tc, seed=0)
        assert checked == [True] * tc.epochs

    def test_step_gradients_add_the_master_penalty(self):
        # The passes run on float32 copies and the weight penalty on the
        # float64 masters: on the same draws, raising l2_factor by c adds
        # exactly 2 c W to every weight's gradient, and nothing elsewhere.
        from gdcn.model import float32_operands, init_params, loss_rows
        from gdcn.tape import constant
        from gdcn.training import step_gradients
        ds = synthetic_dataset()
        graph = PreparedGraph.from_edges(ds.edges, ds.n_nodes)
        cfg = small_config(ds.n_features, ds.class_count, kind=MaskKind.GDC,
                           learned=True, estimator="concrete", n_blocks=2)
        params = init_params(cfg, np.random.default_rng(0))
        params32, x, graph32 = float32_operands(
            params, constant(ds.features_csr()), graph)
        plan = loss_rows(graph32, ds.split.train, cfg.n_layers)

        def grads(l2):
            return step_gradients(cfg, TrainConfig(l2_factor=l2), 0, params,
                                  params32, np.random.default_rng(1), x,
                                  graph32, plan,
                                  *plan.loss_inputs(ds.labels))[3]

        base, more = grads(0.0), grads(0.25)
        for p in params:
            assert more[p.m].dtype == np.float64
            np.testing.assert_allclose(more[p.m] - base[p.m], 0.5 * p.m.data,
                                       rtol=1e-12, atol=1e-15)
            for t in p.kuma.tensors():
                assert np.array_equal(more[t], base[t])

    def test_kl_weight_scaling_loss(self, monkeypatch):
        # One epoch at lr 0 on one draw: with the flag the weight penalty is
        # sum_l |E| pi_l / 2 ||M_l||^2, without it l2_factor * sum ||M_l||^2.
        import gdcn.training as training
        sample = training.sample_step_masks
        drawn = []

        def recording(*args, **kwargs):
            drawn.append(sample(*args, **kwargs))
            return drawn[-1]

        monkeypatch.setattr(training, "sample_step_masks", recording)
        ds = synthetic_dataset()
        graph = PreparedGraph.from_edges(ds.edges, ds.n_nodes)
        flat = small_config(ds.n_features, ds.class_count, kind=MaskKind.GDC,
                            learned=True, estimator="concrete", n_blocks=2)
        tc = TrainConfig(epochs=1, lr=0.0, l2_factor=0.01, seeds=(0,))
        logs, pis, fros = [], [], []
        for cfg in (flat, dataclasses.replace(flat, kl_weight_scaling=True)):
            drawn.clear()
            res = train(ds, cfg, tc, seed=0, graph=graph)
            logs.append(res.logs[0])
            pis.append([pi.item() for pi in drawn[0].pi_tensors])
            fros.append([np.sum(p.m.data ** 2) for p in res.params])
        assert pis[0] == pis[1] and fros[0] == fros[1]
        flat_log, scaled_log = logs
        n_e = graph.edges.n_entries
        want = (scaled_log.nll + scaled_log.kl
                + sum(n_e * pi / 2.0 * f for pi, f in zip(pis[1], fros[1])))
        assert scaled_log.train_loss == pytest.approx(want, rel=1e-12)
        assert flat_log.train_loss == pytest.approx(
            flat_log.nll + flat_log.kl + 0.01 * sum(fros[0]), rel=1e-12)
        assert scaled_log.nll == flat_log.nll and scaled_log.kl == flat_log.kl
        assert scaled_log.train_loss != pytest.approx(flat_log.train_loss)

    def test_arm_kl_weight_scaling_reaches_drop_rate(self, monkeypatch):
        # One ARM epoch at lr 0 on one draw, with and without the flag. The
        # ARM and KL parts of the (log a, log b) gradients are the same in
        # both runs, so they differ by the pathwise gradient of the flag's
        # |E| pi_l / 2 ||M_l||^2, that is |E|/2 ||M_l||^2 d pi_l/d(log a, log b).
        import gdcn.training as training
        sample, adam = training.sample_step_masks, training.adam_step
        drawn, steps = [], []

        def recording(*args, **kwargs):
            drawn.append(sample(*args, **kwargs))
            return drawn[-1]

        def capturing(tensors, grads, state, lr):
            steps.append([grads[t].copy() for t in tensors])
            return adam(tensors, grads, state, lr)

        monkeypatch.setattr(training, "sample_step_masks", recording)
        monkeypatch.setattr(training, "adam_step", capturing)
        ds = synthetic_dataset()
        graph = PreparedGraph.from_edges(ds.edges, ds.n_nodes)
        flat = small_config(ds.n_features, ds.class_count, kind=MaskKind.GDC,
                            learned=True, estimator="arm", n_blocks=2)
        tc = TrainConfig(epochs=1, lr=0.0, seeds=(0,))
        runs = []
        for cfg in (flat, dataclasses.replace(flat, kl_weight_scaling=True)):
            drawn.clear()
            steps.clear()
            res = train(ds, cfg, tc, seed=0, graph=graph)
            runs.append(([pi.item() for pi in drawn[0].pi_tensors], steps[0],
                         res.params))
        (pis, g_flat, _), (pis_scaled, g_scaled, params) = runs
        assert pis == pis_scaled
        n_e = graph.edges.n_entries
        for l, (p, pi) in enumerate(zip(params, pis)):
            log_ab = np.array([p.kuma.log_a.item(), p.kuma.log_b.item()])
            # the step's uniform, recovered from its draw by the inverse map
            u = (1.0 - pi ** p.kuma.a) ** p.kuma.b
            assert kuma_draw(*log_ab, u) == pytest.approx(pi, rel=1e-12)
            d_pi = finite_diff(lambda v: kuma_draw(v[0], v[1], u), log_ab,
                               h=1e-7)
            want = n_e / 2.0 * np.sum(p.m.data ** 2) * d_pi
            # tensors per layer: m, log_a, log_b
            got = np.array([g_scaled[3 * l + k][0, 0] - g_flat[3 * l + k][0, 0]
                            for k in (1, 2)])
            assert rel_err(got, want, floor=1e-3) < 1e-5

    def test_kl_full_series_changes_kl_only(self):
        # With c = 2 and two layers the prior Beta(c/L, c(L-1)/L) is
        # Beta(1, 1), for which the closed form is exact; c = 4 gives
        # Beta(2, 2), where the two forms differ.
        ds = synthetic_dataset()
        tc = TrainConfig(epochs=1, lr=0.0, seeds=(0,))
        for c, differs in ((2.0, False), (4.0, True)):
            base = dataclasses.replace(
                small_config(ds.n_features, ds.class_count, kind=MaskKind.GDC,
                             learned=True, estimator="concrete", n_blocks=2),
                beta_prior_c=c)
            closed, series = (
                train(ds, cfg, tc, seed=0).logs[0]
                for cfg in (base, dataclasses.replace(base,
                                                      kl_full_series=True)))
            assert series.nll == closed.nll
            assert (series.kl != pytest.approx(closed.kl, rel=1e-9)) == differs

    def test_concrete_standard_changes_relaxed_masks(self):
        ds = synthetic_dataset()
        base = small_config(ds.n_features, ds.class_count, kind=MaskKind.GDC,
                            learned=True, estimator="concrete", n_blocks=2)
        tc = TrainConfig(epochs=1, lr=0.0, seeds=(0,))
        paper, standard = (
            train(ds, cfg, tc, seed=0).logs[0]
            for cfg in (base, dataclasses.replace(base, concrete_standard=True)))
        assert standard.kl == paper.kl
        assert standard.nll != pytest.approx(paper.nll)

    @pytest.mark.parametrize("estimator", ["concrete", "arm"])
    def test_kuma_init_b_changes_the_result(self, estimator):
        # With a = 1 the posterior's mean keep probability starts at
        # 1 / (1 + b): 0.25 at the default b = 3, 0.5 at b = 1.
        ds = synthetic_dataset()
        base = small_config(ds.n_features, ds.class_count, kind=MaskKind.GDC,
                            learned=True, estimator=estimator, n_blocks=2)
        tc = TrainConfig(epochs=1, seeds=(0,))
        default, other = (
            train(ds, cfg, tc, seed=0).logs[0]
            for cfg in (base, dataclasses.replace(base, kuma_init_b=1.0)))
        assert np.all(np.abs(np.subtract(other.keep_probs,
                                         default.keep_probs)) > 0.1)
        assert other.train_loss != pytest.approx(default.train_loss)

    def test_keep_probs_move_when_learned(self):
        ds = synthetic_dataset()
        cfg = small_config(ds.n_features, ds.class_count, kind=MaskKind.GDC,
                           learned=True, estimator="concrete")
        tc = TrainConfig(epochs=40, lr=0.05, patience=40, seeds=(0,))
        res = train(ds, cfg, tc, seed=0)
        assert res.logs[-1].keep_probs != res.logs[0].keep_probs

    def test_hidden_hook_called_every_epoch(self):
        ds = synthetic_dataset()
        cfg = small_config(ds.n_features, ds.class_count)
        tc = TrainConfig(epochs=4, seeds=(0,))
        seen = []
        train(ds, cfg, tc, seed=0,
              hidden_hook=lambda e, h: seen.append((e, len(h))))
        assert seen == [(0, 1), (1, 1), (2, 1), (3, 1)]


class TestRunSeeds:
    def test_single_seed_zero_std(self):
        ds = synthetic_dataset()
        cfg = small_config(ds.n_features, ds.class_count)
        tc = TrainConfig(epochs=5, seeds=(0,))
        summary = run_seeds(ds, cfg, tc)
        assert summary.std_acc == 0.0
        assert len(summary.results) == 1

    def test_duplicate_seeds_identical(self):
        ds = synthetic_dataset()
        cfg = small_config(ds.n_features, ds.class_count)
        tc = TrainConfig(epochs=5, seeds=(3, 3))
        summary = run_seeds(ds, cfg, tc)
        assert summary.results[0].test_acc == summary.results[1].test_acc
        assert summary.std_acc == 0.0

    def test_rerun_bitwise_identical(self):
        ds = synthetic_dataset()
        cfg = small_config(ds.n_features, ds.class_count)
        tc = TrainConfig(epochs=8, seeds=(1, 2))

        def weights():
            summary = run_seeds(ds, small_config(ds.n_features, ds.class_count),
                                tc)
            return [p.m.data.copy() for r in summary.results
                    for p in r.result.params]

        for a, b in zip(weights(), weights()):
            assert np.array_equal(a, b)


class TestEpochCsv:
    def test_header_and_row_order(self):
        logs = [EpochLog(epoch=0, train_loss=1.5, nll=1.0, kl=0.25,
                         val_acc=0.5, test_acc=0.4, keep_probs=[0.9, 0.8],
                         wall_time=0.01, clamp_events=3, adam_rejected=1)]
        rows = epoch_log_rows(logs)
        assert rows[0] == ("epoch,train_loss,nll,kl,val_acc,test_acc,"
                           "keep_probs,wall_time,clamp_events,adam_rejected")
        assert rows[1] == "0,1.5,1.0,0.25,0.5,0.4,0.9;0.8,0.01,3,1"


class TestHealthCounters:
    def test_clamped_keep_draws_are_counted(self):
        # At kuma_init_b = 0.05 a keep draw hits its upper clamp wherever
        # its uniform lies below 1e-10 ** 0.05, about 0.32 of the draws.
        ds = synthetic_dataset()
        cfg = dataclasses.replace(
            small_config(ds.n_features, ds.class_count, kind=MaskKind.GDC,
                         learned=True, estimator="concrete"),
            kuma_init_b=0.05)
        res = train(ds, cfg, TrainConfig(epochs=6, patience=6), seed=0)
        assert sum(e.clamp_events for e in res.logs) > 0
        assert all(0 <= e.clamp_events <= 2 for e in res.logs)
        assert all(e.adam_rejected == 0 for e in res.logs)

    def test_rejected_adam_steps_are_counted(self, monkeypatch):
        # A NaN gradient in epoch 1 makes adam_step reject that step only.
        import gdcn.training as training
        real = training.step_gradients

        def step(*args):
            loss, nll, kl, grads, clamps = real(*args)
            if args[2] == 1:
                t = next(iter(grads))
                grads[t] = np.full_like(grads[t], np.nan)
            return loss, nll, kl, grads, clamps

        monkeypatch.setattr(training, "step_gradients", step)
        ds = synthetic_dataset()
        cfg = small_config(ds.n_features, ds.class_count)
        res = train(ds, cfg, TrainConfig(epochs=3, patience=3), seed=0)
        assert [e.adam_rejected for e in res.logs] == [0, 1, 0]
        assert all(e.clamp_events == 0 for e in res.logs)
