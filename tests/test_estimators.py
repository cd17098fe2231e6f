"""ARM estimator against enumeration oracles; concrete path against FD."""

import itertools

import mpmath as mp
import numpy as np
import pytest
from scipy.special import expit, logit

from gdcn.errors import ContractViolation, EstimatorFailure
from gdcn.estimators import (ArmDraw, arm_gradient, arm_pi_grad, arm_z1,
                             arm_z2)
from gdcn.graph import build_adjacency, normalize
from gdcn.masks import MaskKind, MaskSpec, sample_concrete_mask
from gdcn.model import (GCNConfig, PreparedGraph, forward, init_params,
                        layer0_blocks, sample_step_masks, sparse_input)
from gdcn.tape import (BlockProducts, Tape, backward, constant, parameter,
                       record_add, record_frobenius_sq, record_masked_nll,
                       record_scale)
from gdcn.variational import KumaraswamyParams, record_kuma_sample

from conftest import (finite_diff, kuma_draw, masked_aggregate, random_edges,
                      rel_err)

mp.mp.dps = 25


def arm_two_evals(loss_eval, draw):
    """``arm_gradient`` with L(Z2) evaluated from ``arm_z2``."""
    return arm_gradient(loss_eval, draw, loss_eval(arm_z2(draw)))


def exact_shared_alpha_gradient(loss_fn, n_vars: int, alpha: float) -> float:
    """Enumeration oracle: d/d alpha E[L(z)], z_i iid Bernoulli(sigmoid(alpha)).

    Uses the exact score-function identity over all 2^n outcomes.
    """
    p = expit(alpha)
    total = 0.0
    for z in itertools.product((0.0, 1.0), repeat=n_vars):
        z = np.array(z)
        prob = np.prod(np.where(z == 1.0, p, 1.0 - p))
        score = np.sum(z - p)
        total += prob * score * loss_fn(z)
    return total


class TestArmGradient:
    def test_constant_loss_identically_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            draw = ArmDraw(u=[rng.random(5)], alpha=np.array([rng.normal()]))
            est = arm_two_evals(lambda z: 3.25, draw)
            assert est.grad_alpha[0] == 0.0

    def test_single_edge_linear_loss(self):
        # L(z) = z: analytic gradient sigma(a)(1-sigma(a)) = 0.25 at a=0
        rng = np.random.default_rng(1)
        total = 0.0
        n = 10 ** 5
        for _ in range(n):
            draw = ArmDraw(u=[rng.random(1)], alpha=np.array([0.0]))
            total += arm_two_evals(lambda z: float(z[0][0]),
                                   draw).grad_alpha[0]
        assert total / n == pytest.approx(0.25, abs=0.005)

    def test_three_edge_quadratic_against_enumeration(self):
        alpha = 0.4
        w = np.array([1.3, -0.7, 0.5])

        def loss(z):
            z = np.asarray(z, dtype=np.float64).ravel()
            return float((w @ z - 0.6) ** 2)

        exact = exact_shared_alpha_gradient(loss, 3, alpha)
        rng = np.random.default_rng(2)
        draws = np.empty(10 ** 5)
        for i in range(len(draws)):
            d = ArmDraw(u=[rng.random(3)], alpha=np.array([alpha]))
            draws[i] = arm_two_evals(lambda z: loss(z[0]), d).grad_alpha[0]
        mean = draws.mean()
        se = draws.std(ddof=1) / np.sqrt(len(draws))
        assert abs(mean - exact) < 4.0 * se
        assert abs(mean - exact) < 0.01 * abs(exact)

    def test_alpha_negation_complements_masks(self):
        """Negating alpha complements the two pseudo-mask settings.

        Z1(-a) = 1 - Z2(a) and Z2(-a) = 1 - Z1(a) for the same u; for a
        linear loss the single-draw estimate is invariant under the flip,
        matching the even analytic gradient sum(w) * sigmoid'(alpha).
        """
        rng = np.random.default_rng(3)
        u = rng.random(4)
        w = np.array([1.0, -2.0, 0.5, 3.0])

        def loss(z):
            return float(np.asarray(z[0]) @ w)

        d_pos = ArmDraw(u=[u.copy()], alpha=np.array([0.8]))
        d_neg = ArmDraw(u=[u.copy()], alpha=np.array([-0.8]))
        z1p, z2p = arm_z1(d_pos), arm_z2(d_pos)
        z1n, z2n = arm_z1(d_neg), arm_z2(d_neg)
        np.testing.assert_array_equal(z1n[0], 1.0 - z2p[0])
        np.testing.assert_array_equal(z2n[0], 1.0 - z1p[0])
        gp = arm_two_evals(loss, d_pos).grad_alpha[0]
        gn = arm_two_evals(loss, d_neg).grad_alpha[0]
        assert gp == pytest.approx(gn)

    def test_non_finite_loss_raises(self):
        draw = ArmDraw(u=[np.array([0.5])], alpha=np.array([0.0]))
        with pytest.raises(EstimatorFailure):
            arm_two_evals(lambda z: float("nan"), draw)

    def test_estimates_finite(self):
        rng = np.random.default_rng(4)
        draw = ArmDraw(u=[rng.random(6), rng.random(3)],
                       alpha=np.array([0.2, -0.5]))
        est = arm_two_evals(
            lambda z: float(sum(np.sum(v) for v in z)), draw)
        assert np.all(np.isfinite(est.grad_alpha))


def arm_kuma_gradient(g_alpha, a, b, u):
    """ARM's d/d alpha carried to (d/da, d/db) the way ``train`` does it:
    ``arm_pi_grad`` seeds one backward pass on the recorded draw (here of
    a loss that does not read it)."""
    kp = KumaraswamyParams(a, b)
    tape = Tape()
    pi = record_kuma_sample(tape, kp.log_a, kp.log_b, u)
    grads = backward(tape, constant(0.0),
                     {pi: arm_pi_grad(pi.item(), g_alpha)})
    return np.array([grads.get(kp.log_a)[0, 0] / kp.a,
                     grads.get(kp.log_b)[0, 0] / kp.b])


class TestPiSeed:
    """ARM's dL/dpi as a ``backward`` seed against the loss term that used
    to carry it: ``record_scale(tape, pi, -g / (pi (1 - pi)))`` added to the
    loss after its value was read."""

    @staticmethod
    def step(g_alphas, as_seed, weight_scaling):
        kumas = [KumaraswamyParams(1.3, 2.4), KumaraswamyParams(0.8, 3.1)]
        w = parameter(np.array([[0.5, -1.5], [2.0, 0.25]]))
        tape = Tape()
        pis = [record_kuma_sample(tape, kp.log_a, kp.log_b, u)
               for kp, u in zip(kumas, (0.3, 0.71))]
        loss = record_frobenius_sq(tape, w)
        if weight_scaling:   # as kl_weight_scaling reads pi, before ARM
            for pi in pis:
                loss = record_add(tape, loss, record_scale(tape, pi, 6.5))
        value = loss.item()
        if as_seed:
            grads = backward(tape, loss, {
                pi: arm_pi_grad(pi.item(), g)
                for pi, g in zip(pis, g_alphas)})
        else:
            for pi, g in zip(pis, g_alphas):
                p = pi.item()
                loss = record_add(tape, loss, record_scale(
                    tape, pi, -g / (p * (1.0 - p))))
            grads = backward(tape, loss)
        out = [grads.get(t) for kp in kumas for t in kp.tensors()]
        return value, out + [grads.get(w)]

    @pytest.mark.parametrize("weight_scaling", [False, True])
    @pytest.mark.parametrize("g_alphas", [(0.37, -1.25), (-2e-3, 4.5)])
    def test_equals_loss_term_bit_for_bit(self, g_alphas, weight_scaling):
        value, got = self.step(g_alphas, True, weight_scaling)
        want_value, want = self.step(g_alphas, False, weight_scaling)
        assert value == want_value
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        assert all(np.any(g != 0.0) for g in got)

    def test_pi_grad_formula(self):
        # bit for bit the loss term's constant, so that training digests
        # do not move
        rng = np.random.default_rng(6)
        for p, g in zip(rng.random(500), rng.normal(size=500)):
            got = arm_pi_grad(float(p), g)
            assert got.shape == (1, 1)
            assert got[0, 0] == float(-g / (float(p) * (1.0 - float(p))))

    def test_seed_shape_checked(self):
        tape = Tape()
        pi = record_kuma_sample(tape, parameter(0.0), parameter(0.0), 0.5)
        with pytest.raises(ContractViolation, match="seed shape"):
            backward(tape, constant(0.0), {pi: np.ones(1)})


class TestChainToKuma:
    """ARM's alpha-gradient chained to (a, b) through the recorded draw."""

    def test_matches_fd_of_composition(self):
        # alpha(a, b) = logit(1 - pi(a, b, u)) at fixed u
        u = 0.25
        a0, b0 = 1.0, 1.0
        got = arm_kuma_gradient(1.0, a0, b0, u)

        def f(v):
            return float(logit(1.0 - kuma_draw(np.log(v[0]), np.log(v[1]),
                                               u)))

        fd = finite_diff(f, np.array([a0, b0]), h=1e-7)
        assert rel_err(got, fd, floor=1e-3) < 1e-6

    def test_full_pipeline_unbiased_for_kuma_parameters(self):
        """ARM + tape route vs a quadrature-FD oracle on a 2-variable toy."""
        a0, b0 = 1.2, 2.0
        w = np.array([1.3, -0.7])

        def loss(z):
            z = np.asarray(z, dtype=np.float64).ravel()
            return float((w @ z + 0.4) ** 2)

        def expected_loss_given_pi(pi):
            # drop indicators are Bernoulli(1 - pi)
            p = 1.0 - pi
            total = 0.0
            for z in itertools.product((0.0, 1.0), repeat=2):
                z = np.array(z)
                prob = np.prod(np.where(z == 1.0, p, 1.0 - p))
                total += prob * loss(z)
            return total

        def objective(v):
            a, b = mp.mpf(float(v[0])), mp.mpf(float(v[1]))
            return float(mp.quad(
                lambda x: a * b * x ** (a - 1) * (1 - x ** a) ** (b - 1)
                * expected_loss_given_pi(float(x)), [0, 1]))

        oracle = finite_diff(objective, np.array([a0, b0]), h=1e-5)

        rng = np.random.default_rng(5)
        n = 30000
        est = np.empty((n, 2))
        for i in range(n):
            u_pi = float(rng.random())
            pi = kuma_draw(np.log(a0), np.log(b0), u_pi)
            draw = ArmDraw(u=[rng.random(2)],
                           alpha=np.array([logit(1.0 - pi)]))
            g_alpha = arm_two_evals(lambda z: loss(z[0]), draw).grad_alpha[0]
            est[i] = arm_kuma_gradient(g_alpha, a0, b0, u_pi)
        mean = est.mean(axis=0)
        se = est.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(mean - oracle) < 4.0 * se)


class TestConcreteGradient:
    def _setup(self, seed=0):
        rng = np.random.default_rng(seed)
        graph = normalize(build_adjacency(random_edges(rng, 4, 0.8), 4))
        from gdcn.graph import EdgeSet
        edges = EdgeSet.from_sparse(graph)
        h = rng.normal(size=(4, 3))
        return graph, edges, h

    def _loss(self, tape, kp, graph, edges, h, u_pi, u_edges, t=0.67):
        pi = record_kuma_sample(tape, kp.log_a, kp.log_b, u_pi)
        mask = sample_concrete_mask(
            edges, MaskSpec(kind=MaskKind.GDC, temperature=t), pi,
            _FixedRng(u_edges))
        out = masked_aggregate(tape, graph, mask.blocks, constant(h),
                               constant(np.eye(h.shape[1])), pi=mask.pi,
                               tangents=mask.tangents)
        return record_frobenius_sq(tape, out)

    def test_matches_finite_differences(self):
        graph, edges, h = self._setup()
        rng = np.random.default_rng(7)
        u_pi = float(rng.random())
        u_edges = rng.random(edges.n_entries)

        kp = KumaraswamyParams(1.3, 2.4)
        tape = Tape()
        loss = self._loss(tape, kp, graph, edges, h, u_pi, u_edges)
        grads = backward(tape, loss)
        g_a = grads.get(kp.log_a)[0, 0] / kp.a
        g_b = grads.get(kp.log_b)[0, 0] / kp.b

        def f(v):
            kp2 = KumaraswamyParams(v[0], v[1])
            t2 = Tape()
            return self._loss(t2, kp2, graph, edges, h, u_pi, u_edges).item()

        fd = finite_diff(f, np.array([1.3, 2.4]), h=1e-6)
        assert rel_err(np.array([g_a, g_b]), fd, floor=1e-3) < 1e-4

    def test_mask_independent_loss_gives_zero(self):
        kp = KumaraswamyParams(1.0, 3.0)
        tape = Tape()
        record_kuma_sample(tape, kp.log_a, kp.log_b, 0.4)
        w = parameter(np.ones((2, 2)))
        loss = record_frobenius_sq(tape, w)
        grads = backward(tape, loss)
        g_a = grads.get(kp.log_a)[0, 0] / kp.a
        g_b = grads.get(kp.log_b)[0, 0] / kp.b
        assert g_a == 0.0 and g_b == 0.0

    def test_pi_half_draw_passes_gradient(self):
        # (a,b)=(1,1) with u=0.5 gives pi=0.5; relaxed mask equals u per
        # entry, and an asymmetric loss still produces a nonzero gradient.
        graph, edges, h = self._setup(seed=2)
        kp = KumaraswamyParams(1.0, 1.0)
        tape = Tape()
        u_edges = np.random.default_rng(3).random(edges.n_entries)
        loss = self._loss(tape, kp, graph, edges, h, 0.5, u_edges)
        grads = backward(tape, loss)
        g_a = grads.get(kp.log_a)[0, 0] / kp.a
        g_b = grads.get(kp.log_b)[0, 0] / kp.b
        assert g_a != 0.0 and g_b != 0.0


class TestConcreteForward:
    def test_three_layer_gdc4_matches_finite_differences(self):
        # (log a, log b) of all three layers through the masks and forward
        # of a training step. Layer 0 multiplies first on a CSR input with
        # supplied products, layer 1 (4 -> 8) aggregates first, layer 2
        # (8 -> 2) multiplies first.
        rng = np.random.default_rng(11)
        n = 9
        graph = PreparedGraph.from_edges(random_edges(rng, n, 0.4), n)
        cfg = GCNConfig(
            layer_dims=[16, 4, 8, 2], estimator="concrete",
            masks=[MaskSpec(kind=MaskKind.GDC, learned=True, relaxed=True,
                            n_blocks=4, symmetric=True) for _ in range(3)])
        params = init_params(cfg, np.random.default_rng(0))
        x0 = rng.random((n, 16))
        x0[x0 < 0.5] = 0.0
        x = sparse_input(constant(x0))
        labels = rng.integers(0, 2, n)
        logs0 = np.log([1.3, 2.4, 0.8, 3.1, 1.7, 1.2])

        def loss_at(logs):
            for l, p in enumerate(params):
                p.kuma = KumaraswamyParams.from_logs(*logs[2 * l:2 * l + 2])
            t = Tape()
            draws = sample_step_masks(cfg, params, graph,
                                      np.random.default_rng(3), tape=t)
            lp = forward(params, x, graph, draws.layer_masks, tape=t,
                         layer0=BlockProducts(layer0_blocks(cfg, x), 4))
            return t, record_masked_nll(t, lp, labels, np.arange(n))

        t, loss = loss_at(logs0)
        grads = backward(t, loss)
        got = np.array([grads.get(v)[0, 0] for p in params
                        for v in (p.kuma.log_a, p.kuma.log_b)])
        fd = finite_diff(lambda v: loss_at(v)[1].item(), logs0, h=1e-6)
        assert np.all(got != 0.0)
        assert rel_err(got, fd, floor=1e-3) < 1e-4


class _FixedRng:
    """Feeds a frozen uniform vector to a sampler expecting a Generator."""

    def __init__(self, values):
        self._values = np.asarray(values, dtype=np.float64)

    def random(self, size=None):
        if size is None:
            return float(self._values[0])
        assert size == (1, len(self._values))
        return self._values.reshape(size).copy()
