"""Kumaraswamy posterior machinery against quadrature and sampling oracles."""

import mpmath as mp
import numpy as np
import pytest
from scipy import stats
from scipy.special import beta as beta_fn

from gdcn.errors import ContractViolation
from gdcn.model import LayerParams, training_loss
from gdcn.tape import Tape, backward, constant, parameter, record_scale
from gdcn.variational import (BetaPrior, KumaraswamyParams, WarmupSchedule,
                              kl_kuma_beta, kl_kuma_beta_partials,
                              kuma_mean, record_kl_kuma_beta,
                              record_kuma_sample, warmup_factor)

from conftest import finite_diff, kuma_draw, rel_err

mp.mp.dps = 30


def kl_quadrature(a, b, alpha, beta_p):
    """tanh-sinh quadrature of KL(Kumaraswamy(a,b) || Beta(alpha,beta))."""
    a, b, alpha, beta_p = map(mp.mpf, (a, b, alpha, beta_p))
    log_b_fn = mp.log(mp.beta(alpha, beta_p))

    def integrand(x):
        q = a * b * x ** (a - 1) * (1 - x ** a) ** (b - 1)
        logp = (alpha - 1) * mp.log(x) + (beta_p - 1) * mp.log(1 - x) - log_b_fn
        return q * (mp.log(q) - logp)

    return float(mp.quad(integrand, [0, 1]))


class TestKumaSample:
    """The draw of ``record_kuma_sample``; (log a, log b) = (0, 0) is
    a = b = 1."""

    def test_uniform_case(self):
        assert kuma_draw(0.0, 0.0, 0.25) == pytest.approx(0.75)

    def test_boundary_u_clamped(self):
        assert 0.0 < kuma_draw(0.0, 0.0, 0.0) < 1.0
        assert 0.0 < kuma_draw(0.0, 0.0, 1.0) < 1.0

    def test_a1_b1_is_uniform_ks(self):
        rng = np.random.default_rng(0)
        draws = np.array([kuma_draw(0.0, 0.0, u) for u in rng.random(10 ** 5)])
        stat, _ = stats.kstest(draws, "uniform")
        assert stat < 0.01

    def test_mean_matches_beta_function(self):
        a, b = 2.0, 3.0
        rng = np.random.default_rng(1)
        u = rng.random(10 ** 6)
        draws = (1.0 - u ** (1.0 / b)) ** (1.0 / a)
        assert draws.mean() == pytest.approx(kuma_mean(a, b), abs=0.002)

    def test_invalid_params(self):
        # Log values make every finite (a, b) positive; a = exp(-inf) = 0
        # and a negative a are rejected when the parameters are made.
        with pytest.raises(ContractViolation):
            KumaraswamyParams.from_logs(-np.inf, 0.0)
        with pytest.raises(ContractViolation):
            KumaraswamyParams(-1.0, 1.0)


class TestKumaPdf:
    def test_integrates_to_one(self):
        for a in (0.5, 1.0, 2.0, 5.0):
            for b in (0.5, 1.0, 2.0, 5.0):
                total = float(mp.quad(
                    lambda x, a=a, b=b: mp.mpf(a) * b * x ** (a - 1)
                    * (1 - x ** a) ** (b - 1), [0, 1]))
                assert total == pytest.approx(1.0, abs=1e-8)

    def test_sample_pdf_consistency_chisquare(self):
        """Histogram of draws matches the density (chi^2 p > 0.01)."""
        rng = np.random.default_rng(3)
        for a in (0.5, 1.0, 2.0, 5.0):
            for b in (0.5, 1.0, 2.0, 5.0):
                u = rng.random(10 ** 6)
                draws = (1.0 - u ** (1.0 / b)) ** (1.0 / a)
                # equiprobable bins via the closed-form CDF 1 - (1-x^a)^b
                qs = np.linspace(0.0, 1.0, 41)[1:-1]
                edges = (1.0 - (1.0 - qs) ** (1.0 / b)) ** (1.0 / a)
                edges = np.concatenate([[0.0], edges, [1.0]])
                counts, _ = np.histogram(draws, bins=edges)
                _, p = stats.chisquare(counts)
                assert p > 0.01, (a, b, p)


class TestKlKumaBeta:
    def test_zero_at_matching_point(self):
        # Kumaraswamy(alpha, 1) == Beta(alpha, 1)
        for c, L in ((2.0, 2), (2.0, 4), (1.0, 1)):
            assert kl_kuma_beta(c / L, 1.0, c, L) == 0.0

    def test_printed_plug_in(self):
        # c=2, L=2 (alpha=1), a=1, b=2: log(2) - 1/2
        assert kl_kuma_beta(1.0, 2.0, 2.0, 2) == pytest.approx(
            np.log(2.0) - 0.5, abs=1e-12)
        assert kl_kuma_beta(1.0, 2.0, 2.0, 2) == pytest.approx(0.19315, abs=1e-5)

    def test_matches_quadrature_on_grid(self):
        c, L = 2.0, 2
        for a in (0.5, 1.0, 2.0):
            for b in (1.0, 2.0, 4.0):
                want = kl_quadrature(a, b, c / L, 1.0)
                got = kl_kuma_beta(a, b, c, L)
                assert got == pytest.approx(want, abs=1e-6), (a, b)

    def test_full_series_within_truncation_tail(self):
        """Truncated-series KL differs from true KL by at most the tail."""
        c, L = 2.0, 4
        prior = BetaPrior(c, L)
        for a in (0.5, 1.0, 2.0):
            for b in (1.0, 2.0, 4.0):
                want = kl_quadrature(a, b, prior.alpha, prior.beta)
                got = kl_kuma_beta(a, b, c, L, full_series=True)
                m = np.arange(11, 20001, dtype=np.float64)
                tail = (prior.beta - 1.0) * b * np.sum(
                    beta_fn(m / a, b) / (m + a * b))
                assert abs(want - got) <= abs(tail) * 1.02 + 1e-8, (a, b)

    def test_partials_match_finite_differences(self):
        for full in (False, True):
            for a in (0.5, 1.3, 2.0):
                for b in (0.7, 1.0, 3.0):
                    d_a, d_b = kl_kuma_beta_partials(a, b, 2.0, 3,
                                                     full_series=full)
                    fd = finite_diff(
                        lambda v: kl_kuma_beta(v[0], v[1], 2.0, 3,
                                               full_series=full),
                        np.array([a, b]), h=1e-6)
                    assert rel_err(np.array([d_a, d_b]), fd, floor=1e-3) < 1e-6


class TestRecordedOps:
    def test_kuma_sample_gradients(self):
        u = 0.37

        def f(v):
            return kuma_draw(v[0], v[1], u)

        x0 = np.array([np.log(1.4), np.log(2.2)])
        t = Tape()
        log_a = parameter(x0[0])
        log_b = parameter(x0[1])
        pi = record_kuma_sample(t, log_a, log_b, u)
        g = backward(t, pi)
        fd = finite_diff(f, x0, h=1e-7)
        got = np.array([g.get(log_a)[0, 0], g.get(log_b)[0, 0]])
        assert rel_err(got, fd, floor=1e-3) < 1e-5

    def test_kl_record_matches_pure(self):
        t = Tape()
        log_a = parameter(np.log(1.5))
        log_b = parameter(np.log(2.5))
        kl = record_kl_kuma_beta(t, log_a, log_b, 2.0, 2)
        assert kl.item() == pytest.approx(kl_kuma_beta(1.5, 2.5, 2.0, 2))
        g = backward(t, kl)
        d_a, d_b = kl_kuma_beta_partials(1.5, 2.5, 2.0, 2)
        assert g.get(log_a)[0, 0] == pytest.approx(d_a * 1.5)
        assert g.get(log_b)[0, 0] == pytest.approx(d_b * 2.5)


class TestWeightKl:
    """Weight part of the layer KL, ``|E| pi / 2 * ||M||^2``, as the
    training loss applies it through per-layer ``weight_coefs``."""

    @staticmethod
    def weight_term(m, pi_keep, n_edges):
        t = Tape()
        coef = record_scale(t, constant(pi_keep), n_edges / 2.0)
        # one node, one class: log-probability 0, so the NLL is 0
        nll_free = constant(np.zeros((1, 1)))
        loss = training_loss(t, nll_free, np.array([0]), np.array([0]),
                             [LayerParams(m=parameter(m))], [], 0.0, 1.0,
                             weight_coefs=[coef])
        return loss.item()

    def test_zero_weights(self):
        assert self.weight_term(np.zeros((3, 3)), 0.5, 10) == 0.0

    def test_plug_in(self):
        # coefficient 0.5 with |E| = 1: 0.5 * ||I_2||^2 = 1.0
        assert self.weight_term(np.eye(2), 1.0, 1) == pytest.approx(1.0)


class TestWarmup:
    def test_epoch_zero(self):
        assert warmup_factor(0, WarmupSchedule(20)) == 0.0

    def test_at_ramp(self):
        assert warmup_factor(20, WarmupSchedule(20)) == 1.0

    def test_quarter(self):
        assert warmup_factor(5, WarmupSchedule(20)) == 0.25

    def test_none_schedule(self):
        assert warmup_factor(0, None) == 1.0

    def test_invalid_ramp(self):
        with pytest.raises(ContractViolation):
            WarmupSchedule(0)


class TestBetaPrior:
    def test_derived_parameters(self):
        p = BetaPrior(2.0, 4)
        assert p.alpha == pytest.approx(0.5)
        assert p.beta == pytest.approx(1.5)

    def test_single_layer_beta_is_one(self):
        assert BetaPrior(2.0, 1).beta == 1.0

    def test_kuma_params_positrivity(self):
        kp = KumaraswamyParams(1.0, 3.0)
        assert kp.a == pytest.approx(1.0)
        assert kp.b == pytest.approx(3.0)
        with pytest.raises(ContractViolation):
            KumaraswamyParams(0.0, 1.0)
