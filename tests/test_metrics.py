"""Accuracy, entropy, PAvPU, and total-variation diagnostics."""

import numpy as np
import pytest

from gdcn.errors import ContractViolation
from gdcn.graph import build_adjacency, lambda_max
from gdcn.metrics import (accuracy, pavpu, predictive_entropy,
                          total_variation, uncertainty_report)


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy(np.array([0, 1, 2]), np.array([0, 1, 2]),
                        np.arange(3)) == 1.0

    def test_all_wrong(self):
        assert accuracy(np.array([1, 2, 0]), np.array([0, 1, 2]),
                        np.arange(3)) == 0.0

    def test_three_of_four(self):
        assert accuracy(np.array([0, 1, 2, 2]), np.array([0, 1, 2, 0]),
                        np.arange(4)) == 0.75

    def test_empty_set(self):
        with pytest.raises(ContractViolation):
            accuracy(np.array([0]), np.array([0]), np.array([], dtype=int))


class TestPredictiveEntropy:
    def test_one_hot(self):
        assert predictive_entropy(np.array([[1.0, 0.0, 0.0]]))[0] == 0.0

    def test_uniform_seven(self):
        e = predictive_entropy(np.full((1, 7), 1.0 / 7.0))[0]
        assert e == pytest.approx(np.log(7.0))

    def test_half_half(self):
        e = predictive_entropy(np.array([[0.5, 0.5, 0.0, 0.0]]))[0]
        assert e == pytest.approx(np.log(2.0))

    def test_off_simplex_rejected(self):
        with pytest.raises(ContractViolation):
            predictive_entropy(np.array([[0.6, 0.6]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected(self, bad):
        # NaN fails every comparison, so only a finiteness check sees it
        probs = np.array([[0.5, 0.5], [bad, bad]])
        with pytest.raises(ContractViolation, match="finite"):
            predictive_entropy(probs)
        with pytest.raises(ContractViolation, match="finite"):
            uncertainty_report(probs, np.array([0, 1]), np.arange(2), [0.5])

    def test_valid_rows_bit_for_bit(self):
        rng = np.random.default_rng(0)
        p = rng.dirichlet(np.full(7, 0.3), size=200)
        p[:20] = np.eye(7)[rng.integers(0, 7, 20)]
        p[20:25, :3] = 0.0
        p[20:25] /= p[20:25].sum(axis=1, keepdims=True)
        q = np.clip(p, 0.0, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            want = -np.where(q > 0.0, q * np.log(q), 0.0).sum(axis=1)
        np.testing.assert_array_equal(predictive_entropy(p), want)


class TestPavpu:
    def test_all_correct_all_certain(self):
        out, _, _ = pavpu(np.array([True, True]), np.array([0.1, 0.2]), [0.5])
        # max entropy 0.2; threshold 0.1: one certain, one not -> (1+0)/2
        assert out[0] == 0.5
        out, _, _ = pavpu(np.array([True, True]), np.array([0.2, 0.2]), [1.0])
        assert out[0] == 1.0

    def test_all_correct_all_uncertain(self):
        # threshold below every entropy: nothing certain, all accurate
        out, _, _ = pavpu(np.array([True, True]), np.array([1.0, 2.0]), [0.4])
        assert out[0] == 0.0

    def test_counting_case(self):
        """correct&certain, correct&uncertain, wrong&certain, wrong&uncertain."""
        correct = np.array([True, True, False, False])
        entropy = np.array([0.1, 0.9, 0.2, 1.0])
        out, p_ac, p_ci = pavpu(correct, entropy, [0.5])
        assert out[0] == 0.5  # (1 + 1) / 4
        assert p_ac[0] == 0.5  # n_ac / (n_ac + n_ic)
        assert p_ci[0] == 0.5  # n_ic / (n_ic + n_iu)

    def test_frac_one_equals_accuracy(self):
        rng = np.random.default_rng(0)
        correct = rng.random(50) < 0.7
        entropy = rng.random(50)
        out, _, _ = pavpu(correct, entropy, [1.0])
        assert out[0] == pytest.approx(correct.mean())

    def test_invariant_under_node_permutation(self):
        rng = np.random.default_rng(1)
        correct = rng.random(40) < 0.6
        entropy = rng.random(40)
        fracs = [0.5, 0.7, 0.9, 1.0]
        base, _, _ = pavpu(correct, entropy, fracs)
        perm = rng.permutation(40)
        shuffled, _, _ = pavpu(correct[perm], entropy[perm], fracs)
        np.testing.assert_array_equal(base, shuffled)

    def test_ln_c_cap_option(self):
        correct = np.array([True, False])
        entropy = np.array([0.2, 0.3])
        out_obs, _, _ = pavpu(correct, entropy, [0.5])
        out_cap, _, _ = pavpu(correct, entropy, [0.5], max_entropy=np.log(7))
        # observed max 0.3 -> threshold 0.15; ln7 cap -> threshold 0.97
        assert out_obs[0] == 0.5
        assert out_cap[0] == 0.5  # both certain: (1 + 0)/2

    def test_report_shape(self):
        rng = np.random.default_rng(2)
        probs = rng.dirichlet(np.ones(4), size=10)
        labels = rng.integers(0, 4, size=10)
        rep = uncertainty_report(probs, labels, np.arange(10),
                                 [0.5, 0.75, 1.0])
        assert rep.pavpu.shape == (3,)
        assert rep.entropy.shape == (10,)
        assert rep.pavpu[-1] == pytest.approx(rep.correct.mean())


class TestTotalVariation:
    def test_constant_signal_on_regular_graph(self):
        # 6-cycle is 2-regular: A x = 2 x for constant x, lam = 2 -> TV 0
        a = build_adjacency([(i, (i + 1) % 6) for i in range(6)], 6)
        lam, _ = lambda_max(a)
        x = np.ones((6, 1)) * 3.7
        assert total_variation(x, a, lam) == pytest.approx(0.0, abs=1e-12)

    def test_zero_signal(self):
        a = build_adjacency([(0, 1)], 2)
        assert total_variation(np.zeros((2, 3)), a, 1.0, normalized=True) == 0.0

    def test_path_example(self):
        # 3-node path, x = (1, 0, -1): A x = 0, TV = ||x||^2 = 2
        a = build_adjacency([(0, 1), (1, 2)], 3)
        x = np.array([1.0, 0.0, -1.0])
        got = total_variation(x, a, np.sqrt(2.0))
        dense = a.toarray()
        want = float(np.sum((x - dense @ x / np.sqrt(2.0)) ** 2))
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(2.0, abs=1e-12)

    def test_degree_two_homogeneity(self):
        rng = np.random.default_rng(3)
        a = build_adjacency([(0, 1), (1, 2), (0, 2), (2, 3)], 4)
        lam, _ = lambda_max(a)
        h = rng.normal(size=(4, 3))
        base = total_variation(h, a, lam)
        assert total_variation(2.5 * h, a, lam) == pytest.approx(
            2.5 ** 2 * base, rel=1e-12)

    def test_normalized_scale_invariant(self):
        rng = np.random.default_rng(4)
        a = build_adjacency([(0, 1), (1, 2), (0, 2), (2, 3)], 4)
        lam, _ = lambda_max(a)
        h = rng.normal(size=(4, 3))
        assert total_variation(3.0 * h, a, lam, normalized=True) == pytest.approx(
            total_variation(h, a, lam, normalized=True), rel=1e-12)

    def test_lam_must_be_positive(self):
        a = build_adjacency([(0, 1)], 2)
        with pytest.raises(ContractViolation):
            total_variation(np.ones((2, 1)), a, 0.0)
