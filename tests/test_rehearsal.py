"""Rehearsal of the paper's protocol on the benchmark's Cora-shaped graph.

Criteria 5 and 6 need the Cora files and skip without them
(``test_acceptance.py``). This runs their code paths on the synthetic graph
``benchmarks/coragen.py`` builds (seed 1; 2708 nodes, 1433 binary
features, 7 classes): ``run_seeds`` over seeds 0-4 with criterion 5's DO
and BBGDC configs at depths 2 and 4, then ``predict_mc`` (20 passes) and
``uncertainty_report`` on every seed's model. It is the quality gate for
changes that move the training arithmetic.

The bounds come from the spread of these runs at the code before mixed
precision training: each config's mean accuracy may fall at most two
sample standard deviations of its five seeds below that code's mean
(``FLOORS``). BBGDC beats DO at both depths, as criterion 5 asks at depth
4. Criterion 6's direction (BBGDC's PAvPU at least DO's at most
thresholds) is not asserted: it failed at every seed on that code. DO's
4-layer MC predictions are near uniform there, so every node counts as
uncertain and its PAvPU is its error rate, which beats BBGDC's below
threshold 1.

Slow (about 2 minutes on one core), so it carries the ``rehearsal``
marker, which tier-1 deselects; run it with
``python -m pytest tests/test_rehearsal.py -m rehearsal``.
"""

import os
import sys

import numpy as np
import pytest

from gdcn.data import Dataset, make_split, row_normalize
from gdcn.metrics import uncertainty_report
from gdcn.model import PreparedGraph, predict_mc
from gdcn.tape import constant
from gdcn.training import run_seeds

from test_acceptance import _cora_gcn_config, _cora_train_config

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks"))
import coragen  # noqa: E402

pytestmark = pytest.mark.rehearsal

FRACS = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
# (variant, depth) -> (test accuracy, MC accuracy) floors: the mean over
# the seeds minus two sample standard deviations, before mixed precision
# training. Test accuracy means 0.9768, 0.9996, 0.6568 and 0.8960 (sd
# 0.0042, 0.0005, 0.0822, 0.0583); MC accuracy means 0.9736, 0.9994,
# 0.4210 and 0.8914 (sd 0.0040, 0.0005, 0.0957, 0.0583).
FLOORS = {
    ("do", 2): (0.968, 0.965),
    ("bbgdc", 2): (0.998, 0.998),
    ("do", 4): (0.492, 0.229),
    ("bbgdc", 4): (0.779, 0.774),
}


@pytest.fixture(scope="module")
def rehearsal():
    """(variant, depth) -> (test accuracies, MC accuracies, PAvPU rows,
    MC mean rows' sums) over criterion 5's seeds, 0-4."""
    g = coragen.generate(1)
    ds = make_split(Dataset(features=row_normalize(g.features),
                            labels=g.labels, edges=g.edges, class_count=7),
                    20, 500, 1000)
    graph = PreparedGraph.from_edges(ds.edges, ds.n_nodes)
    x = constant(ds.features_csr())
    test = ds.split.test
    out = {}
    for key in FLOORS:
        variant, depth = key
        cfg = _cora_gcn_config(ds, depth, variant)
        summary = run_seeds(ds, cfg, _cora_train_config(depth), graph=graph)
        mc_acc, pavpu, sums = [], [], []
        for r in summary.results:
            mean, _ = predict_mc(r.result.params, x, graph, cfg, 20,
                                 np.random.default_rng(0))
            rep = uncertainty_report(mean, ds.labels, test, FRACS)
            mc_acc.append(np.mean(mean[test].argmax(axis=1)
                                  == ds.labels[test]))
            pavpu.append(rep.pavpu)
            sums.append(mean.sum(axis=1))
        out[key] = (np.array([r.test_acc for r in summary.results]),
                    np.array(mc_acc), np.array(pavpu), np.array(sums))
    return out


@pytest.mark.parametrize("key", sorted(FLOORS))
def test_mean_accuracy_above_floor(rehearsal, key):
    test_acc, mc_acc, _, _ = rehearsal[key]
    floor_test, floor_mc = FLOORS[key]
    assert test_acc.mean() >= floor_test, test_acc
    assert mc_acc.mean() >= floor_mc, mc_acc


@pytest.mark.parametrize("depth", [2, 4])
def test_bbgdc_beats_do(rehearsal, depth):
    for i in range(2):   # test accuracy, MC accuracy
        assert (rehearsal["bbgdc", depth][i].mean()
                > rehearsal["do", depth][i].mean())


@pytest.mark.parametrize("key", sorted(FLOORS))
def test_uncertainty_report(rehearsal, key):
    _, mc_acc, pavpu, sums = rehearsal[key]
    assert np.all(np.abs(sums - 1.0) <= 1e-9)
    assert np.all((pavpu >= 0.0) & (pavpu <= 1.0))
    # at threshold 1 every node is certain, so PAvPU is the MC accuracy
    np.testing.assert_allclose(pavpu[:, -1], mc_acc, rtol=0, atol=1e-12)
