"""Loss-row plans and kept-entry products against full passes.

A pass restricted to a ``loss_rows`` plan must give the loss's
log-probability rows of the full pass bit for bit, and every gradient
within 1e-12 relative. The fused op on a rectangular matrix gives the value
rows and dH of the square call bit for bit; its dense reductions over rows
(dW and dL/dpi) sum over its own rows, so they agree to rounding. A masked
CSR that stores only its nonzero entries (``graph.kept``) must multiply bit
for bit like the one that stores the zeros.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse import csr_array

from gdcn.errors import ContractViolation
from gdcn.estimators import arm_z1, arm_z2
from gdcn.graph import kept, spmm, spmm_t
from gdcn.masks import MaskKind, MaskSpec, sample_dropout_mask
from gdcn.model import (GCNConfig, PreparedGraph, _mask_csr, arm_masks,
                        forward, init_params, layer0_blocks, loss_rows,
                        sample_step_masks, sparse_input)
from gdcn.tape import (BlockProducts, Tape, backward, block_bounds, constant,
                       parameter, record_gdc_aggregate, record_masked_nll)
from gdcn.variational import KumaraswamyParams

from conftest import masked_aggregate, random_edges

N = 24
OBSERVED = np.array([9, 2, 17])   # unsorted, as a split may be


def sparse_graph(n=N, seed=3, p=0.09, isolated=(), **flags):
    rng = np.random.default_rng(seed)
    edges = [e for e in random_edges(rng, n, p)
             if e[0] not in isolated and e[1] not in isolated]
    return PreparedGraph.from_edges(edges, n, **flags)


def dense_pattern(graph):
    """Boolean (n, n) pattern of ``A + I``."""
    return graph.a_norm.toarray() != 0.0


def hop_rows(graph, observed, hops):
    """Sorted nodes within ``hops`` steps of ``observed``, by dense
    reachability on ``A + I``."""
    pattern = dense_pattern(graph)
    reach = np.zeros(graph.edges.n, dtype=bool)
    reach[observed] = True
    for _ in range(hops):
        reach = pattern[reach].any(axis=0)
    return np.flatnonzero(reach)


def assert_grads_close(got, want):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert float(np.max(np.abs(got - want))) <= 1e-12 * scale


class TestPlan:
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_rows_are_receptive_fields(self, n_layers):
        g = sparse_graph()
        plan = loss_rows(g, OBSERVED, n_layers)
        assert len(plan.layers) == n_layers
        a = g.a_norm.toarray()
        for l, lr in enumerate(plan.layers):
            hops = n_layers - 1 - l
            np.testing.assert_array_equal(lr.out, hop_rows(g, OBSERVED, hops))
            if l == 0:
                assert lr.inp is None
                inp = np.arange(N)
            else:
                inp = hop_rows(g, OBSERVED, hops + 1)
                np.testing.assert_array_equal(lr.inp, inp)
                np.testing.assert_array_equal(plan.layers[l - 1].out, lr.inp)
            # entries: every stored entry of the rows, in storage order
            want = np.concatenate([np.arange(g.a_norm.indptr[r],
                                             g.a_norm.indptr[r + 1])
                                   for r in lr.out])
            np.testing.assert_array_equal(lr.entries, want)
            np.testing.assert_array_equal(lr.a.toarray(),
                                          a[np.ix_(lr.out, inp)])
            np.testing.assert_array_equal(lr.a.data, g.a_norm.data[want])
        assert len(plan.layers[0].out) < N   # the plan restricts something
        np.testing.assert_array_equal(plan.layers[-1].out[plan.observed],
                                      OBSERVED)
        labels = (np.arange(N) * 7) % 5
        lab, obs = plan.loss_inputs(labels)
        assert obs is plan.observed and len(lab) == len(plan.layers[-1].out)
        np.testing.assert_array_equal(lab[obs], labels[OBSERVED])

    def test_isolated_nodes(self):
        g = sparse_graph(isolated=(2, 9))
        plan = loss_rows(g, OBSERVED, 3)
        for l, lr in enumerate(plan.layers):
            np.testing.assert_array_equal(
                lr.out, hop_rows(g, OBSERVED, 2 - l))
        # an isolated node reaches only itself: its row is its self-loop
        for lr in plan.layers:
            for node in (2, 9):
                row = int(np.searchsorted(lr.out, node))
                assert lr.out[row] == node
                assert lr.a.indptr[row + 1] - lr.a.indptr[row] == 1
        assert 2 in plan.layers[0].out and 9 in plan.layers[0].out

    def test_all_nodes_give_the_full_pattern(self):
        g = sparse_graph()
        plan = loss_rows(g, np.arange(N), 2)
        for lr in plan.layers:
            np.testing.assert_array_equal(lr.out, np.arange(N))
            np.testing.assert_array_equal(lr.entries,
                                          np.arange(g.edges.n_entries))
            for name in ("data", "indices", "indptr"):
                np.testing.assert_array_equal(getattr(lr.a, name),
                                              getattr(g.a_norm, name))
        np.testing.assert_array_equal(plan.observed, np.arange(N))

    @pytest.mark.parametrize("bad", [[-1], [N], [0, N + 3]])
    def test_out_of_range_node_raises(self, bad):
        with pytest.raises(ContractViolation, match="observed node"):
            loss_rows(sparse_graph(), np.array(bad), 2)


# ---------------------------------------------------------------------------
# passes restricted to the plan against full passes


def spec(kind, **kw):
    return MaskSpec(kind=kind, **kw)


# name -> (mask spec per layer, GCNConfig keywords, graph flags)
CASES = {
    "dropout": ([spec(MaskKind.DROPOUT, keep_prob=0.6)] * 3, {}, {}),
    "node": ([spec(MaskKind.NODE_SAMPLING, keep_prob=0.6)] * 3, {}, {}),
    "dropedge": ([spec(MaskKind.DROPEDGE, keep_prob=0.5)] * 3, {}, {}),
    "dropedge-symmetric": (
        [spec(MaskKind.DROPEDGE, keep_prob=0.5, symmetric=True)] * 3, {}, {}),
    "gdc-binary": ([spec(MaskKind.GDC, keep_prob=0.5, n_blocks=2)] * 3,
                   {}, {}),
    "gdc-binary-3-blocks-protected": (
        [spec(MaskKind.GDC, keep_prob=0.4, n_blocks=3, symmetric=True,
              protect_self_loops=True)] * 3, {}, {}),
    "gdc-concrete": (
        [spec(MaskKind.GDC, learned=True, n_blocks=2, relaxed=True)] * 3,
        {"estimator": "concrete"}, {}),
    "gdc-concrete-standard": (
        [spec(MaskKind.GDC, learned=True, n_blocks=2, relaxed=True,
              symmetric=True, protect_self_loops=True)] * 3,
        {"estimator": "concrete", "concrete_standard": True}, {}),
    "randomwalk": ([spec(MaskKind.RANDOM_WALK, keep_prob=0.6)] * 3, {}, {}),
    "renorm-after-mask": (
        [spec(MaskKind.DROPEDGE, keep_prob=0.5, symmetric=True)] * 3,
        {"renorm_after_mask": True}, {"renorm_trick": True}),
    "arm-renorm-after-mask": (
        [spec(MaskKind.GDC, learned=True, n_blocks=2, symmetric=True)] * 3,
        {"estimator": "arm", "renorm_after_mask": True},
        {"renorm_trick": True}),
    "bias": ([spec(MaskKind.GDC, keep_prob=0.5, n_blocks=2)] * 3,
             {"use_bias": True}, {}),
    "dropout-keep": (
        [spec(MaskKind.DROPEDGE, keep_prob=0.5, dropout_keep=0.7),
         spec(MaskKind.NODE_SAMPLING, keep_prob=0.7, dropout_keep=0.8),
         spec(MaskKind.GDC, keep_prob=0.5, n_blocks=2, dropout_keep=0.7)],
        {}, {}),
}
# Layer widths for both product orders: with two blocks, [7, 6, 5, 2]
# aggregates first on a dense input at layers 0 and 1 and multiplies first
# at layer 2; with one block it multiplies first everywhere, and [3, 6, 8,
# 2] aggregates first at layer 0.
DIMS = ([7, 6, 5, 2], [3, 6, 8, 2])


def case_setup(name, dims, sparse_x, seed=0):
    masks, cfg_kw, graph_kw = CASES[name]
    cfg = GCNConfig(layer_dims=list(dims), masks=list(masks), **cfg_kw)
    g = sparse_graph(**graph_kw)
    rng = np.random.default_rng(seed)
    params = init_params(cfg, rng)
    for p in params:
        if p.bias is not None:
            p.bias.data[:] = rng.normal(size=p.bias.data.shape)
        if p.kuma is not None:   # away from the init, a in (1, 2)
            p.kuma = KumaraswamyParams(1.0 + rng.random(), 2.0 + rng.random())
    x = rng.random((N, dims[0]))
    x[rng.random(x.shape) < 0.5] = 0.0
    x = constant(x)
    if sparse_x:
        x = sparse_input(x)
    return cfg, g, params, x


def one_pass(cfg, g, params, x, plan, seed, edit_masks=None):
    """Log-probabilities, NLL and the gradient of every parameter of one
    training-mode pass on the draw of ``seed``."""
    tape = Tape()
    nnz = x.data.nnz if not isinstance(x.data, np.ndarray) else None
    draws = sample_step_masks(cfg, params, g, np.random.default_rng(seed),
                              tape=tape, mode="train", input_nnz=nnz)
    if edit_masks is not None:
        edit_masks(draws)
    blocks = layer0_blocks(cfg, x)
    layer0 = (None if blocks is None
              else BlockProducts(blocks, cfg.masks[0].n_blocks))
    labels = np.arange(N) % params[-1].m.data.shape[1]
    logprobs = forward(params, x, g, draws.layer_masks, tape=tape,
                       layer0=layer0, rows=plan)
    lab, obs = (labels, OBSERVED) if plan is None else plan.loss_inputs(labels)
    rows = logprobs.data[obs]
    loss = record_masked_nll(tape, logprobs, lab, obs)
    grads = backward(tape, loss)
    tensors = [t for p in params for t in p.tensors()]
    return rows, loss.item(), [grads.get(t) for t in tensors]


class TestCompactPass:
    @pytest.mark.parametrize("sparse_x", [False, True])
    @pytest.mark.parametrize("dims", DIMS)
    @pytest.mark.parametrize("name", list(CASES))
    def test_equals_full_pass(self, name, dims, sparse_x):
        cfg, g, params, x = case_setup(name, dims, sparse_x)
        plan = loss_rows(g, OBSERVED, cfg.n_layers)
        for seed in (1, 2):
            rows_full, loss_full, grads_full = one_pass(cfg, g, params, x,
                                                        None, seed)
            rows_plan, loss_plan, grads_plan = one_pass(cfg, g, params, x,
                                                        plan, seed)
            np.testing.assert_array_equal(rows_plan, rows_full)
            assert loss_plan == loss_full
            for got, want in zip(grads_plan, grads_full):
                assert_grads_close(got, want)
        if cfg.estimator == "concrete":   # log a, log b got a gradient
            assert all(np.any(gr != 0.0) for gr in grads_full[1:3])

    @pytest.mark.parametrize("sparse_x", [False, True])
    def test_arm_settings_equal_full_pass(self, sparse_x):
        masks = [spec(MaskKind.GDC, learned=True, n_blocks=2,
                      symmetric=True)] * 3
        cfg = GCNConfig(layer_dims=[7, 6, 5, 2], masks=masks,
                        estimator="arm")
        g = sparse_graph()
        params = init_params(cfg, np.random.default_rng(0))
        x = constant(np.random.default_rng(1).random((N, 7)))
        if sparse_x:
            x = sparse_input(x)
        plan = loss_rows(g, OBSERVED, 3)
        # The training-mode draws carry both ARM settings' uniforms.
        for setting in (arm_z1, arm_z2):
            def install(draws, setting=setting):
                draws.layer_masks = arm_masks(draws, g, setting(draws.arm))
            full = one_pass(cfg, g, params, x, None, 3, install)
            compact = one_pass(cfg, g, params, x, plan, 3, install)
            np.testing.assert_array_equal(compact[0], full[0])
            assert compact[1] == full[1]
            for got, want in zip(compact[2], full[2]):
                assert_grads_close(got, want)

    @pytest.mark.parametrize("sparse_x", [False, True])
    def test_arm_settings_keep_renormalize(self, sparse_x):
        # Both ARM settings' masks, Z2's for the recorded pass and Z1's for
        # the second pass, renormalize like the masks they replace.
        cfg, g, params, x = case_setup("arm-renorm-after-mask",
                                       [7, 6, 5, 2], sparse_x)
        nnz = x.data.nnz if sparse_x else None
        draws = sample_step_masks(cfg, params, g, np.random.default_rng(3),
                                  mode="train", input_nnz=nnz)
        for masks in (draws.layer_masks,
                      arm_masks(draws, g, arm_z1(draws.arm))):
            got = forward(params, x, g, masks).data
            for renormalize in (True, False):
                other = forward(params, x, g, [
                    replace(lm, renormalize=renormalize) for lm in masks]).data
                assert np.array_equal(got, other) == renormalize

    def test_all_nodes_observed_is_the_full_pass(self):
        cfg, g, params, x = case_setup("gdc-concrete", [7, 6, 5, 2], True)
        plan = loss_rows(g, np.arange(N), cfg.n_layers)
        draws = sample_step_masks(cfg, params, g, np.random.default_rng(4),
                                  mode="train", input_nnz=x.data.nnz)
        full = forward(params, x, g, draws.layer_masks)
        compact = forward(params, x, g, draws.layer_masks, rows=plan)
        np.testing.assert_array_equal(compact.data, full.data)

    def test_isolated_nodes_equal_full_pass(self):
        cfg, _, params, x = case_setup("gdc-binary", [7, 6, 5, 2], True)
        g = sparse_graph(isolated=(2, 9))
        plan = loss_rows(g, OBSERVED, cfg.n_layers)
        rows_full, _, grads_full = one_pass(cfg, g, params, x, None, 1)
        rows_plan, _, grads_plan = one_pass(cfg, g, params, x, plan, 1)
        np.testing.assert_array_equal(rows_plan, rows_full)
        for got, want in zip(grads_plan, grads_full):
            assert_grads_close(got, want)


# ---------------------------------------------------------------------------
# rectangular matrices and kept entries


def random_csr(rng, rows, cols, density=0.4):
    dense = rng.normal(size=(rows, cols))
    dense[rng.random(dense.shape) > density] = 0.0
    return csr_array(dense)


class TestRectangularAggregate:
    @pytest.mark.parametrize("f_in,nb,f_out", [(7, 3, 3), (7, 3, 2)])
    def test_dense_oracle(self, f_in, nb, f_out):
        rng = np.random.default_rng(2)
        a = random_csr(rng, 4, 9)
        h = rng.normal(size=(9, f_in))
        w = rng.normal(size=(f_in, f_out))
        zs = [(rng.random(a.nnz) < 0.5).astype(float) for _ in range(nb)]
        out = masked_aggregate(None, a, zs, constant(h), parameter(w))
        bounds = np.linspace(0, f_in, nb + 1).astype(int)
        want = sum(csr_array((a.data * z, a.indices, a.indptr),
                             shape=a.shape).toarray() @ h[:, c0:c1] @ w[c0:c1]
                   for z, c0, c1 in zip(zs, bounds[:-1], bounds[1:]))
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)
        assert out.data.shape == (4, f_out)

    def test_mismatched_shapes_raise(self):
        rng = np.random.default_rng(2)
        w = parameter(rng.normal(size=(6, 2)))
        for rows in (4, 9, 10):
            a = random_csr(rng, 4, rows)
            with pytest.raises(ContractViolation, match="input rows"):
                record_gdc_aggregate(None, a, [a.data],
                                     constant(rng.normal(size=(8, 6))), w)

    # The products run row by row, so the value rows and dH are bit for
    # bit here. dW and dpi sum over the op's rows only, so the BLAS may
    # group their sums otherwise than the n-row call's (in four of these
    # cases it does), and they agree to rounding of their terms.
    @pytest.mark.parametrize("n,f_in,nb,f_out", [
        (10, 7, 3, 3), (10, 7, 3, 2), (10, 6, 1, 2),
        (2000, 96, 2, 64), (2000, 96, 3, 8), (2000, 128, 1, 128)])
    def test_compact_call_equals_n_row_call(self, n, f_in, nb, f_out):
        # The op on rows `out` of an n-row problem, against the n-row op
        # whose matrices hold the same entries in the same rows.
        rng = np.random.default_rng(8)
        out = np.sort(rng.choice(n, n // 3, replace=False))
        inp = np.sort(rng.choice(n, n // 2, replace=False))
        a = random_csr(rng, len(out), len(inp), density=min(0.6, 8 / n))
        big = np.zeros((n, n))
        big[np.ix_(out, inp)] = a.toarray()
        big = csr_array(big)
        assert np.array_equal(big.data, a.data)   # one entry order
        h_in = rng.normal(size=(len(inp), f_in))
        h_big = np.zeros((n, f_in))
        h_big[inp] = h_in
        w0 = rng.normal(size=(f_in, f_out))
        g_out = rng.normal(size=(len(out), f_out))
        zs = [(rng.random(a.nnz) < 0.6).astype(float) for _ in range(nb)]
        ts = [rng.random(a.nnz) for _ in range(nb)]

        def run(mat, h_data, g):
            pi, h, w = (parameter(np.array([[0.4]])), parameter(h_data),
                        parameter(w0))
            tape = Tape()
            res = masked_aggregate(tape, mat, zs, h, w, pi=pi, tangents=ts)
            grads = {}
            tape.records[-1][1](g, grads.__setitem__)
            return res.data, grads[h], grads[w], grads[pi]

        g_big = np.zeros((n, f_out))
        g_big[out] = g_out
        got = run(a, h_in, g_out)
        want = run(big, h_big, g_big)
        np.testing.assert_array_equal(got[0], want[0][out])
        np.testing.assert_array_equal(got[1], want[1][inp])
        # The sums of the absolute terms of dW and dpi, the scale of the
        # rounding error in any order of summing them.
        abs_g = np.abs(g_out)
        mag_w, mag_pi = np.empty_like(w0), 0.0
        for z, t, (c0, c1) in zip(zs, ts, block_bounds(f_in, nb)):
            abs_h = np.abs(h_in[:, c0:c1])
            a_b, t_b = (csr_array((np.abs(a.data * e), a.indices, a.indptr),
                                  shape=a.shape) for e in (z, t))
            mag_w[c0:c1] = abs_h.T @ (a_b.T @ abs_g)
            mag_pi += np.sum(abs_g * (t_b @ (abs_h @ np.abs(w0[c0:c1]))))
        assert np.all(np.abs(got[2] - want[2]) <= 1e-12 * mag_w)
        assert abs(got[3][0, 0] - want[3][0, 0]) <= 1e-12 * mag_pi


class TestKept:
    @pytest.mark.parametrize("width", [1, 7, 32])
    def test_products_equal_stored_zero_products(self, width):
        rng = np.random.default_rng(width)
        a = random_csr(rng, 40, 30)
        for keep in (0.0, 0.3, 0.5, 1.0):
            z = (rng.random(a.nnz) < keep).astype(float)
            stored = csr_array((a.data * z, a.indices, a.indptr),
                               shape=a.shape)
            k = kept(a, a.data * z)
            assert k.nnz == np.count_nonzero(a.data * z)
            assert np.all(k.data != 0.0)
            np.testing.assert_array_equal(k.toarray(), stored.toarray())
            h = rng.normal(size=(30, width))
            g = rng.normal(size=(40, width))
            np.testing.assert_array_equal(spmm(k, h), spmm(stored, h))
            np.testing.assert_array_equal(spmm_t(k, g), spmm_t(stored, g))

    def test_nothing_dropped_shares_the_index_arrays(self):
        a = random_csr(np.random.default_rng(0), 6, 6)
        k = kept(a, a.data * 2.0)
        assert np.shares_memory(k.indices, a.indices)
        assert np.shares_memory(k.indptr, a.indptr)

    @pytest.mark.parametrize("mask_kind", ["entries", "rows", "dense"])
    def test_masked_input_stores_only_kept_entries(self, mask_kind):
        rng = np.random.default_rng(1)
        x = random_csr(rng, 12, 9)
        if mask_kind == "entries":
            mask = sample_dropout_mask(x.nnz, 1, 0.5, rng).ravel()
            want = csr_array((x.data * mask, x.indices, x.indptr),
                             shape=x.shape).toarray()
        else:
            shape = (12, 1) if mask_kind == "rows" else (12, 9)
            mask = (rng.random(shape) < 0.5).astype(float)
            want = x.toarray() * mask
        got = _mask_csr(x, mask)
        np.testing.assert_array_equal(got.toarray(), want)
        assert got.nnz == np.count_nonzero(want)

