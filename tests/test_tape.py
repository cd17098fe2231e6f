"""Reverse-mode tape: adjoint rules against finite differences."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

from gdcn.errors import ContractViolation
from gdcn.graph import EdgeSet, build_adjacency, normalize, spmm, spmm_t
from gdcn.masks import MaskKind, MaskSpec, sample_concrete_mask
from gdcn.tape import (BlockProducts, Tape, Tensor, backward, block_bounds,
                       block_input, block_products, constant, parameter,
                       record_add, record_frobenius_sq, record_gdc_aggregate,
                       record_log_softmax_rows, record_masked_nll, record_mul,
                       record_relu, multiplies_first, record_scale,
                       split_columns, stack_blocks)

from conftest import finite_diff, masked_aggregate, rel_err, random_edges


def _ones(n_rows, n_cols):
    """All-ones matrix with every entry stored."""
    return csr_array(np.ones((n_rows, n_cols)))


def _eye(n):
    return csr_array(np.eye(n))


def _with_data(a, data):
    """``a``'s pattern carrying ``data``."""
    return csr_array((data, a.indices, a.indptr), shape=a.shape)


def _matmul(tape, x, w):
    """``X @ W`` through the fused op: one block, identity aggregation."""
    n = x.data.shape[0]
    return record_gdc_aggregate(tape, _eye(n), [np.ones(n)], x, w)


def _masked_spmm(tape, a, mask, h, pi=None, tangent=None):
    """``(A ⊙ mask) @ H`` through the fused op: one block, W = I; with a
    keep probability ``pi`` and the mask's ``tangent`` dmask/dpi."""
    return masked_aggregate(tape, a, [mask], h,
                            constant(np.eye(h.data.shape[1])), pi=pi,
                            tangents=None if tangent is None else [tangent])


def _pi_fd(loss_of, zs, tangents):
    """dL/dpi by central differences along the tangents: each mask block
    ``z_b`` moves by ``eps * t_b``."""
    return finite_diff(lambda eps: loss_of(
        [z + eps[0] * t for z, t in zip(zs, tangents)]), np.zeros(1))[0]


class TestMatmul:
    """The dense product inside the fused op (one block, A = I)."""

    def test_identity_times_w(self):
        t = Tape()
        w = parameter(np.arange(6.0).reshape(3, 2))
        out = _matmul(t, constant(np.eye(3)), w)
        np.testing.assert_array_equal(out.data, w.data)
        # gradient of sum(out) wrt w is all-ones:
        # sum(out) = ones(1, 3) @ out @ ones(2, 1)
        total = record_gdc_aggregate(t, _ones(1, 3), [np.ones(3)], out,
                                     constant(np.ones((2, 1))))
        g = backward(t, total)
        np.testing.assert_array_equal(g.get(w), np.ones((3, 2)))

    def test_scalar_case(self):
        t = Tape()
        x = constant([[3.0]])
        w = parameter([[2.0]])
        out = _matmul(t, x, w)
        g = backward(t, out)
        assert g.get(w)[0, 0] == 3.0

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        x0 = rng.normal(size=(3, 4))
        w0 = rng.normal(size=(4, 2))

        def loss_of(w_flat):
            t = Tape()
            w = parameter(w_flat.reshape(4, 2))
            out = _matmul(t, constant(x0), w)
            return record_frobenius_sq(t, out).item()

        t = Tape()
        w = parameter(w0)
        out = _matmul(t, constant(x0), w)
        loss = record_frobenius_sq(t, out)
        g = backward(t, loss).get(w)
        fd = finite_diff(loss_of, w0.ravel()).reshape(4, 2)
        assert rel_err(g, fd) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ContractViolation):
            _matmul(Tape(), constant(np.ones((2, 3))),
                    constant(np.ones((2, 3))))


class TestMaskedSpmm:
    """The masked aggregation inside the fused op (one block, W = I)."""

    def _graph(self, n=3, seed=1, p=0.9):
        rng = np.random.default_rng(seed)
        return normalize(build_adjacency(random_edges(rng, n, p), n))

    def test_all_ones_gradient_to_h_matches_dense(self):
        a = self._graph(4)
        rng = np.random.default_rng(2)
        h0 = rng.normal(size=(4, 3))
        t = Tape()
        h = parameter(h0)
        mask = constant(np.ones(a.nnz))
        out = _masked_spmm(t, a, mask, h)
        loss = record_frobenius_sq(t, out)
        g = backward(t, loss).get(h)
        dense = a.toarray()
        want = dense.T @ (2.0 * (dense @ h0))
        np.testing.assert_allclose(g, want, atol=1e-12)

    def test_zero_h_zero_gradients(self):
        a = self._graph(3)
        t = Tape()
        h = constant(np.zeros((3, 2)))
        pi = parameter(0.5)
        out = _masked_spmm(t, a, constant(np.ones(a.nnz)), h, pi=pi,
                           tangent=np.ones(a.nnz))
        loss = record_frobenius_sq(t, out)
        g = backward(t, loss)
        np.testing.assert_array_equal(g.get(pi), np.zeros((1, 1)))
        np.testing.assert_array_equal(out.data, np.zeros((3, 2)))

    def test_mask_gradient_matches_finite_differences(self):
        a = self._graph(3, seed=5)
        rng = np.random.default_rng(3)
        h0 = rng.normal(size=(3, 2))
        m0 = rng.random(a.nnz)
        t0 = rng.normal(size=a.nnz)

        def loss_of(ms):
            t = Tape()
            out = _masked_spmm(t, a, constant(ms[0]), constant(h0))
            return record_frobenius_sq(t, out).item()

        t = Tape()
        pi = parameter(0.5)
        out = _masked_spmm(t, a, constant(m0), constant(h0), pi=pi, tangent=t0)
        loss = record_frobenius_sq(t, out)
        g = backward(t, loss).get(pi)[0, 0]
        fd = _pi_fd(loss_of, [m0], [t0])
        assert rel_err(g, fd) < 1e-5

    def test_alignment_mismatch(self):
        a = self._graph(3)
        with pytest.raises(ContractViolation):
            record_gdc_aggregate(Tape(), a, [np.ones(a.nnz + 2)],
                                 constant(np.ones((3, 1))),
                                 constant(np.eye(1)))


class TestGdcAggregate:
    """``record_gdc_aggregate`` against dense and finite-difference oracles."""

    def _setup(self, n=6, f_in=7, seed=0):
        rng = np.random.default_rng(seed)
        a = normalize(build_adjacency(random_edges(rng, n, 0.5), n))
        h0 = rng.normal(size=(n, f_in))
        return rng, a, h0

    @staticmethod
    def _oracle(a, values, h, w):
        """``sum_b A_b H[:, blk_b] W[blk_b]``, dense, with ``A_b`` the
        pattern of ``a`` carrying ``values[b]``."""
        nb = len(values)
        edges = np.linspace(0, w.shape[0], nb + 1).astype(int)
        out = np.zeros((a.shape[0], w.shape[1]))
        for v, c0, c1 in zip(values, edges[:-1], edges[1:]):
            out += _with_data(a, v).toarray() @ h[:, c0:c1] @ w[c0:c1]
        return out

    @staticmethod
    def _spmm_widths(monkeypatch):
        """Column counts of the dense operands the op's forward aggregates."""
        import gdcn.tape as gtape
        widths = []
        real = gtape.spmm

        def spy(a, h, **kw):
            widths.append(h.shape[1])
            return real(a, h, **kw)

        monkeypatch.setattr(gtape, "spmm", spy)
        return widths

    @pytest.mark.parametrize("f_in,nb,f_out,widths", [
        (7, 3, 3, [2, 2, 3]),   # 7 < 9: aggregate first, unequal blocks
        (7, 3, 2, [2, 2, 2]),   # 7 >= 6: multiply first
        (6, 3, 2, [2, 2, 2]),   # tie 6 == 6: multiply first
        (3, 1, 5, [3]),         # one block, 3 < 5: aggregate first
    ])
    def test_dense_oracle_and_product_order(self, monkeypatch, f_in, nb,
                                            f_out, widths):
        rng, a, h0 = self._setup(f_in=f_in)
        w0 = rng.normal(size=(f_in, f_out))
        zs = [rng.random(a.nnz) for _ in range(nb)]
        seen = self._spmm_widths(monkeypatch)
        out = masked_aggregate(Tape(), a, zs, constant(h0), parameter(w0))
        assert seen == widths
        want = self._oracle(a, [a.data * z for z in zs], h0, w0)
        np.testing.assert_allclose(out.data, want, atol=1e-12)

    def test_csr_input_multiplies_first(self, monkeypatch):
        rng, a, h0 = self._setup(f_in=7)
        h0[rng.random(h0.shape) < 0.6] = 0.0
        w0 = rng.normal(size=(7, 3))
        zs = [rng.random(a.nnz) for _ in range(3)]
        seen = self._spmm_widths(monkeypatch)
        out = masked_aggregate(Tape(), a, zs, constant(csr_array(h0)),
                               parameter(w0))
        # one product of the stacked input with W, then the 3 aggregations
        assert seen == [3, 3, 3, 3]
        want = self._oracle(a, [a.data * z for z in zs], h0, w0)
        np.testing.assert_allclose(out.data, want, atol=1e-12)

    @pytest.mark.parametrize("f_out", [3, 1])
    def test_per_block_matrices(self, f_out):
        # renorm_after_mask gives each block its own values on one pattern
        from gdcn.model import PreparedGraph
        rng = np.random.default_rng(4)
        graph = PreparedGraph.from_edges(random_edges(rng, 6, 0.6), 6)
        es = graph.edges
        values = []
        for _ in range(3):
            keep = (rng.random(es.n_entries) < 0.6).astype(float)
            canon = es.canonical()
            keep[~canon] = keep[es.mirror[~canon]]
            values.append(es.normalized_values(keep))
        assert len({v.tobytes() for v in values}) > 1
        h0 = rng.normal(size=(6, 7))
        w0 = rng.normal(size=(7, f_out))
        out = record_gdc_aggregate(Tape(), graph.a_norm, values, constant(h0),
                                   constant(w0))
        want = self._oracle(graph.a_norm, values, h0, w0)
        np.testing.assert_allclose(out.data, want, atol=1e-12)

    @pytest.mark.parametrize("f_out", [3, 2])  # aggregate / multiply first
    def test_gradients_match_finite_differences(self, f_out):
        # h and w entry by entry; pi along the tangents: z_b + eps * t_b
        rng, a, h0 = self._setup(f_in=7, seed=2)
        nb = 3
        w0 = rng.normal(size=(7, f_out))
        z0 = rng.random((nb, a.nnz))
        t0 = rng.normal(size=(nb, a.nnz))
        weight = rng.normal(size=(a.shape[0], f_out))
        sizes = (h0.size, w0.size, 1)

        def build(flat):
            h_flat, w_flat, eps = np.split(flat, np.cumsum(sizes)[:-1])
            h = parameter(h_flat.reshape(h0.shape))
            w = parameter(w_flat.reshape(w0.shape))
            pi = parameter(0.5)
            zs = [constant(z + eps[0] * tb) for z, tb in zip(z0, t0)]
            t = Tape()
            out = masked_aggregate(t, a, zs, h, w, pi=pi, tangents=list(t0))
            loss = record_frobenius_sq(t, record_mul(t, out,
                                                     constant(weight)))
            return t, loss, [h, w, pi]

        flat0 = np.concatenate([h0.ravel(), w0.ravel(), np.zeros(1)])
        t, loss, tensors = build(flat0)
        g = backward(t, loss)
        got = np.concatenate([g.get(v).ravel() for v in tensors])
        fd = finite_diff(lambda f: build(f)[1].item(), flat0)
        assert rel_err(got, fd) < 1e-5

    def test_pi_gradient_needs_tangents(self):
        rng, a, h0 = self._setup()
        pi = parameter(0.5)
        t = Tape()
        out = record_gdc_aggregate(t, a, [a.data * rng.random(a.nnz)],
                                   constant(h0),
                                   parameter(rng.normal(size=(7, 2))), pi=pi)
        g = backward(t, record_frobenius_sq(t, out))
        np.testing.assert_array_equal(g.get(pi), np.zeros((1, 1)))

    def test_tangent_count_mismatch(self):
        _, a, h0 = self._setup()
        with pytest.raises(ContractViolation, match="1 tangents for 2 blocks"):
            record_gdc_aggregate(Tape(), a, [a.data] * 2, constant(h0),
                                 constant(np.ones((7, 2))),
                                 pi=parameter(0.5), tangents=[a.data])

    @pytest.mark.parametrize("sparse", [False, True])
    def test_one_block_is_bitwise_spmm_of_product(self, sparse):
        rng, a, h0 = self._setup(f_in=7, seed=3)
        h0[rng.random(h0.shape) < 0.5] = 0.0
        w0 = rng.normal(size=(7, 4))
        z = rng.random(a.nnz)
        h = constant(csr_array(h0) if sparse else h0)
        out = record_gdc_aggregate(Tape(), a, [a.data * z], h, parameter(w0))
        want = spmm(_with_data(a, a.data * z), h.data @ w0)
        assert np.array_equal(out.data, want)

    def test_values_length_mismatch(self):
        _, a, h0 = self._setup()
        values = [a.data, np.ones(a.nnz - 1)]
        with pytest.raises(ContractViolation, match="stored entries"):
            record_gdc_aggregate(Tape(), a, values, constant(h0),
                                 constant(np.ones((7, 2))))

    def test_input_rows_mismatch(self):
        _, a, h0 = self._setup()
        with pytest.raises(ContractViolation, match="input rows"):
            record_gdc_aggregate(Tape(), a, [a.data], constant(h0[1:]),
                                 constant(np.ones((7, 2))))

    def test_no_blocks(self):
        _, a, h0 = self._setup()
        with pytest.raises(ContractViolation, match="at least one block"):
            record_gdc_aggregate(Tape(), a, [], constant(h0),
                                 constant(np.ones((7, 2))))


class TestStackedInput:
    """A CSR input stacked once (``stack_blocks``) against the per-block
    path it replaces: ``split_columns``' blocks, one product per block for
    S_b and one transposed product per block for dW."""

    N, F = 40, 1433

    def _input(self, seed=0, empty_block=None, n_blocks=4):
        rng = np.random.default_rng(seed)
        x = (rng.random((self.N, self.F)) < 0.05) * rng.random((self.N, self.F))
        if empty_block is not None:
            c0, c1 = block_bounds(self.F, n_blocks)[empty_block]
            x[:, c0:c1] = 0.0
        return csr_array(x.astype(np.float32))

    @pytest.mark.parametrize("empty_block", [None, 1])
    def test_rows_hold_the_column_blocks(self, empty_block):
        x = self._input(empty_block=empty_block)
        stacked = stack_blocks(x, 4)
        assert stacked.shape == (4 * self.N, self.F) and stacked.nnz == x.nnz
        assert stacked.dtype == np.float32
        dense, want = stacked.toarray(), x.toarray()
        for b, (c0, c1) in enumerate(block_bounds(self.F, 4)):
            rows = dense[b * self.N:(b + 1) * self.N]
            assert np.array_equal(rows[:, c0:c1], want[:, c0:c1])
            assert not rows[:, :c0].any() and not rows[:, c1:].any()
        if empty_block is not None:
            lo = empty_block * self.N
            assert stacked.indptr[lo] == stacked.indptr[lo + self.N]

    @pytest.mark.parametrize("n_blocks,empty_block", [
        (4, None), (4, 1), (3, 2), (1, None)])
    def test_products_and_dw_equal_the_per_block_path(self, n_blocks,
                                                      empty_block):
        # 1433 features over 4 blocks: widths 358, 358, 358, 359.
        rng = np.random.default_rng(7)
        x = self._input(seed=n_blocks, empty_block=empty_block,
                        n_blocks=n_blocks)
        a = normalize(build_adjacency(random_edges(rng, self.N, 0.2),
                                      self.N)).astype(np.float32)
        values = [a.data * rng.random(a.nnz).astype(np.float32)
                  for _ in range(n_blocks)]
        w0 = rng.normal(size=(self.F, 16)).astype(np.float32)
        bounds = block_bounds(self.F, n_blocks)
        h_blocks = split_columns(x, n_blocks)
        old = [h_b @ w0[c0:c1] for h_b, (c0, c1) in zip(h_blocks, bounds)]
        got = block_products(stack_blocks(x, n_blocks), w0, n_blocks)
        assert len(got) == n_blocks
        for s_b, want in zip(got, old):
            assert s_b.dtype == np.float32 and np.array_equal(s_b, want)

        t, w = Tape(), parameter(w0)
        out = record_gdc_aggregate(t, a, values, constant(x), w)
        want_out = spmm(a, old[0], values=values[0])
        for v, s_b in zip(values[1:], old[1:]):
            spmm(a, s_b, values=v, out=want_out)
        assert np.array_equal(out.data, want_out)
        g = rng.normal(size=out.shape).astype(np.float32)
        grads = {}
        t.records[-1][1](g, grads.__setitem__)
        want_dw = np.empty_like(w0)
        for v, h_b, (c0, c1) in zip(values, h_blocks, bounds):
            want_dw[c0:c1] = h_b.T @ spmm_t(a, g, values=v)
        assert grads[w].dtype == np.float32
        assert np.array_equal(grads[w], want_dw)

    def test_one_block_is_the_input_itself(self):
        x = self._input()
        assert stack_blocks(x, 1) is x
        assert block_input(x, 1) is x

    def test_dense_input_keeps_column_views(self):
        h0 = self._input().toarray()
        blocks = block_input(h0, 4)
        assert len(blocks) == 4
        assert all(np.shares_memory(h_b, h0) for h_b in blocks)


class TestSuppliedProducts:
    """``record_gdc_aggregate`` with precomputed ``H_b`` and ``S_b``."""

    @staticmethod
    def _setup(seed=5):
        rng = np.random.default_rng(seed)
        a = normalize(build_adjacency(random_edges(rng, 6, 0.5), 6))
        h0 = rng.normal(size=(6, 7))
        h0[rng.random(h0.shape) < 0.5] = 0.0
        return rng, a, h0

    @pytest.mark.parametrize("nb", [1, 3])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_bitwise_equal_to_plain_call(self, sparse, nb):
        rng, a, h0 = self._setup()
        w0 = rng.normal(size=(7, 2))  # 7 >= 3 * 2: multiply first
        z0 = rng.random((nb, a.nnz))
        t0 = rng.normal(size=(nb, a.nnz))
        weight = rng.normal(size=(6, 2))

        def run(supply):
            h = constant(csr_array(h0)) if sparse else parameter(h0)
            w = parameter(w0)
            pi = parameter(0.5)
            products = None
            if supply:
                products = BlockProducts(block_input(h.data, nb), nb)
                products.get(w.data)  # built before the op takes them
            t = Tape()
            out = masked_aggregate(t, a, z0, h, w, pi=pi, tangents=list(t0),
                                   products=products)
            g = backward(t, record_frobenius_sq(
                t, record_mul(t, out, constant(weight))))
            wrt = [w, pi] + ([] if sparse else [h])
            return [out.data] + [g.get(v) for v in wrt]

        for got, want in zip(run(True), run(False)):
            assert np.array_equal(got, want)

    def test_aggregate_first_rejects_products(self):
        rng, a, h0 = self._setup()
        w0 = rng.normal(size=(7, 3))  # 7 < 3 * 3: aggregate first
        products = BlockProducts(block_input(h0, 3), 3)
        with pytest.raises(ContractViolation, match="multiplying first"):
            record_gdc_aggregate(Tape(), a, [a.data] * 3, constant(h0),
                                 constant(w0), products=products)

    def test_block_count_mismatch(self):
        rng, a, h0 = self._setup()
        w0 = rng.normal(size=(7, 2))
        products = BlockProducts(block_input(h0, 2), 2)
        with pytest.raises(ContractViolation, match="2 block products"):
            record_gdc_aggregate(Tape(), a, [a.data] * 3, constant(h0),
                                 constant(w0), products=products)


def _per_edge_pi_gradient(mats, tangents, g, s_blocks):
    """dL/dpi by the per-entry rule: each block's mask gradient
    ``A_e * (G[r_e] . S_b[c_e])``, contracted with that block's tangent.
    Also returns the sum of the absolute per-entry terms, the scale of the
    rounding error in any order of summing them."""
    total = magnitude = 0.0
    for a, t_b, s_b in zip(mats, tangents, s_blocks):
        rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
        per_edge = a.data * np.einsum("ij,ij->i", g[rows], s_b[a.indices])
        total += per_edge @ t_b
        magnitude += np.abs(per_edge) @ np.abs(t_b)
    return total, magnitude


class TestPiTangent:
    """dL/dpi from the tangent pushed through the fused op, against the
    per-entry mask gradient contracted with the tangent."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 31 - 1), nb=st.integers(1, 4),
           f_out=st.integers(1, 4), sparse=st.booleans(),
           supply=st.booleans(), symmetric=st.booleans(),
           protect=st.booleans(), standard=st.booleans())
    # Its terms cancel to 1.2e-3 and the error, 8.4e-15, is rounding: a
    # bound relative to the result would fail it.
    @example(seed=5303, nb=2, f_out=2, sparse=False, supply=False,
             symmetric=False, protect=True, standard=False)
    def test_matches_per_edge_rule(self, seed, nb, f_out, sparse, supply,
                                   symmetric, protect, standard):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        a = normalize(build_adjacency(random_edges(rng, n, 0.5), n))
        edges = EdgeSet.from_sparse(a)
        f_in = int(rng.integers(nb, 2 * nb * f_out + 1))  # either order
        h0 = rng.normal(size=(n, f_in))
        h0[rng.random(h0.shape) < 0.4] = 0.0
        w0 = rng.normal(size=(f_in, f_out))
        pi = parameter(rng.uniform(0.05, 0.95))
        spec = MaskSpec(kind=MaskKind.GDC, n_blocks=nb,
                        temperature=rng.uniform(0.1, 1.0),
                        symmetric=symmetric, protect_self_loops=protect)
        mask = sample_concrete_mask(edges, spec, pi, rng, standard=standard)
        h = constant(csr_array(h0) if sparse else h0)
        products = None
        if supply and multiplies_first(h.data, f_out, nb):
            products = BlockProducts(block_input(h.data, nb), nb)
            products.get(w0)
        t = Tape()
        out = masked_aggregate(t, a, mask.blocks, h, parameter(w0),
                               pi=mask.pi, tangents=mask.tangents,
                               products=products)
        weight = rng.normal(size=out.shape)
        loss = record_frobenius_sq(t, record_mul(t, out, constant(weight)))
        got = backward(t, loss).get(pi)[0, 0]
        bounds = np.linspace(0, f_in, nb + 1).astype(int)
        s_blocks = [h0[:, c0:c1] @ w0[c0:c1]
                    for c0, c1 in zip(bounds[:-1], bounds[1:])]
        g = 2.0 * weight ** 2 * out.data  # dL/dout
        want, magnitude = _per_edge_pi_gradient([a] * nb, mask.tangents, g,
                                                s_blocks)
        assert abs(got - want) <= 1e-12 * magnitude

    @pytest.mark.parametrize("f_out", [1, 2])   # multiply / aggregate first
    def test_float32_inner_products_sum_in_float64(self, f_out):
        # Every product is exact in float32 and the sum is 64. Summed in
        # float32, each of up to 64 partial sums starts at 2^24, where
        # adding 1 changes nothing, so the ones are lost.
        k = 64
        g = np.zeros((3 * k, f_out), dtype=np.float32)
        g[:, 0] = [2.0 ** 24] * k + [1.0] * k + [-2.0 ** 24] * k
        n = len(g)
        assert np.vdot(g, np.ones_like(g)) != k
        one = np.ones(n, dtype=np.float32)
        t = Tape()
        pi = parameter(0.5)
        out = record_gdc_aggregate(
            t, _eye(n).astype(np.float32), [one],
            constant(np.ones((n, 1), dtype=np.float32)),
            parameter(np.ones((1, f_out), dtype=np.float32)), pi=pi,
            tangents=[one])
        assert out.data.dtype == np.float32
        # G reaches the op as the seed on ``out``, in float32
        got = backward(t, record_scale(t, pi, 0.0), seeds={out: g}).get(pi)
        assert got.dtype == np.float64 and got[0, 0] == k


class TestElementwise:
    def test_relu_values(self):
        out = record_relu(Tape(), constant([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out.data, [[0.0, 2.0]])

    def test_relu_subgradient_zero_at_zero(self):
        t = Tape()
        x = parameter([[0.0, 1.0]])
        out = record_relu(t, x)
        loss = record_frobenius_sq(t, out)
        g = backward(t, loss).get(x)
        assert g[0, 0] == 0.0

    def test_frobenius_identity(self):
        t = Tape()
        w = parameter(np.eye(2))
        loss = record_frobenius_sq(t, w)
        assert loss.item() == pytest.approx(2.0)
        np.testing.assert_allclose(backward(t, loss).get(w), 2.0 * np.eye(2))

    def test_add_scale_mul_fd(self):
        rng = np.random.default_rng(7)
        x0 = rng.normal(size=(2, 3))
        y0 = rng.normal(size=(2, 3))

        def loss_of(flat):
            x = parameter(flat[:6].reshape(2, 3))
            y = parameter(flat[6:].reshape(2, 3))
            t = Tape()
            z = record_add(t, record_scale(t, x, 1.7), record_mul(t, x, y))
            return record_frobenius_sq(t, z).item()

        x = parameter(x0)
        y = parameter(y0)
        t = Tape()
        z = record_add(t, record_scale(t, x, 1.7), record_mul(t, x, y))
        loss = record_frobenius_sq(t, z)
        g = backward(t, loss)
        flat = np.concatenate([x0.ravel(), y0.ravel()])
        fd = finite_diff(loss_of, flat)
        assert rel_err(np.concatenate([g.get(x).ravel(), g.get(y).ravel()]), fd) < 1e-6

    def test_mul_broadcast_column(self):
        t = Tape()
        x = parameter(np.ones((3, 2)))
        col = parameter(np.array([[1.0], [2.0], [3.0]]))
        out = record_mul(t, x, col)
        loss = record_frobenius_sq(t, out)
        g = backward(t, loss)
        assert g.get(col).shape == (3, 1)
        assert g.get(x).shape == (3, 2)

    def test_slices_scatter_gradients(self):
        # Two column blocks of X and two row blocks of W: each block's
        # gradient lands in its own slice of the full arrays.
        rng = np.random.default_rng(8)
        x0 = rng.normal(size=(3, 4))
        w0 = rng.normal(size=(4, 2))
        values = [np.ones(3), np.array([1.0, 0.0, 1.0])]

        def loss_of(flat):
            t = Tape()
            x = parameter(flat[:12].reshape(3, 4))
            w = parameter(flat[12:].reshape(4, 2))
            out = record_gdc_aggregate(t, _eye(3), values, x, w)
            return record_frobenius_sq(t, out).item()

        t = Tape()
        x = parameter(x0)
        w = parameter(w0)
        out = record_gdc_aggregate(t, _eye(3), values, x, w)
        loss = record_frobenius_sq(t, out)
        g = backward(t, loss)
        got = np.concatenate([g.get(x).ravel(), g.get(w).ravel()])
        fd = finite_diff(loss_of, np.concatenate([x0.ravel(), w0.ravel()]))
        assert rel_err(got, fd) < 1e-6


class TestLogSoftmax:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c", [2, 7, 8, 9, 16, 40])
    def test_equals_the_row_max_formula(self, c, dtype):
        # The column loop's row max gives, bit for bit, the values of the
        # reduction it replaced, non-finite rows included.
        rng = np.random.default_rng(c)
        x = (rng.normal(size=(50, c)) * 30).astype(dtype)
        x[3] = np.nan
        x[4, c // 2] = np.nan
        x[5, 0] = np.inf
        x[6, -1] = -np.inf
        x[7] = -np.inf
        x[8, 1] = np.finfo(dtype).max
        with np.errstate(invalid="ignore", over="ignore"):
            got = record_log_softmax_rows(Tape(), constant(x)).data
            xd = x.astype(np.float64)
            shifted = xd - xd.max(axis=1, keepdims=True)
            want = shifted - np.log(np.exp(shifted).sum(axis=1,
                                                        keepdims=True))
        assert got.dtype == np.float64
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(got[3]).all() and np.isnan(got[4]).all()

    def test_uniform_row(self):
        out = record_log_softmax_rows(Tape(), constant([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[-np.log(2), -np.log(2)]])

    def test_extreme_row_is_stable(self):
        out = record_log_softmax_rows(Tape(), constant([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert out.data[0, 1] == pytest.approx(-1000.0, abs=1e-9)

    def test_rows_logsumexp_to_zero(self):
        rng = np.random.default_rng(1)
        out = record_log_softmax_rows(Tape(), constant(rng.normal(size=(6, 5)) * 10))
        lse = np.log(np.exp(out.data).sum(axis=1))
        assert np.max(np.abs(lse)) < 1e-12

    def test_nll_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        x0 = rng.normal(size=(4, 3))
        labels = np.array([0, 2, 1, 0])
        observed = np.array([0, 1, 3])

        def loss_of(flat):
            t = Tape()
            x = parameter(flat.reshape(4, 3))
            lp = record_log_softmax_rows(t, x)
            return record_masked_nll(t, lp, labels, observed).item()

        t = Tape()
        x = parameter(x0)
        lp = record_log_softmax_rows(t, x)
        loss = record_masked_nll(t, lp, labels, observed)
        g = backward(t, loss).get(x)
        fd = finite_diff(loss_of, x0.ravel()).reshape(4, 3)
        assert rel_err(g, fd) < 1e-5


class TestMaskedNll:
    def test_constant_logprob(self):
        lp = constant(np.full((3, 2), -0.1))
        loss = record_masked_nll(Tape(), lp, np.array([0, 1, 0]), np.arange(3))
        assert loss.item() == pytest.approx(0.1)

    def test_uniform_prediction(self):
        c = 7
        lp = constant(np.full((5, c), -np.log(c)))
        loss = record_masked_nll(Tape(), lp, np.zeros(5, dtype=int), np.arange(5))
        assert loss.item() == pytest.approx(np.log(c))

    def test_against_direct_sum_oracle(self):
        rng = np.random.default_rng(9)
        raw = rng.normal(size=(6, 4))
        lp_data = raw - np.log(np.exp(raw).sum(axis=1, keepdims=True))
        labels = rng.integers(0, 4, size=6)
        observed = np.array([1, 3, 4])
        loss = record_masked_nll(Tape(), constant(lp_data), labels, observed)
        want = -np.mean([lp_data[v, labels[v]] for v in observed])
        assert loss.item() == pytest.approx(want, abs=1e-15)

    def test_empty_observed_rejected(self):
        with pytest.raises(ContractViolation):
            record_masked_nll(Tape(), constant(np.zeros((2, 2))),
                              np.array([0, 1]), np.array([], dtype=int))


class TestBackward:
    def test_frobenius_gradient(self):
        t = Tape()
        w = parameter(np.array([[1.0, -2.0], [0.5, 3.0]]))
        loss = record_frobenius_sq(t, w)
        np.testing.assert_allclose(backward(t, loss).get(w), 2.0 * w.data)

    def test_frobenius_gradient_of_float32_is_float32(self):
        # The value sums the float64 squares; the backward computes 2 g x
        # in float32, and the ReLU upstream of it then hands w a float32
        # gradient too.
        rng = np.random.default_rng(7)
        t = Tape()
        w = parameter(rng.normal(size=(3, 4)).astype(np.float32))
        h = record_relu(t, w)
        fro = record_frobenius_sq(t, h)
        assert fro.data.dtype == np.float64
        assert fro.item() == np.sum(h.data.astype(np.float64) ** 2)
        grads = backward(t, record_scale(t, fro, 0.3))
        dh = grads.get(h)
        want = h.data * np.float32(2.0 * 0.3)
        assert dh.dtype == np.float32
        assert np.array_equal(dh.view(np.uint32), want.view(np.uint32))
        dw = grads.get(w)
        assert dw.dtype == np.float32
        assert np.array_equal(dw, want * (w.data > 0))

    def test_unused_parameter_gets_zeros(self):
        t = Tape()
        w = parameter(np.ones((2, 2)))
        unused = parameter(np.ones((3, 3)))
        loss = record_frobenius_sq(t, w)
        g = backward(t, loss)
        np.testing.assert_array_equal(g.get(unused), np.zeros((3, 3)))

    def test_non_scalar_terminal_rejected(self):
        t = Tape()
        w = parameter(np.ones((2, 2)))
        out = record_relu(t, w)
        with pytest.raises(ContractViolation):
            backward(t, out)

    def test_deterministic_bitwise(self):
        def run():
            rng = np.random.default_rng(42)
            t = Tape()
            x = constant(rng.normal(size=(5, 4)))
            w = parameter(rng.normal(size=(4, 3)))
            lp = record_log_softmax_rows(t, _matmul(t, x, w))
            loss = record_masked_nll(t, lp, np.array([0, 1, 2, 0, 1]),
                                     np.arange(5))
            return backward(t, loss).get(w)

        a, b = run(), run()
        assert np.array_equal(a, b)

    def test_reused_tensor_accumulates(self):
        t = Tape()
        w = parameter(np.array([[2.0]]))
        out = record_add(t, record_scale(t, w, 3.0), record_scale(t, w, 4.0))
        g = backward(t, out).get(w)
        assert g[0, 0] == 7.0
