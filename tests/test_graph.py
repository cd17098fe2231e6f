"""Graph core: adjacency construction, normalization, masked products.

The masked products run through the model's fused aggregation op, one
block with W = I (``test_tape._masked_spmm``).
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

from gdcn.errors import ContractViolation, MalformedInputError
from gdcn.graph import (EdgeSet, build_adjacency, entry_rows, kept,
                        lambda_max, normalize, spmm, spmm_t)
from gdcn.tape import Tape, constant, record_gdc_aggregate

from conftest import dense_normalize, random_edges
from test_tape import _masked_spmm


def identity_sparse(n):
    return csr_array(np.eye(n))


class TestBuildAdjacency:
    def test_single_edge_symmetrized(self):
        a = build_adjacency([(0, 1)], 2)
        np.testing.assert_array_equal(a.toarray(), [[0, 1], [1, 0]])

    def test_empty(self):
        a = build_adjacency([], 3)
        assert a.nnz == 0
        np.testing.assert_array_equal(a.toarray(), np.zeros((3, 3)))

    def test_duplicates_collapse(self):
        a = build_adjacency([(0, 1), (1, 0), (0, 1)], 2)
        b = build_adjacency([(0, 1)], 2)
        np.testing.assert_array_equal(a.toarray(), b.toarray())
        assert a.nnz == 2

    def test_out_of_range(self):
        with pytest.raises(MalformedInputError):
            build_adjacency([(0, 5)], 3)

    def test_self_loops_dropped(self):
        a = build_adjacency([(0, 0), (0, 1)], 2)
        assert np.all(a.toarray().diagonal() == 0)

    def test_csr_invariants_on_random_graphs(self):
        rng = np.random.default_rng(3)
        for n in (2, 5, 9):
            a = build_adjacency(random_edges(rng, n), n)
            assert a.indptr[0] == 0 and a.indptr[-1] == a.nnz
            assert np.all(np.diff(a.indptr) >= 0)
            for r in range(n):
                cols = a.indices[a.indptr[r]:a.indptr[r + 1]]
                assert np.all(np.diff(cols) > 0)
                assert np.all((cols >= 0) & (cols < n))
            assert np.all(np.isfinite(a.data))


class TestBuildAdjacencyInputs:
    """An (m, 2) array is taken as it is and any other iterable goes
    through ``list``; every kind gives the same CSR arrays."""

    N = 12

    @classmethod
    def _pairs(cls):
        rng = np.random.default_rng(8)
        pairs = random_edges(rng, cls.N, 0.3) + [(3, 3), (1, 0), (0, 1)]
        return np.array(pairs, dtype=np.int64)

    @classmethod
    def _check(cls, edges):
        a = build_adjacency(edges, cls.N)
        dense = np.zeros((cls.N, cls.N))
        for u, v in cls._pairs():
            dense[u, v] = dense[v, u] = 1.0
        np.fill_diagonal(dense, 0.0)
        want = csr_array(dense)
        for got, ref in ((a.indptr, want.indptr), (a.indices, want.indices),
                         (a.data, want.data)):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)

    def test_int64_array(self):
        self._check(self._pairs())

    def test_int32_array(self):
        self._check(self._pairs().astype(np.int32))

    def test_list_of_tuples(self):
        self._check([tuple(p) for p in self._pairs().tolist()])

    def test_generator(self):
        self._check(tuple(p) for p in self._pairs().tolist())


class TestNormalize:
    def test_two_node_path(self):
        n = normalize(build_adjacency([(0, 1)], 2))
        np.testing.assert_allclose(n.toarray(), [[1, 1], [1, 1]])

    def test_empty_graph_is_identity(self):
        n = normalize(build_adjacency([], 3))
        np.testing.assert_array_equal(n.toarray(), np.eye(3))

    def test_three_node_star(self):
        # center 0 has degree 2, leaves degree 1: entry (0,1) = 1/sqrt(2)
        n = normalize(build_adjacency([(0, 1), (0, 2)], 3))
        d = n.toarray()
        assert d[0, 1] == pytest.approx(0.7071, abs=1e-4)
        np.testing.assert_allclose(np.diag(d), 1.0)

    def test_asymmetric_rejected(self):
        a = csr_array((np.ones(1), np.array([1]), np.array([0, 1, 1])),
                      shape=(2, 2))
        with pytest.raises(ContractViolation):
            normalize(a)

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ContractViolation):
            normalize(identity_sparse(2))

    def test_pattern_and_range(self):
        rng = np.random.default_rng(11)
        for n in (3, 6, 8):
            a = build_adjacency(random_edges(rng, n, 0.4), n)
            nm = normalize(a)
            dense = nm.toarray()
            expected_pattern = (a.toarray() + np.eye(n)) != 0
            np.testing.assert_array_equal(dense != 0, expected_pattern)
            vals = nm.data
            assert np.all(vals > 0) and np.all(vals <= 1)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.booleans())
    def test_equals_scipy_diags_formula_bitwise(self, seed, renorm):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        a = build_adjacency(random_edges(rng, n, rng.random()), n)
        got, want = normalize(a, renorm_trick=renorm), diags_normalize(a, renorm)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        for renorm in (False, True):
            for n in (4, 7):
                a = build_adjacency(random_edges(rng, n, 0.5), n)
                got = normalize(a, renorm_trick=renorm).toarray()
                want = dense_normalize(a.toarray(), renorm_trick=renorm)
                np.testing.assert_allclose(got, want, atol=1e-14)


def diags_normalize(a, renorm_trick):
    """``normalize`` as scipy ``diags`` products, the formula it had before
    its values came from ``EdgeSet.normalized_values``."""
    n = a.shape[0]
    s = sp.csr_matrix(a)
    deg = np.diff(s.indptr).astype(np.float64)
    if renorm_trick:
        d = 1.0 / np.sqrt(deg + 1.0)
        scaled = sp.diags(d) @ (s + sp.identity(n, format="csr")) @ sp.diags(d)
    else:
        with np.errstate(divide="ignore"):
            d = np.where(deg > 0, 1.0 / np.sqrt(deg), 0.0)
        scaled = sp.identity(n, format="csr") + sp.diags(d) @ s @ sp.diags(d)
    scaled = sp.csr_matrix(scaled)
    scaled.sort_indices()
    return scaled


class TestNormalizedValues:
    """The one normalization rule on masked graphs, against dense oracles."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.booleans())
    def test_masked_matches_dense_oracle(self, seed, renorm):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        isolated = rng.random(n) < 0.2
        edges = [(u, v) for u, v in random_edges(rng, n, rng.random())
                 if not (isolated[u] or isolated[v])]
        a_raw = build_adjacency(edges, n)
        a_norm = normalize(a_raw, renorm_trick=renorm)
        es = EdgeSet.from_sparse(a_norm)
        # an expected-keep value or 0 per entry; only z != 0 counts
        z = (rng.random(es.n_entries) < 0.6) * rng.uniform(0.05, 1.0)
        cut = rng.random(n) < 0.3  # nodes whose every edge drops
        z[cut[es.rows] | cut[es.cols]] = 0.0
        lower = ~es.canonical()  # each mirror takes its edge's value
        z[lower] = z[es.mirror[lower]]
        got = csr_array((es.normalized_values(z, renorm), a_norm.indices,
                         a_norm.indptr), shape=a_norm.shape).toarray()
        kept = np.zeros((n, n))
        kept[es.rows, es.cols] = z != 0
        z_off = kept * (1 - np.eye(n))
        want = dense_normalize(a_raw.toarray() * z_off, renorm_trick=renorm)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_asymmetric_kept_set_rejected(self):
        es = EdgeSet.from_sparse(normalize(build_adjacency([(0, 1)], 2)))
        z = np.ones(es.n_entries)
        z[np.flatnonzero(~es.is_diag)[0]] = 0.0
        with pytest.raises(ContractViolation, match="symmetric"):
            es.normalized_values(z)


class TestSpmm:
    def test_identity(self):
        h = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(spmm(identity_sparse(3), h), h)

    def test_zero_matrix(self):
        a = build_adjacency([], 3)
        np.testing.assert_array_equal(spmm(a, np.ones((3, 2))), np.zeros((3, 2)))

    def test_two_node_path_normalized(self):
        n = normalize(build_adjacency([(0, 1)], 2))
        np.testing.assert_allclose(spmm(n, np.eye(2)), [[1, 1], [1, 1]])

    def test_shape_mismatch(self):
        with pytest.raises(ContractViolation):
            spmm(identity_sparse(3), np.ones((4, 2)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_against_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a = normalize(build_adjacency(random_edges(rng, 5, 0.6), 5))
        h = rng.normal(size=(5, 3))
        np.testing.assert_allclose(spmm(a, h), a.toarray() @ h, atol=1e-12)


def pattern(rng, rows, cols, index=np.int32, density=0.4):
    """A random (rows, cols) CSR array whose index arrays are ``index``."""
    dense = rng.normal(size=(rows, cols))
    dense[rng.random(dense.shape) > density] = 0.0
    a = csr_array(dense)
    a.indices = a.indices.astype(index)
    a.indptr = a.indptr.astype(index)
    return a


def with_values(a, values):
    return csr_array((values, a.indices, a.indptr), shape=a.shape)


class TestSpmmKernel:
    """``spmm(a, h, values=, out=)`` adds ``A(values) @ H`` into ``out``;
    ``spmm_t(a, g, values=)`` is ``A(values).T @ G``."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("index", [np.int32, np.int64])
    @pytest.mark.parametrize("rows,cols", [(30, 30), (9, 30)])  # loss rows
    def test_accumulates_against_dense_oracle(self, dtype, index, rows, cols):
        rng = np.random.default_rng(rows + cols)
        a = pattern(rng, rows, cols, index)
        vs = [rng.normal(size=a.nnz).astype(dtype) for _ in range(3)]
        xs = [rng.normal(size=(cols, 5)).astype(dtype) for _ in range(3)]
        out = spmm(a, xs[0], values=vs[0])
        for v, x in zip(vs[1:], xs[1:]):
            assert spmm(a, x, values=v, out=out) is out
        assert out.dtype == dtype
        want = sum(with_values(a, v.astype(float)).toarray() @ x.astype(float)
                   for v, x in zip(vs, xs))
        tol = 1e-5 if dtype == np.float32 else 1e-12
        np.testing.assert_allclose(out, want, rtol=tol, atol=tol)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", [1, 7, 32])
    def test_one_block_is_bitwise_matmul(self, dtype, width):
        rng = np.random.default_rng(width)
        a = pattern(rng, 25, 20).astype(dtype)
        x = rng.normal(size=(20, width)).astype(dtype)
        got = spmm(a, x)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, a @ x)
        v = rng.normal(size=a.nnz).astype(dtype)
        np.testing.assert_array_equal(spmm(a, x, values=v),
                                      with_values(a, v) @ x)

    def test_mixed_dtypes_compute_in_float64(self):
        rng = np.random.default_rng(3)
        a = pattern(rng, 8, 8)
        x = rng.normal(size=(8, 3)).astype(np.float32)
        v = a.data.astype(np.float32)
        want = with_values(a, v.astype(np.float64)) @ x.astype(np.float64)
        for got in (spmm(a.astype(np.float32), x.astype(np.float64)),
                    spmm(a, x, values=v.astype(np.float64))):
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, want)

    def test_non_contiguous_operand(self):
        rng = np.random.default_rng(5)
        a = pattern(rng, 12, 10)
        wide = rng.normal(size=(10, 12))
        for x in (wide[:, 3:9], wide[:, ::2], np.asfortranarray(wide)):
            assert not x.flags.c_contiguous
            np.testing.assert_array_equal(spmm(a, x),
                                          spmm(a, np.ascontiguousarray(x)))
            g = rng.normal(size=(12, x.shape[1]))
            np.testing.assert_array_equal(
                spmm_t(a, np.asfortranarray(g)), spmm_t(a, g))

    @pytest.mark.parametrize("width", [1, 7, 32])
    def test_stored_zeros_equal_kept_products(self, width):
        rng = np.random.default_rng(width)
        a = pattern(rng, 40, 30)
        for keep in (0.0, 0.3, 1.0):
            vs = [a.data * (rng.random(a.nnz) < keep) for _ in range(3)]
            xs = [rng.normal(size=(30, width)) for _ in range(3)]
            got = spmm(a, xs[0], values=vs[0])
            want = spmm(kept(a, vs[0]), xs[0])
            for v, x in zip(vs[1:], xs[1:]):
                spmm(a, x, values=v, out=got)
                spmm(kept(a, v), x, out=want)
            np.testing.assert_array_equal(got, want)
            g = rng.normal(size=(40, width))
            np.testing.assert_array_equal(spmm_t(a, g, values=vs[0]),
                                          spmm_t(kept(a, vs[0]), g))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows,cols", [(30, 30), (9, 30)])
    def test_transposed_product(self, dtype, rows, cols):
        rng = np.random.default_rng(rows)
        a = pattern(rng, rows, cols).astype(dtype)
        v = rng.normal(size=a.nnz).astype(dtype)
        g = rng.normal(size=(rows, 6)).astype(dtype)
        got = spmm_t(a, g, values=v)
        assert got.shape == (cols, 6) and got.dtype == dtype
        np.testing.assert_array_equal(got, with_values(a, v).T @ g)
        np.testing.assert_array_equal(spmm_t(a, g), a.T @ g)

    @pytest.mark.parametrize("bad", ["rows", "cols", "dtype", "layout",
                                     "read-only"])
    def test_bad_output_raises_and_leaves_it(self, bad):
        rng = np.random.default_rng(6)
        a = pattern(rng, 6, 5)
        x = rng.normal(size=(5, 4))
        out = {"rows": np.ones((7, 4)), "cols": np.ones((6, 3)),
               "dtype": np.ones((6, 4), dtype=np.float32),
               "layout": np.ones((6, 8))[:, ::2],
               "read-only": np.ones((6, 4))}[bad]
        out.flags.writeable = bad != "read-only"
        before = out.copy()
        with pytest.raises(ContractViolation, match="output"):
            spmm(a, x, out=out)
        np.testing.assert_array_equal(out, before)

    def test_bad_operands_raise_and_leave_output(self):
        rng = np.random.default_rng(7)
        a = pattern(rng, 6, 5)
        out = np.ones((6, 4))
        for x, v in ((np.ones((4, 4)), None), (np.ones(5), None),
                     (np.ones((5, 4)), np.ones(a.nnz + 1))):
            with pytest.raises(ContractViolation):
                spmm(a, x, values=v, out=out)
            np.testing.assert_array_equal(out, np.ones((6, 4)))
        with pytest.raises(ContractViolation, match="shape mismatch"):
            spmm_t(a, np.ones((5, 4)))
        with pytest.raises(ContractViolation, match="stored entries"):
            spmm_t(a, np.ones((6, 4)), values=np.ones(a.nnz - 1))


def masked_spmm(a, mask, h):
    """``(A ⊙ mask) @ H`` as a plain array, without a gradient."""
    return _masked_spmm(Tape(), a, constant(mask), constant(h)).data


class TestMaskedSpmm:
    def test_all_ones_is_bitwise_spmm(self):
        rng = np.random.default_rng(2)
        a = normalize(build_adjacency(random_edges(rng, 6, 0.5), 6))
        h = rng.normal(size=(6, 4))
        ones = np.ones(a.nnz)
        assert np.array_equal(masked_spmm(a, ones, h), spmm(a, h))

    def test_all_zeros(self):
        rng = np.random.default_rng(4)
        a = normalize(build_adjacency(random_edges(rng, 4, 0.7), 4))
        out = masked_spmm(a, np.zeros(a.nnz), np.ones((4, 2)))
        np.testing.assert_array_equal(out, np.zeros((4, 2)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_random_binary_mask_against_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a = normalize(build_adjacency(random_edges(rng, 4, 0.8), 4))
        mask = (rng.random(a.nnz) < 0.5).astype(np.float64)
        h = rng.normal(size=(4, 3))
        dense_masked = a.toarray() * _scatter(a, mask)
        np.testing.assert_allclose(masked_spmm(a, mask, h), dense_masked @ h,
                                   atol=1e-12)

    def test_length_mismatch(self):
        a = normalize(build_adjacency([(0, 1)], 2))
        with pytest.raises(ContractViolation, match="stored entries"):
            record_gdc_aggregate(Tape(), a, [np.ones(a.nnz + 1)],
                                 constant(np.ones((2, 1))), constant(np.eye(1)))


def _scatter(a, mask):
    """Binary matrix carrying mask values on A's pattern (dense oracle aid)."""
    out = np.zeros(a.shape)
    out[entry_rows(a), a.indices] = mask
    return out


class TestLambdaMax:
    def test_identity(self):
        lam, conv = lambda_max(identity_sparse(5))
        assert conv and lam == pytest.approx(1.0, abs=1e-8)

    def test_two_node_path(self):
        lam, conv = lambda_max(build_adjacency([(0, 1)], 2))
        assert conv and lam == pytest.approx(1.0, abs=1e-8)

    def test_complete_graph_k4(self):
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        a = build_adjacency(edges, 4)
        lam, conv = lambda_max(a)
        dense_lam = np.max(np.abs(np.linalg.eigvalsh(a.toarray())))
        assert conv
        assert lam == pytest.approx(dense_lam, rel=1e-6)
        assert lam == pytest.approx(3.0, rel=1e-6)

    def test_k_regular_cycle(self):
        edges = [(i, (i + 1) % 6) for i in range(6)]
        lam, conv = lambda_max(build_adjacency(edges, 6))
        assert conv and lam == pytest.approx(2.0, abs=1e-6)

    def test_zero_matrix(self):
        lam, conv = lambda_max(build_adjacency([], 3))
        assert lam == 0.0 and conv

    def test_bad_tol(self):
        with pytest.raises(ContractViolation):
            lambda_max(identity_sparse(2), tol=0.0)


class TestEdgeSet:
    def test_contains_all_diagonal(self):
        rng = np.random.default_rng(8)
        n = normalize(build_adjacency(random_edges(rng, 6, 0.4), 6))
        es = EdgeSet.from_sparse(n)
        assert int(es.is_diag.sum()) == 6

    def test_mirror_is_involution(self):
        rng = np.random.default_rng(9)
        n = normalize(build_adjacency(random_edges(rng, 7, 0.5), 7))
        es = EdgeSet.from_sparse(n)
        np.testing.assert_array_equal(es.mirror[es.mirror], np.arange(es.n_entries))
        np.testing.assert_array_equal(es.rows[es.mirror], es.cols)

    def test_pattern_matches_normalize_output(self):
        a = build_adjacency([(0, 1), (1, 2)], 4)  # node 3 isolated
        n = normalize(a)
        es = EdgeSet.from_sparse(n)
        assert es.n_entries == n.nnz
        np.testing.assert_array_equal(es.rows, [0, 0, 1, 1, 1, 2, 2, 3])
        np.testing.assert_array_equal(es.cols, n.indices)
