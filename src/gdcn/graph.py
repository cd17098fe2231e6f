"""Adjacency construction, the normalization rule and sparse products.

Matrices are ``scipy.sparse.csr_array``s with sorted column indices per
row, which fixes the iteration order of every product and therefore makes
training reproducible; their indices are int32 unless a size overflows it.
COO-style edge lists are accepted only at ingestion (`build_adjacency`).
Every normalized adjacency, the prepared one and each renormalized mask,
stores the one pattern ``A + I`` (an ``EdgeSet``) and holds the values of
one rule, ``EdgeSet.normalized_values``: ``I + D^{-1/2} A D^{-1/2}`` by
default, ``D~^{-1/2} (A+I) D~^{-1/2}`` behind ``renorm_trick``. A masked
adjacency keeps that pattern in its products: ``spmm`` and ``spmm_t`` take
the mask's entries as ``values`` on it, zeros stored. On finite operands a
stored zero adds an exact zero, so such a product equals one with only the
nonzero entries stored (``kept``) bit for bit. Products keep float32
operands in float32 (``float_array``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
# csr_matvecs / csc_matvecs: the kernels behind scipy's own ``a @ h``.
from scipy.sparse import _sparsetools

from .errors import ContractViolation, MalformedInputError


def index_dtype(*sizes: int):
    """int32 when every size fits in it, else int64 (scipy's choice)."""
    return np.int32 if max(sizes, default=0) <= np.iinfo(np.int32).max else np.int64


def entry_rows(a: sp.csr_array) -> np.ndarray:
    """Row index of every stored entry of a CSR array, in storage order."""
    return np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))


def dense_to_csr(dense: np.ndarray, dtype=np.float64) -> sp.csr_array:
    """``csr_array(dense.astype(np.float64)).astype(dtype)`` for a 2-D
    float64, float32, bool or integer array, read as it is, with no float64
    copy: the same arrays, index dtype included, from one ``flatnonzero``
    scan in about a third of its time. A float32 array converted to float32
    reads half the bytes of a float64 one and casts nothing."""
    n, f = dense.shape
    flat = np.flatnonzero(dense != 0.0)
    idx = index_dtype(len(flat), n, f)
    indptr = np.searchsorted(flat, np.arange(n + 1) * f).astype(idx)
    values = dense.ravel()[flat].astype(dtype, copy=False)
    return sp.csr_array((values, (flat % f).astype(idx), indptr), shape=(n, f))


def float_array(x) -> np.ndarray:
    """``x`` as an array: float32 stays float32, anything else becomes
    float64."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else x.astype(np.float64, copy=False)


def _from_keys(keys: np.ndarray, n: int, data: np.ndarray) -> sp.csr_array:
    """n x n CSR array from sorted, distinct flat keys ``row * n + col``."""
    idx = index_dtype(n, len(keys))
    indptr = np.zeros(n + 1, dtype=idx)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    return sp.csr_array((data, (keys % n).astype(idx), indptr), shape=(n, n))


@dataclass
class EdgeSet:
    """Nonzero pattern of the normalized adjacency: graph edges (both
    directions) plus all self-loops, in CSR storage order.

    ``mirror[k]`` is the storage index of the transposed position of entry k;
    ``is_diag[k]`` marks self-loops. Masks produced by the samplers are
    aligned to this ordering.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    mirror: np.ndarray = field(repr=False)
    is_diag: np.ndarray = field(repr=False)

    @classmethod
    def from_sparse(cls, a: sp.csr_array) -> "EdgeSet":
        n, n_cols = a.shape
        if n != n_cols:
            raise ContractViolation("edge set requires a square matrix")
        rows = entry_rows(a)
        cols = a.indices.copy()
        keys = rows * n + cols
        mirror_keys = cols.astype(np.int64) * n + rows
        mirror = np.searchsorted(keys, mirror_keys)
        if np.any(mirror >= len(keys)) or np.any(keys[mirror] != mirror_keys):
            raise ContractViolation("pattern is not symmetric; cannot mirror edges")
        is_diag = rows == cols
        diag_count = int(is_diag.sum())
        if diag_count != n:
            raise ContractViolation(
                f"pattern holds {diag_count} diagonal entries, expected all {n}"
            )
        return cls(n=n, rows=rows, cols=cols, mirror=mirror, is_diag=is_diag)

    @property
    def n_entries(self) -> int:
        """|E'|: directed entries including self-loops."""
        return len(self.rows)

    def canonical(self) -> np.ndarray:
        """Mask of entries (r, c) with r <= c; one per undirected edge/loop."""
        return self.rows <= self.cols

    def normalized_values(self, z: np.ndarray,
                          renorm_trick: bool = False) -> np.ndarray:
        """Normalized adjacency of the off-diagonal entries with ``z != 0``.

        ``deg`` counts the kept off-diagonal entries of each row. A kept
        entry (r, c) holds ``d[r] * d[c]``: by default ``d = deg^{-1/2}``
        (0 for a node with nothing kept) and the diagonal is 1; under
        ``renorm_trick`` ``d = (deg + 1)^{-1/2}`` and the diagonal holds
        ``d^2``. Dropped entries hold 0, so the pattern stays this one. Only
        which off-diagonal entries of ``z`` are nonzero matters. A kept set
        that is not symmetric raises ``ContractViolation``.
        """
        kept = (np.asarray(z).ravel() != 0.0) & ~self.is_diag
        if np.any(kept != kept[self.mirror]):
            raise ContractViolation("kept edges must be symmetric to renormalize")
        rows, cols = self.rows[kept], self.cols[kept]
        deg = np.bincount(rows, minlength=self.n).astype(np.float64)
        if renorm_trick:
            d = 1.0 / np.sqrt(deg + 1.0)
        else:
            with np.errstate(divide="ignore"):
                d = np.where(deg > 0, 1.0 / np.sqrt(deg), 0.0)
        values = np.zeros(self.n_entries)
        values[kept] = d[rows] * d[cols]
        values[self.is_diag] = d * d if renorm_trick else 1.0
        return values


def build_adjacency(edges, n: int) -> sp.csr_array:
    """Binary symmetric adjacency from an edge list: every pair is mirrored
    so that (u, v) is present iff (v, u) is, duplicates collapse, and the
    diagonal stays empty.

    Parameters
    ----------
    edges : (m, 2) array, taken as it is, or iterable of (u, v) pairs
    n : node count
    """
    pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges),
                       dtype=np.int64).reshape(-1, 2)
    if len(pairs) and (pairs.min() < 0 or pairs.max() >= n):
        raise MalformedInputError(
            f"edge endpoint out of range [0, {n}): "
            f"min {pairs.min()}, max {pairs.max()}"
        )
    pairs = np.vstack([pairs, pairs[:, ::-1]])
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]  # diagonal absent by contract
    keys = np.unique(pairs[:, 0] * n + pairs[:, 1])
    return _from_keys(keys, n, np.ones(len(keys)))


def normalize(a: sp.csr_array, renorm_trick: bool = False) -> sp.csr_array:
    """Normalized adjacency of a binary symmetric ``a`` with a zero diagonal.

    The result stores ``A + I`` and holds ``EdgeSet.normalized_values`` with
    every entry kept: ``I + D^{-1/2} A D^{-1/2}`` by default, where an
    isolated node gets a diagonal entry of 1 and no neighbors, or
    ``D~^{-1/2} (A + I) D~^{-1/2}`` with ``D~ = D + I`` under
    ``renorm_trick``.
    """
    return normalize_with_edges(a, renorm_trick)[0]


def normalize_with_edges(a: sp.csr_array, renorm_trick: bool = False):
    """``normalize`` and the ``EdgeSet`` of its pattern, built once."""
    if a.diagonal().any():
        raise ContractViolation("adjacency must have a zero diagonal")
    if not np.all(a.data == 1.0):
        raise ContractViolation("adjacency must be binary (values == 1)")
    n = a.shape[0]
    keys = np.sort(np.concatenate([entry_rows(a) * n + a.indices,
                                   np.arange(n) * (n + 1)]))
    out = _from_keys(keys, n, np.ones(len(keys)))
    edges = EdgeSet.from_sparse(out)
    out.data = edges.normalized_values(out.data, renorm_trick)
    return out, edges


def kept(a: sp.csr_array, values: np.ndarray) -> sp.csr_array:
    """``a``'s pattern holding ``values``, storing only the nonzero ones.

    The kept entries stay in storage order, so a product with the result
    adds the same nonzero terms in the same order as one with every entry
    stored, and equals it bit for bit on finite operands: its sums start at
    +0.0, and adding an exact zero term changes no bit of a sum. With no
    zero in ``values`` the result shares ``a``'s index arrays.
    """
    nz = values != 0.0
    if nz.all():
        return sp.csr_array((values, a.indices, a.indptr), shape=a.shape)
    keep = np.flatnonzero(nz)  # a gather by position beats a boolean mask
    before = np.zeros(len(values) + 1, dtype=a.indptr.dtype)
    np.cumsum(nz, out=before[1:])
    return sp.csr_array((values[keep], a.indices[keep], before[a.indptr]),
                        shape=a.shape)


def _operands(a: sp.csr_array, x, values, n_in: int):
    """``values`` (by default ``a.data``) and ``x``, C-contiguous in the
    product's dtype: float32 when both are float32, else float64."""
    values = float_array(a.data if values is None else values)
    x = float_array(x)
    nnz = len(a.indices)
    if values.shape != (nnz,):
        raise ContractViolation(
            f"values of shape {values.shape} for {nnz} stored entries")
    if x.ndim != 2 or x.shape[0] != n_in:
        raise ContractViolation(
            f"shape mismatch: A is {a.shape[0]}x{a.shape[1]}, "
            f"the dense operand is {x.shape}, not {n_in} rows")
    dtype = np.result_type(values, x)
    return (values.astype(dtype, copy=False),
            np.ascontiguousarray(x, dtype=dtype))


def _output(out, shape, dtype) -> np.ndarray:
    """A zeroed output, or ``out`` once it is a writeable C-contiguous
    array of ``shape`` and ``dtype``; otherwise ``ContractViolation``."""
    if out is None:
        return np.zeros(shape, dtype=dtype)
    if (not isinstance(out, np.ndarray) or out.shape != shape
            or out.dtype != dtype or not out.flags.c_contiguous
            or not out.flags.writeable):
        raise ContractViolation(
            f"output must be a writeable C-contiguous {shape} {dtype} "
            f"array, got {np.shape(out)} {getattr(out, 'dtype', None)}")
    return out


def spmm(a: sp.csr_array, h, values: np.ndarray | None = None,
         out: np.ndarray | None = None) -> np.ndarray:
    """``out += A @ H``, with A the pattern ``a`` holding ``values`` (by
    default its own), and returns ``out``; a zeroed output when ``out`` is
    None. In float32 when both ``values`` and H are float32.

    Each output row adds its entries' terms to what ``out`` holds, in
    storage order, so blocks summed into one ``out`` are added row by row
    in block order, and one call on a zeroed output equals ``a @ h`` bit
    for bit. ``out`` must be a C-contiguous array of A's rows by H's
    columns in the product's dtype; otherwise ``ContractViolation`` is
    raised and ``out`` is untouched.
    """
    values, h = _operands(a, h, values, a.shape[1])
    shape = (a.shape[0], h.shape[1])
    out = _output(out, shape, h.dtype)
    _sparsetools.csr_matvecs(shape[0], a.shape[1], shape[1], a.indptr,
                             a.indices, values, h, out)
    return out


def spmm_t(a: sp.csr_array, g, values: np.ndarray | None = None,
           out: np.ndarray | None = None) -> np.ndarray:
    """``out += A.T @ G``, with A the pattern ``a`` holding ``values`` (by
    default its own), and returns ``out``; a zeroed output when ``out`` is
    None, on which the result equals ``a.T @ g`` bit for bit. Used by
    reverse-mode adjoints; ``out`` follows ``spmm``'s rule."""
    values, g = _operands(a, g, values, a.shape[0])
    shape = (a.shape[1], g.shape[1])
    out = _output(out, shape, g.dtype)
    # a's CSR arrays are the CSC arrays of its transpose
    _sparsetools.csc_matvecs(shape[0], a.shape[0], shape[1], a.indptr,
                             a.indices, values, g, out)
    return out


def lambda_max(a: sp.csr_array, tol: float = 1e-8, max_iter: int = 1000):
    """Largest-magnitude eigenvalue of a symmetric matrix by power iteration.

    Starts from the all-ones vector. Returns ``(estimate, converged)``;
    a zero matrix returns ``(0.0, True)``.
    """
    if tol <= 0:
        raise ContractViolation("tol must be positive")
    if (a != a.T).nnz != 0:
        raise ContractViolation("lambda_max requires a symmetric matrix")
    n = a.shape[0]
    if n == 0 or a.nnz == 0:
        return 0.0, True
    v = np.full(n, 1.0 / np.sqrt(n))
    lam_prev = 0.0
    for _ in range(max_iter):
        w = a @ v
        lam = float(np.linalg.norm(w))
        if lam == 0.0:
            return 0.0, True
        v = w / lam
        if abs(lam - lam_prev) <= tol * max(abs(lam), 1e-300):
            return lam, True
        lam_prev = lam
    return lam_prev, False
