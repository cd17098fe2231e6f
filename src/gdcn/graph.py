"""Sparse graph representation, adjacency normalization and sparse products.

The canonical storage is CSR with strictly increasing column indices per row,
which fixes the iteration order of every masked product and therefore makes
training reproducible. COO-style edge lists are accepted only at ingestion
(`build_adjacency`). The normalizing operator is ``I + D^{-1/2} A D^{-1/2}``
by default; the Kipf-style renormalization ``D~^{-1/2} (A+I) D~^{-1/2}`` is
available behind the ``renorm_trick`` flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ContractViolation, MalformedInputError


@dataclass
class SparseMatrix:
    """CSR matrix with float64 values and sorted column indices per row."""

    n_rows: int
    n_cols: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray

    @property
    def nnz(self) -> int:
        return len(self.col_idx)

    def row_indices(self) -> np.ndarray:
        """Row index of every stored entry, in storage order."""
        return np.repeat(np.arange(self.n_rows), np.diff(self.row_ptr))

    def to_scipy(self) -> sp.csr_matrix:
        return sp.csr_matrix(
            (self.values, self.col_idx, self.row_ptr), shape=(self.n_rows, self.n_cols)
        )

    def to_dense(self) -> np.ndarray:
        return self.to_scipy().toarray()

    def with_values(self, values: np.ndarray) -> "SparseMatrix":
        """Same pattern, different values (no copy of the index arrays)."""
        if len(values) != self.nnz:
            raise ContractViolation(
                f"value vector length {len(values)} != nnz {self.nnz}"
            )
        return SparseMatrix(self.n_rows, self.n_cols, self.row_ptr, self.col_idx,
                            np.asarray(values, dtype=np.float64))


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
    _lower: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._lower = np.flatnonzero(~self.canonical())

    @classmethod
    def from_sparse(cls, a: SparseMatrix) -> "EdgeSet":
        if a.n_rows != a.n_cols:
            raise ContractViolation("edge set requires a square matrix")
        n = a.n_rows
        rows = a.row_indices()
        cols = a.col_idx.copy()
        keys = rows.astype(np.int64) * n + cols
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

    def symmetrize(self, values: np.ndarray) -> np.ndarray:
        """Copy each non-canonical entry from its mirror, in place.

        A per-entry vector whose canonical entries were drawn becomes one
        value per undirected edge; returns ``values``.
        """
        values[self._lower] = values[self.mirror[self._lower]]
        return values


def build_adjacency(edges, n: int, symmetrize: bool = True) -> SparseMatrix:
    """Binary adjacency from an edge list; duplicates collapsed, no diagonal.

    Parameters
    ----------
    edges : iterable of (u, v) pairs
    n : node count
    symmetrize : mirror every pair so (u, v) is present iff (v, u) is
    """
    pairs = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
    if len(pairs) and (pairs.min() < 0 or pairs.max() >= n):
        raise MalformedInputError(
            f"edge endpoint out of range [0, {n}): "
            f"min {pairs.min()}, max {pairs.max()}"
        )
    if symmetrize and len(pairs):
        pairs = np.vstack([pairs, pairs[:, ::-1]])
    if len(pairs):
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]  # diagonal absent by contract
    if len(pairs) == 0:
        return SparseMatrix(n, n, np.zeros(n + 1, dtype=np.int64),
                            np.zeros(0, dtype=np.int64), np.zeros(0))
    keys = np.unique(pairs[:, 0] * n + pairs[:, 1])
    rows, cols = keys // n, keys % n
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=row_ptr[1:])
    return SparseMatrix(n, n, row_ptr, cols.astype(np.int64), np.ones(len(keys)))


def degree_vector(a: SparseMatrix) -> np.ndarray:
    """Per-node degree counts of a binary symmetric adjacency."""
    return np.diff(a.row_ptr).astype(np.int64)


def _check_symmetric_binary(a: SparseMatrix) -> None:
    s = a.to_scipy()
    if (s != s.T).nnz != 0:
        raise ContractViolation("adjacency must be symmetric")
    if s.diagonal().any():
        raise ContractViolation("adjacency must have a zero diagonal")
    if len(a.values) and not np.all(a.values == 1.0):
        raise ContractViolation("adjacency must be binary (values == 1)")


def normalize(a: SparseMatrix, renorm_trick: bool = False) -> SparseMatrix:
    """Normalized adjacency with a full diagonal.

    Default: ``I + D^{-1/2} A D^{-1/2}``. Isolated nodes (degree 0) get a
    diagonal entry of 1 and no neighbors (0/0 := 0 in ``D^{-1/2}``). With
    ``renorm_trick``, returns ``D~^{-1/2} (A + I) D~^{-1/2}`` with
    ``D~ = D + I`` instead.
    """
    _check_symmetric_binary(a)
    n = a.n_rows
    s = a.to_scipy()
    deg = degree_vector(a).astype(np.float64)
    if renorm_trick:
        d_inv_sqrt = 1.0 / np.sqrt(deg + 1.0)
        scaled = sp.diags(d_inv_sqrt) @ (s + sp.identity(n, format="csr")) @ sp.diags(d_inv_sqrt)
    else:
        with np.errstate(divide="ignore"):
            d_inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(deg), 0.0)
        scaled = sp.identity(n, format="csr") + sp.diags(d_inv_sqrt) @ s @ sp.diags(d_inv_sqrt)
    scaled = sp.csr_matrix(scaled)
    scaled.sort_indices()
    return SparseMatrix(n, n, scaled.indptr.astype(np.int64),
                        scaled.indices.astype(np.int64), scaled.data.astype(np.float64))


def spmm(a: SparseMatrix, h: np.ndarray) -> np.ndarray:
    """Sparse-dense product ``A @ H``."""
    h = np.asarray(h, dtype=np.float64)
    if a.n_cols != h.shape[0]:
        raise ContractViolation(f"shape mismatch: A is {a.n_rows}x{a.n_cols}, H has {h.shape[0]} rows")
    return a.to_scipy() @ h

def spmm_t(a: SparseMatrix, g: np.ndarray) -> np.ndarray:
    """Transposed product ``A.T @ G`` (used by reverse-mode adjoints)."""
    g = np.asarray(g, dtype=np.float64)
    if a.n_rows != g.shape[0]:
        raise ContractViolation("shape mismatch in transposed product")
    return a.to_scipy().T @ g


def lambda_max(a: SparseMatrix, tol: float = 1e-8, max_iter: int = 1000):
    """Largest-magnitude eigenvalue of a symmetric matrix by power iteration.

    Starts from the all-ones vector. Returns ``(estimate, converged)``;
    a zero matrix returns ``(0.0, True)``.
    """
    if tol <= 0:
        raise ContractViolation("tol must be positive")
    s = a.to_scipy()
    if (s != s.T).nnz != 0:
        raise ContractViolation("lambda_max requires a symmetric matrix")
    n = a.n_rows
    if n == 0 or a.nnz == 0:
        return 0.0, True
    v = np.full(n, 1.0 / np.sqrt(n))
    lam_prev = 0.0
    for _ in range(max_iter):
        w = s @ v
        lam = float(np.linalg.norm(w))
        if lam == 0.0:
            return 0.0, True
        v = w / lam
        if abs(lam - lam_prev) <= tol * max(abs(lam), 1e-300):
            return lam, True
        lam_prev = lam
    return lam_prev, False
