"""Citation-graph ingestion from plain-text content/cites files.

Content lines are ``<node_id> TAB f_0 ... f_{d-1} TAB <label>`` with binary
features; cites lines are ``<id_a> TAB <id_b>`` and produce one undirected
edge each. Node order follows the content file; labels map to indices by
first appearance. Cites lines referencing unknown ids are skipped (a warning
reports the count), duplicates and self-citations are dropped, so the edge
list holds unique undirected pairs with no self-loops.

``Dataset.features`` is a dense (n, f) array and stays the public form of
the input; the model's entry points (``train``, ``predict_mc``,
``forward_deterministic``) convert it to CSR once per call.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import MalformedInputError


@dataclass
class Split:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    edges: np.ndarray           # (m, 2) unique undirected pairs, u < v
    class_count: int
    split: Split | None = None

    @property
    def n_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def load_content_cites(content_path, cites_path) -> Dataset:
    """Parse content/cites files into an unsplit Dataset."""
    ids: dict = {}
    label_index: dict = {}
    feature_rows = []
    labels = []
    with open(content_path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) < 3:
                raise MalformedInputError(
                    f"{content_path}:{lineno}: expected id, features, label"
                )
            node_id, feats, label = parts[0], parts[1:-1], parts[-1]
            if node_id in ids:
                raise MalformedInputError(
                    f"{content_path}:{lineno}: duplicate node id {node_id!r}"
                )
            if feature_rows and len(feats) != len(feature_rows[0]):
                raise MalformedInputError(
                    f"{content_path}:{lineno}: expected {len(feature_rows[0])} "
                    f"features, got {len(feats)}"
                )
            try:
                row = np.array([float(v) for v in feats])
            except ValueError as exc:
                raise MalformedInputError(
                    f"{content_path}:{lineno}: non-numeric feature"
                ) from exc
            if not np.all((row == 0.0) | (row == 1.0)):
                raise MalformedInputError(
                    f"{content_path}:{lineno}: features must be binary"
                )
            ids[node_id] = len(ids)
            if label not in label_index:
                label_index[label] = len(label_index)
            labels.append(label_index[label])
            feature_rows.append(row)
    if not feature_rows:
        raise MalformedInputError(f"{content_path}: no content lines")

    skipped_unknown = 0
    dropped_self = 0
    pairs = set()
    with open(cites_path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise MalformedInputError(
                    f"{cites_path}:{lineno}: expected two tab-separated ids"
                )
            a, b = parts
            if a not in ids or b not in ids:
                skipped_unknown += 1
                continue
            u, v = ids[a], ids[b]
            if u == v:
                dropped_self += 1
                continue
            pairs.add((min(u, v), max(u, v)))
    if skipped_unknown:
        warnings.warn(
            f"{cites_path}: skipped {skipped_unknown} lines referencing unknown ids"
        )
    if dropped_self:
        warnings.warn(f"{cites_path}: dropped {dropped_self} self-citation lines")

    edges = (np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
             if pairs else np.zeros((0, 2), dtype=np.int64))
    return Dataset(
        features=np.array(feature_rows, dtype=np.float64),
        labels=np.array(labels, dtype=np.int64),
        edges=edges,
        class_count=len(label_index),
    )


def row_normalize(features: np.ndarray) -> np.ndarray:
    """Divide each row by its sum; all-zero rows stay zero."""
    features = np.asarray(features, dtype=np.float64)
    sums = features.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(sums > 0, features / sums, 0.0)
    return out


def make_split(dataset: Dataset, per_class_train: int, n_val: int,
               n_test: int) -> Dataset:
    """Deterministic node-order split.

    Train takes the first ``per_class_train`` nodes of every class in node
    order, validation the next ``n_val`` unassigned nodes, test the last
    ``n_test`` nodes; the three sets must come out disjoint.
    """
    n = dataset.n_nodes
    labels = dataset.labels
    train = []
    for c in range(dataset.class_count):
        members = np.flatnonzero(labels == c)
        if len(members) < per_class_train:
            raise MalformedInputError(
                f"class {c} has {len(members)} nodes, need {per_class_train}"
            )
        train.extend(members[:per_class_train].tolist())
    train = np.array(sorted(train), dtype=np.int64)
    in_train = np.zeros(n, dtype=bool)
    in_train[train] = True
    unassigned = np.flatnonzero(~in_train)
    if len(unassigned) < n_val:
        raise MalformedInputError("not enough nodes for the validation set")
    val = unassigned[:n_val]
    if n_test > n:
        raise MalformedInputError("not enough nodes for the test set")
    test = np.arange(n - n_test, n, dtype=np.int64)
    taken = np.concatenate([train, val])
    if np.intersect1d(taken, test).size:
        raise MalformedInputError(
            "test range overlaps train/validation; dataset too small for the split"
        )
    return Dataset(features=dataset.features, labels=dataset.labels,
                   edges=dataset.edges, class_count=dataset.class_count,
                   split=Split(train=train, val=np.asarray(val, dtype=np.int64),
                               test=test))
