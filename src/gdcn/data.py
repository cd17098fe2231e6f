"""Citation-graph ingestion from plain-text content/cites files.

Content lines are ``<node_id> TAB f_0 ... f_{d-1} TAB <label>`` with binary
features; cites lines are ``<id_a> TAB <id_b>`` and produce one undirected
edge each. Node order follows the content file; labels map to indices by
first appearance. Cites lines referencing unknown ids are skipped (a warning
reports the count), duplicates and self-citations are dropped, so the edge
list holds unique undirected pairs with no self-loops.

Each file is read line by line (only ``\n`` or ``\r\n`` ends a line), but
each line is only split into its fields; the structural checks (field
count, duplicate id, feature count) run there. The feature fields are then
parsed in bulk: every field made of single ``0``/``1`` characters joined by
tabs is checked and converted through one byte buffer for all such lines.
Any other field (``1.0``, a non-binary or non-numeric token) is parsed
token by token with ``float``; a field holding a non-ASCII character is
non-numeric, whatever ``float`` would make of it. Either way a fault
names the file and the first faulty line, and blank lines count in line
numbers. A file that is not valid UTF-8 raises ``MalformedInputError``
naming it.

The loader returns the features as a bool (n, f) array: the file holds only
0 and 1, so a bool holds exactly what it says, in an eighth of a float64
array's memory; a ``-0`` token loads as False, so its row normalizes to
+0.0 there. ``row_normalize`` turns them into the float32 (n, f) array
that ``gdcn train`` and ``uq`` use by default: every pass computes in
float32, so no float64 copy of the input is kept. ``Dataset.features`` is
a dense (n, f) array, raw or normalized, and stays the public form of the
input. ``train`` and the CLI's evaluation commands read
``Dataset.features_csr()``, a float32 CSR array converted once per
features array, so training several seeds on one dataset converts it once
and no pass casts it again.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_array

from .errors import MalformedInputError
from .graph import dense_to_csr


@dataclass
class Split:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


@dataclass
class Dataset:
    """A citation graph: dense (n, f) ``features`` (bool as loaded, float32
    after ``row_normalize``), int64 labels in ``[0, class_count)``, and the
    undirected edges."""

    features: np.ndarray
    labels: np.ndarray
    edges: np.ndarray           # (m, 2) unique undirected pairs, u < v
    class_count: int
    split: Split | None = None
    # (the features array converted, its CSR form); see features_csr.
    _csr: tuple | None = field(default=None, init=False, repr=False,
                               compare=False)

    def features_csr(self) -> csr_array:
        """``features`` as a float32 CSR array (``graph.dense_to_csr``),
        whatever their dtype, converted once per features array. It is the
        one float32 copy of the input: ``model.float32_operands`` shares it
        rather than casting it.

        The CSR form is kept while ``features`` is the same array object.
        That array becomes read-only, and so do the CSR form's arrays, so
        that neither can change under the other; assign a new array to
        change the features.
        """
        feats = self.features
        if self._csr is None or self._csr[0] is not feats:
            csr = dense_to_csr(feats, np.float32)
            for arr in (csr.data, csr.indices, csr.indptr):
                arr.flags.writeable = False
            feats.flags.writeable = False
            self._csr = (feats, csr)
        return self._csr[1]

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
    labels = []
    fields = []                 # the feature field of each accepted line
    linenos = []
    fault = None
    for lineno, line in _lines(content_path):
        node_id, sep, rest = line.partition("\t")
        feats, sep2, label = rest.rpartition("\t")
        if not (sep and sep2):
            fault = f"{content_path}:{lineno}: expected id, features, label"
            break
        if node_id in ids:
            fault = f"{content_path}:{lineno}: duplicate node id {node_id!r}"
            break
        count = feats.count("\t") + 1
        if fields and count != n_features:
            fault = (f"{content_path}:{lineno}: expected {n_features} "
                     f"features, got {count}")
            break
        n_features = count
        ids[node_id] = len(ids)
        if label not in label_index:
            label_index[label] = len(label_index)
        labels.append(label_index[label])
        fields.append(feats)
        linenos.append(lineno)
    # Parsing the fields before raising ``fault`` reports a feature fault on
    # an earlier line first, as a line-by-line parse would.
    if fields:
        features = _parse_features(content_path, fields, linenos, n_features)
    if fault is not None:
        raise MalformedInputError(fault)
    if not fields:
        raise MalformedInputError(f"{content_path}: no content lines")

    skipped_unknown = 0
    dropped_self = 0
    us, vs = [], []
    for lineno, line in _lines(cites_path):
        a, sep, b = line.partition("\t")
        if not sep or "\t" in b:
            raise MalformedInputError(
                f"{cites_path}:{lineno}: expected two tab-separated ids"
            )
        u, v = ids.get(a), ids.get(b)
        if u is None or v is None:
            skipped_unknown += 1
        elif u == v:
            dropped_self += 1
        else:
            us.append(u)
            vs.append(v)
    if skipped_unknown:
        warnings.warn(
            f"{cites_path}: skipped {skipped_unknown} lines referencing unknown ids"
        )
    if dropped_self:
        warnings.warn(f"{cites_path}: dropped {dropped_self} self-citation lines")

    # One key per undirected pair; np.unique drops repeats and sorts, which
    # orders the edges by (u, v).
    n = len(ids)
    us = np.array(us, dtype=np.int64)
    vs = np.array(vs, dtype=np.int64)
    keys = np.unique(np.minimum(us, vs) * n + np.maximum(us, vs))
    return Dataset(
        features=features,
        labels=np.array(labels, dtype=np.int64),
        edges=np.stack([keys // n, keys % n], axis=1),
        class_count=len(label_index),
    )


def _lines(path):
    """Yield (line number, line) for the non-blank lines of a UTF-8 text
    file, its ``\n`` or ``\r\n`` stripped (a lone ``\r`` ends no line); a
    decoding fault raises ``MalformedInputError``."""
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = (line[:-2] if line.endswith("\r\n")
                        else line.removesuffix("\n"))
                if line:
                    yield lineno, line
        except UnicodeDecodeError as exc:
            raise MalformedInputError(
                f"{path}: not valid UTF-8 ({exc.reason})"
            ) from exc


_ZERO, _ONE = b"01"


def _parse_features(path, fields, linenos, n_features: int) -> np.ndarray:
    """The bool (len(fields), n_features) matrix of the feature fields.

    Only binary values pass, so a bool holds each one exactly; a ``-0``
    token, equal to 0, loads as False.

    A field of single ``0``/``1`` characters joined by tabs takes the bulk
    path: all such fields are joined into one byte buffer, checked and
    converted at once. Every other field is parsed token by token with
    ``float``, which raises its line's fault; the first fault by line number
    is the one raised.
    """
    out = np.empty((len(fields), n_features), dtype=bool)
    width = 2 * n_features - 1
    slow = np.array([len(f) != width or not f.isascii() for f in fields])
    rows = np.flatnonzero(~slow)
    if rows.size:
        joined = "\t".join([fields[i] for i in rows]) + "\t"
        buf = np.frombuffer(joined.encode("ascii"), dtype=np.uint8)
        del joined
        # Each field holds n_features - 1 tabs, so in one of this width whose
        # even positions are all '0'/'1' the tabs fill the odd positions.
        tokens = buf.reshape(rows.size, 2 * n_features)[:, 0::2]
        ok = ((tokens == _ZERO) | (tokens == _ONE)).all(axis=1)
        out[rows[ok]] = tokens[ok] == _ONE
        slow[rows[~ok]] = True
    for i in np.flatnonzero(slow):
        out[i] = _parse_row(path, linenos[i], fields[i])
    return out


def _parse_row(path, lineno: int, field: str) -> np.ndarray:
    """One feature field parsed token by token. A token ``float`` cannot
    read is non-numeric, and so is any non-ASCII token: ``float`` would
    read digits of other scripts, such as ``١``, as numbers."""
    non_numeric = f"{path}:{lineno}: non-numeric feature"
    if not field.isascii():
        raise MalformedInputError(non_numeric)
    try:
        row = np.array([float(v) for v in field.split("\t")])
    except ValueError as exc:
        raise MalformedInputError(non_numeric) from exc
    if not np.all((row == 0.0) | (row == 1.0)):
        raise MalformedInputError(f"{path}:{lineno}: features must be binary")
    return row


def row_normalize(features: np.ndarray) -> np.ndarray:
    """Divide each row by its sum; a row whose sum is not positive (all
    zero, NaN or negative) becomes +0.0.

    Returns a new float32 array and leaves ``features`` unchanged: each
    value is ``where(sums > 0, features / sums, 0)`` computed in float64
    and rounded once to float32, the bits every float32 pass reads. The
    sums are taken in float64 and the division writes straight into the
    uninitialized output, so a bool or integer input (the loader's bool
    features) is cast in numpy's small buffers and never copied whole to
    float64; only the rows that are not positive are written again.
    """
    features = np.asarray(features)
    out = np.empty(features.shape, dtype=np.float32)
    # inf - inf in a sum, or inf / inf in a quotient, gives a NaN that the
    # rule above handles, so neither warns.
    with np.errstate(invalid="ignore"):
        sums = features.sum(axis=1, keepdims=True, dtype=np.float64)
        zero = ~(sums[:, 0] > 0)
        sums[zero] = 1.0        # no 0/0 in rows that are written again
        np.divide(features, sums, out=out)
    out[zero] = 0.0
    return out


def make_split(dataset: Dataset, per_class_train: int, n_val: int,
               n_test: int) -> Dataset:
    """Deterministic node-order split.

    Train takes the first ``per_class_train`` nodes of every class in node
    order, validation the next ``n_val`` unassigned nodes, test the last
    ``n_test`` nodes; the three sets must come out disjoint. Each size must
    be at least 1: training needs a loss, model selection a validation
    accuracy and the report a test accuracy.
    """
    for key, size in (("per_class_train", per_class_train),
                      ("n_val", n_val), ("n_test", n_test)):
        if size < 1:
            raise MalformedInputError(f"{key} must be at least 1, got {size}")
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
