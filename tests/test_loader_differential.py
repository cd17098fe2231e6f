"""Differential test of ``load_content_cites`` against a line-by-line parser.

``reference_load`` is the plain per-line parser the bulk loader replaced,
kept here as the oracle; its line split (``reference_lines``) ends a line
only at ``\n``, as the loader does, so a lone ``\r`` stays in its line, and
its token parse (``ascii_float``) takes no non-ASCII token for a number,
as the loader does not. Small valid content/cites files and single-byte or
single-token mutations of them must give either an equal ``Dataset`` (every
array equal bit for bit), the same warnings, or the same exception type
with the same message. The one intended difference: a file that is not
valid UTF-8 makes the oracle raise ``UnicodeDecodeError`` and the loader a
``MalformedInputError`` naming the file.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdcn.data import Dataset, load_content_cites
from gdcn.errors import MalformedInputError


def reference_lines(path):
    """(line number, line) of every line of a UTF-8 file; only ``\n`` ends
    a line, and a ``\n`` or ``\r\n`` ending is stripped."""
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.endswith("\r\n"):
                yield lineno, line[:-2]
            else:
                yield lineno, line.removesuffix("\n")


def ascii_float(token: str) -> float:
    """``float`` of an ASCII token; a non-ASCII one is not a number."""
    if not token.isascii():
        raise ValueError(f"non-ASCII token {token!r}")
    return float(token)


def reference_load(content_path, cites_path) -> Dataset:
    ids: dict = {}
    label_index: dict = {}
    feature_rows = []
    labels = []
    for lineno, line in reference_lines(content_path):
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
            row = np.array([ascii_float(v) for v in feats])
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
    for lineno, line in reference_lines(cites_path):
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
        features=np.array(feature_rows, dtype=bool),
        labels=np.array(labels, dtype=np.int64),
        edges=edges,
        class_count=len(label_index),
    )


def outcome(load, content, cites):
    """What one loader does with the files: the dataset's bytes and the
    warnings it gave, or the exception it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            ds = load(content, cites)
        except Exception as exc:  # the loaders' faults are what is compared
            return ("raised", type(exc), str(exc))
    arrays = tuple((a.dtype.str, a.shape, a.tobytes())
                   for a in (ds.features, ds.labels, ds.edges))
    return ("loaded", arrays, ds.class_count,
            [str(w.message) for w in caught])


# Valid feature tokens, mostly of the single-character form.
FEATURES = ["0", "1"] * 4 + ["1.0", "-0", " 0"]
IDS = ["p1", "p2", "p3", "x", "node 5", "é"]
# float() reads the Arabic-Indic digit as 1.0; both loaders reject it.
TOKENS = ["2", "1.0", "0.0", "-0", " 1", "1 ", "", "x", "nan", "1e0", "+1",
          "00", "0\t1", "1_0", "١", "\r", "\n"]
BYTES = [0x00, 0x09, 0x0A, 0x0D, 0x20, 0x2E, 0x30, 0x31, 0x32, 0x78, 0x80,
         0xC3, 0xFF]


@st.composite
def files(draw):
    n = draw(st.integers(1, 5))
    f = draw(st.integers(1, 4))
    ids = draw(st.permutations(IDS))[:n]
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    content = []
    for node in ids:
        feats = draw(st.lists(st.sampled_from(FEATURES), min_size=f,
                              max_size=f))
        label = draw(st.sampled_from(["ml", "db", "ir"]))
        content.append("\t".join([node, *feats, label]))
        if draw(st.booleans()):
            content.append("")
    pair = st.tuples(st.sampled_from(IDS + ["ghost"]), st.sampled_from(IDS))
    cites = ["\t".join(p) for p in draw(st.lists(pair, max_size=8))]
    return ((eol.join(content) + eol).encode(),
            (eol.join(cites) + eol * bool(cites)).encode())


@st.composite
def mutated(draw):
    content, cites = draw(files())
    which = draw(st.sampled_from(["content", "cites"]))
    data = content if which == "content" else cites
    kind = draw(st.sampled_from(["none", "replace", "insert", "delete",
                                 "token"]))
    if kind == "token":
        lines = content.decode().split("\n")
        i = draw(st.sampled_from([i for i, line in enumerate(lines)
                                  if line.count("\t") >= 2]))
        fields = lines[i].split("\t")
        j = draw(st.integers(1, len(fields) - 2))
        fields[j] = draw(st.sampled_from(TOKENS))
        lines[i] = "\t".join(fields)
        return "\n".join(lines).encode(), cites
    if kind != "none" and data:
        i = draw(st.integers(0, len(data) - 1))
        byte = bytes([draw(st.sampled_from(BYTES))])
        data = {"replace": data[:i] + byte + data[i + 1:],
                "insert": data[:i] + byte + data[i:],
                "delete": data[:i] + data[i + 1:]}[kind]
    return (data, cites) if which == "content" else (content, data)


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    directory = tmp_path_factory.mktemp("differential")
    return str(directory / "g.content"), str(directory / "g.cites")


@settings(max_examples=400, deadline=None)
@given(mutated())
def test_loader_matches_line_by_line_parser(paths, pair):
    content_path, cites_path = paths
    for path, data in zip(paths, pair):
        with open(path, "wb") as fh:
            fh.write(data)
    want = outcome(reference_load, content_path, cites_path)
    got = outcome(load_content_cites, content_path, cites_path)
    if want[:2] == ("raised", UnicodeDecodeError):
        bad = [p for p, d in zip(paths, pair) if not _is_utf8(d)]
        assert got[:2] == ("raised", MalformedInputError)
        assert got[2].startswith(f"{bad[0]}: not valid UTF-8"), got[2]
    else:
        assert got == want


def _is_utf8(data: bytes) -> bool:
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True
