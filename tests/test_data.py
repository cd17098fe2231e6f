"""Content/cites ingestion, splits, and the binary dataset cache."""

import warnings

import numpy as np
import pytest
from scipy.sparse import csr_array

from gdcn.data import Dataset, load_content_cites, make_split, row_normalize
from gdcn.errors import MalformedInputError
from gdcn.tape import block_bounds, split_columns, stack_blocks


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def assert_same_dataset(got, want):
    """Equal shapes, dtypes and bits in every array, and equal class counts."""
    for name in ("features", "labels", "edges"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert got.class_count == want.class_count


class TestLoadContentCites:
    def test_two_nodes_one_edge(self, tmp_path):
        content = write(tmp_path / "c.content",
                        "paper_a\t1\t0\tml\npaper_b\t0\t1\tdb\n")
        cites = write(tmp_path / "c.cites", "paper_a\tpaper_b\n")
        ds = load_content_cites(content, cites)
        assert ds.n_nodes == 2 and ds.n_features == 2
        assert ds.class_count == 2
        np.testing.assert_array_equal(ds.edges, [[0, 1]])
        np.testing.assert_array_equal(ds.labels, [0, 1])

    def test_equal_labels_single_class(self, tmp_path):
        content = write(tmp_path / "c.content", "a\t1\tml\nb\t0\tml\n")
        cites = write(tmp_path / "c.cites", "a\tb\n")
        ds = load_content_cites(content, cites)
        assert ds.class_count == 1

    def test_unknown_id_skipped_with_warning(self, tmp_path):
        content = write(tmp_path / "c.content", "a\t1\tml\nb\t0\tdb\n")
        cites = write(tmp_path / "c.cites", "a\tb\na\tghost\n")
        with pytest.warns(UserWarning, match="skipped 1"):
            ds = load_content_cites(content, cites)
        assert len(ds.edges) == 1

    def test_duplicate_and_reverse_lines_collapse(self, tmp_path):
        content = write(tmp_path / "c.content", "a\t1\tml\nb\t0\tdb\n")
        cites = write(tmp_path / "c.cites", "a\tb\nb\ta\na\tb\n")
        ds = load_content_cites(content, cites)
        np.testing.assert_array_equal(ds.edges, [[0, 1]])

    def test_self_citation_dropped(self, tmp_path):
        content = write(tmp_path / "c.content", "a\t1\tml\nb\t0\tdb\n")
        cites = write(tmp_path / "c.cites", "a\ta\na\tb\n")
        with pytest.warns(UserWarning, match="self-citation"):
            ds = load_content_cites(content, cites)
        np.testing.assert_array_equal(ds.edges, [[0, 1]])

    def test_duplicate_node_id_rejected(self, tmp_path):
        content = write(tmp_path / "c.content", "a\t1\tml\na\t0\tdb\n")
        cites = write(tmp_path / "c.cites", "")
        with pytest.raises(MalformedInputError, match="duplicate"):
            load_content_cites(content, cites)

    def test_malformed_line_reports_number(self, tmp_path):
        content = write(tmp_path / "c.content", "a\t1\tml\nbroken line\n")
        cites = write(tmp_path / "c.cites", "")
        with pytest.raises(MalformedInputError, match=":2"):
            load_content_cites(content, cites)

    def test_non_binary_feature_rejected(self, tmp_path):
        content = write(tmp_path / "c.content", "a\t2\tml\n")
        cites = write(tmp_path / "c.cites", "")
        with pytest.raises(MalformedInputError, match="binary"):
            load_content_cites(content, cites)

    def test_feature_count_mismatch_reports_line(self, tmp_path):
        content = write(tmp_path / "c.content", "a\t1\t0\tml\nb\t1\t0\t1\tdb\n")
        cites = write(tmp_path / "c.cites", "")
        with pytest.raises(MalformedInputError,
                           match=r"c\.content:2: expected 2 features, got 3$"):
            load_content_cites(content, cites)

    def test_non_numeric_feature_rejected(self, tmp_path):
        content = write(tmp_path / "c.content", "a\t1\t0\tml\nb\t1\tx\tdb\n")
        cites = write(tmp_path / "c.cites", "")
        with pytest.raises(MalformedInputError,
                           match=r"c\.content:2: non-numeric feature$"):
            load_content_cites(content, cites)

    @pytest.mark.parametrize("token", ["\u0661", "1\u00a0", "\uff11"])
    def test_non_ascii_feature_rejected(self, tmp_path, token):
        # float() reads each of these as 1.0: an Arabic-Indic one, a one
        # followed by a no-break space, a fullwidth one.
        assert float(token) == 1.0
        content = write(tmp_path / "c.content",
                        f"a\t1\t0\tml\nb\t{token}\t0\tdb\n")
        cites = write(tmp_path / "c.cites", "")
        with pytest.raises(MalformedInputError,
                           match=r"c\.content:2: non-numeric feature$"):
            load_content_cites(content, cites)

    def test_no_content_lines(self, tmp_path):
        content = write(tmp_path / "c.content", "\n\n")
        cites = write(tmp_path / "c.cites", "")
        with pytest.raises(MalformedInputError,
                           match=r"c\.content: no content lines$"):
            load_content_cites(content, cites)

    @pytest.mark.parametrize("line", ["a", "a\tb\ta"])
    def test_cites_line_needs_two_fields(self, tmp_path, line):
        content = write(tmp_path / "c.content", "a\t1\tml\nb\t0\tdb\n")
        cites = write(tmp_path / "c.cites", f"a\tb\n{line}\n")
        with pytest.raises(MalformedInputError,
                           match=r"c\.cites:2: expected two tab-separated ids$"):
            load_content_cites(content, cites)

    def test_decimal_tokens_equal_integer_tokens(self, tmp_path):
        cites = write(tmp_path / "c.cites", "a\tb\n")
        ints = load_content_cites(
            write(tmp_path / "i.content", "a\t1\t0\tml\nb\t0\t1\tdb\n"), cites)
        decimals = load_content_cites(
            write(tmp_path / "d.content", "a\t1.0\t0.0\tml\nb\t0\t1.0\tdb\n"),
            cites)
        assert_same_dataset(decimals, ints)

    def test_crlf_equals_lf(self, tmp_path):
        lf = "a\t1\t0\tml\nb\t0\t1\tdb\n"
        (tmp_path / "crlf.content").write_bytes(lf.replace("\n", "\r\n").encode())
        (tmp_path / "crlf.cites").write_bytes(b"a\tb\r\n")
        crlf = load_content_cites(str(tmp_path / "crlf.content"),
                                  str(tmp_path / "crlf.cites"))
        plain = load_content_cites(write(tmp_path / "lf.content", lf),
                                   write(tmp_path / "lf.cites", "a\tb\n"))
        assert_same_dataset(crlf, plain)

    def test_lone_carriage_return_does_not_end_a_line(self, tmp_path):
        # Two lines; the lone \r sits inside line 1's feature field.
        content = tmp_path / "c.content"
        content.write_bytes(b"a\t1\tml\rb\t0\tdb\nc\tx\tdb\n")
        cites = write(tmp_path / "c.cites", "")
        with pytest.raises(MalformedInputError,
                           match=r"c\.content:1: non-numeric feature$"):
            load_content_cites(str(content), cites)
        cites = tmp_path / "d.cites"
        cites.write_bytes(b"a\tb\rb\ta\n")
        with pytest.raises(MalformedInputError,
                           match=r"d\.cites:1: expected two tab-separated"):
            load_content_cites(write(tmp_path / "d.content",
                                     "a\t1\tml\nb\t0\tdb\n"), str(cites))

    def test_blank_lines_count_in_line_numbers(self, tmp_path):
        content = write(tmp_path / "c.content", "\na\t1\tml\n\n\nb\t2\tdb\n")
        cites = write(tmp_path / "c.cites", "")
        with pytest.raises(MalformedInputError, match=r"c\.content:5: "):
            load_content_cites(content, cites)
        content = write(tmp_path / "d.content", "a\t1\tml\nb\t0\tdb\n")
        cites = write(tmp_path / "d.cites", "\n\na\tb\n\nb\n")
        with pytest.raises(MalformedInputError, match=r"d\.cites:5: "):
            load_content_cites(content, cites)

    @pytest.mark.parametrize("text, message", [
        ("a\t1\tml\nb\tx\tdb\nb\t1\tdb\n", ":2: non-numeric"),
        ("a\t1\tml\na\tx\tdb\nb\t2\tdb\n", ":2: duplicate node id"),
    ])
    def test_first_fault_by_line_number_reported(self, tmp_path, text,
                                                 message):
        content = write(tmp_path / "c.content", text)
        cites = write(tmp_path / "c.cites", "")
        with pytest.raises(MalformedInputError, match=message):
            load_content_cites(content, cites)

    def test_label_order_is_first_appearance(self, tmp_path):
        content = write(tmp_path / "c.content",
                        "a\t1\tzeta\nb\t1\talpha\nc\t1\tzeta\n")
        cites = write(tmp_path / "c.cites", "")
        ds = load_content_cites(content, cites)
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])

    def test_deterministic(self, tmp_path, synthetic_files):
        content, cites = synthetic_files
        d1 = load_content_cites(content, cites)
        d2 = load_content_cites(content, cites)
        assert np.array_equal(d1.features, d2.features)
        assert np.array_equal(d1.edges, d2.edges)

    def test_no_self_loops_no_duplicates(self, synthetic_files):
        ds = load_content_cites(*synthetic_files)
        assert np.all(ds.edges[:, 0] < ds.edges[:, 1])
        keys = ds.edges[:, 0] * ds.n_nodes + ds.edges[:, 1]
        assert len(np.unique(keys)) == len(keys)


def where_formula(f):
    """``where(sums > 0, f / sums, 0)`` in float64, rounded once to
    float32."""
    f = np.asarray(f, dtype=np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        sums = f.sum(axis=1, keepdims=True)
        return np.where(sums > 0, f / sums, 0.0).astype(np.float32)


def quiet_row_normalize(f):
    """``row_normalize(f)``, failing on any warning it raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return row_normalize(f)


class TestRowNormalize:
    def test_basic(self):
        out = row_normalize(np.array([[1.0, 1.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out, [[0.5, 0.5, 0.0, 0.0]])

    def test_zero_row_stays_zero(self):
        out = row_normalize(np.zeros((2, 3)))
        np.testing.assert_array_equal(out, np.zeros((2, 3)))

    def test_rows_sum_to_one_or_zero(self):
        rng = np.random.default_rng(0)
        f = (rng.random((20, 8)) < 0.3).astype(np.float64)
        sums = row_normalize(f).sum(axis=1)
        assert np.all((np.abs(sums - 1.0) < 1e-12) | (sums == 0.0))

    def test_bitwise_equal_to_where_formula(self):
        rng = np.random.default_rng(3)
        for shape in [(50, 30), (7, 1), (1, 200)]:
            f = (rng.random(shape) < 0.1).astype(np.float64)
            f[::3] = 0.0
            before = f.copy()
            got = row_normalize(f)
            assert got.dtype == np.float32
            assert np.array_equal(got.view(np.uint32),
                                  where_formula(f).view(np.uint32))
            assert np.array_equal(f.view(np.uint64), before.view(np.uint64))

    def test_rows_not_summing_above_zero_give_positive_zero(self):
        # Sums 0 (all +0.0, all -0.0, mixed), NaN, NaN (inf - inf), 0 and
        # negative; the last row sums to 1 and keeps its negative entry and
        # its -0.0.
        f = np.array([[0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [-0.0, 0.0, -0.0],
                      [np.nan, 1.0, 0.0], [np.inf, -np.inf, 1.0],
                      [1.0, -1.0, 0.0], [-1.0, -2.0, 0.0],
                      [2.0, -1.0, -0.0]])
        got = quiet_row_normalize(f)
        assert np.array_equal(got.view(np.uint32),
                              where_formula(f).view(np.uint32))
        assert np.array_equal(got[:7], np.zeros((7, 3)))
        assert not np.signbit(got[:7]).any()
        assert got[7].tolist() == [2.0, -1.0, 0.0] and np.signbit(got[7, 2])

    @pytest.mark.parametrize("dtype", [bool, np.int64, np.float32,
                                       np.float64])
    def test_input_unchanged_and_equal_to_its_float64_formula(self, dtype):
        rng = np.random.default_rng(8)
        f = (rng.random((30, 12)) < 0.3).astype(dtype)
        if dtype is not bool:
            f *= rng.integers(1, 4, size=f.shape).astype(dtype)
        f[::4] = 0
        before = f.copy()
        got = quiet_row_normalize(f)
        assert got.dtype == np.float32 and got is not f
        assert np.array_equal(got.view(np.uint32),
                              where_formula(f).view(np.uint32))
        assert f.dtype == before.dtype
        assert f.tobytes() == before.tobytes()


class TestFeaturesCsr:
    def _ds(self, features):
        return Dataset(features=features, labels=np.zeros(len(features), int),
                       edges=np.zeros((0, 2), dtype=np.int64), class_count=1)

    @staticmethod
    def assert_float32_conversion(got, f):
        """``got`` equals ``csr_array(f).astype(np.float32)`` in shape and
        in the dtype and bits of data, indices and indptr."""
        want = csr_array(f).astype(np.float32)
        assert got.dtype == np.float32 and got.shape == want.shape
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    def test_equals_scipy_conversion(self):
        rng = np.random.default_rng(4)
        f = rng.random((40, 25)) * (rng.random((40, 25)) < 0.2)
        f[3] = 0.0
        f[5, 7] = -0.0
        self.assert_float32_conversion(self._ds(f.copy()).features_csr(), f)

    def test_integer_features_become_float(self):
        got = self._ds(np.eye(4, dtype=np.int64)).features_csr()
        self.assert_float32_conversion(got, np.eye(4, dtype=np.int64))
        np.testing.assert_array_equal(got.toarray(), np.eye(4))

    def test_bool_features_equal_their_float_conversion(self):
        rng = np.random.default_rng(6)
        f = rng.random((40, 25)) < 0.2
        f[3] = False
        got = self._ds(f).features_csr()
        self.assert_float32_conversion(got, f.astype(np.float64))

    @pytest.mark.parametrize("n_blocks", [1, 3, 4])
    def test_feature_blocks_equal_column_slices(self, n_blocks):
        # The read-only CSR form splits into the layer-0 feature blocks,
        # and stacks into them (row b * n + v holds X[v, blk_b]), as
        # train and predict_mc stack it once per call.
        rng = np.random.default_rng(5)
        f = rng.random((30, 17)) * (rng.random((30, 17)) < 0.3)
        ds = self._ds(f)
        csr = ds.features_csr()
        self.assert_float32_conversion(csr, f)
        for name in ("data", "indices", "indptr"):
            assert not getattr(csr, name).flags.writeable
        blocks = split_columns(csr, n_blocks)
        assert len(blocks) == n_blocks
        f32 = f.astype(np.float32)
        stacked = stack_blocks(csr, n_blocks).toarray()
        for b, (got, (c0, c1)) in enumerate(
                zip(blocks, block_bounds(17, n_blocks))):
            np.testing.assert_array_equal(got.toarray(), f32[:, c0:c1])
            np.testing.assert_array_equal(stacked[b * 30:(b + 1) * 30, c0:c1],
                                          f32[:, c0:c1])
        assert ds.features_csr() is csr

    def test_converted_once_per_features_array(self):
        ds = self._ds(np.eye(5))
        first = ds.features_csr()
        self.assert_float32_conversion(first, np.eye(5))
        assert ds.features_csr() is first
        with pytest.raises(ValueError, match="read-only"):
            ds.features[0, 1] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            first.data[0] = 2.0
        ds.features = 2.0 * np.eye(5)
        again = ds.features_csr()
        assert again is not first
        self.assert_float32_conversion(again, 2.0 * np.eye(5))


class TestMakeSplit:
    def _toy(self, n=30, classes=3):
        labels = np.arange(n) % classes
        return Dataset(features=np.eye(n), labels=labels,
                       edges=np.zeros((0, 2), dtype=np.int64),
                       class_count=classes)

    def test_sizes_and_disjointness(self):
        ds = make_split(self._toy(), per_class_train=2, n_val=5, n_test=10)
        s = ds.split
        assert len(s.train) == 6 and len(s.val) == 5 and len(s.test) == 10
        all_idx = np.concatenate([s.train, s.val, s.test])
        assert len(np.unique(all_idx)) == len(all_idx)

    def test_indices_strictly_increasing(self):
        ds = make_split(self._toy(), per_class_train=2, n_val=5, n_test=10)
        for idx in (ds.split.train, ds.split.val, ds.split.test):
            assert np.all(np.diff(idx) > 0)

    def test_train_takes_first_per_class_in_node_order(self):
        ds = make_split(self._toy(), per_class_train=2, n_val=3, n_test=5)
        np.testing.assert_array_equal(ds.split.train, [0, 1, 2, 3, 4, 5])
        np.testing.assert_array_equal(ds.split.val, [6, 7, 8])
        np.testing.assert_array_equal(ds.split.test, np.arange(25, 30))

    def test_insufficient_class_members(self):
        ds = self._toy(n=6, classes=3)
        with pytest.raises(MalformedInputError):
            make_split(ds, per_class_train=3, n_val=1, n_test=1)

    def test_overlap_rejected(self):
        with pytest.raises(MalformedInputError):
            make_split(self._toy(n=12), per_class_train=2, n_val=4, n_test=6)

    @pytest.mark.parametrize("key", ["per_class_train", "n_val", "n_test"])
    @pytest.mark.parametrize("size", [0, -1])
    def test_size_below_one_rejected(self, key, size):
        sizes = dict(per_class_train=2, n_val=5, n_test=10)
        sizes[key] = size
        with pytest.raises(MalformedInputError,
                           match=f"^{key} must be at least 1, got {size}$"):
            make_split(self._toy(), **sizes)
