import numpy as np
import pytest

from uncoupled import (
    CsvSchema,
    EmptyDataError,
    ParameterError,
    SchemaError,
    load_csv,
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_basic_load_with_header(self, tmp_path):
        path = write(tmp_path, "a,b,target\n1,2,3\n4,5,6\n")
        data, dropped = load_csv(path, CsvSchema(target_column="target"))
        assert dropped == 0
        np.testing.assert_array_equal(data.features, [[1.0, 2.0], [4.0, 5.0]])
        np.testing.assert_array_equal(data.targets, [3.0, 6.0])
        assert data.feature_names == ("a", "b")

    def test_missing_cell_drops_row(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1,2,3\n4,,6\n7,8,9\n")
        data, dropped = load_csv(path, CsvSchema(target_column="y"))
        assert dropped == 1
        assert data.n == 2

    @pytest.mark.parametrize("token", ["?", "NA", "NaN", " ? "])
    def test_missing_tokens_recognized(self, tmp_path, token):
        path = write(tmp_path, f"a,y\n1,2\n{token},4\n")
        data, dropped = load_csv(path, CsvSchema(target_column="y"))
        assert (data.n, dropped) == (1, 1)

    def test_unparseable_and_ragged_rows_drop(self, tmp_path):
        path = write(tmp_path, "a,y\n1,2\nfoo,4\n5\n6,7,8\n9,10\n")
        data, dropped = load_csv(path, CsvSchema(target_column="y"))
        assert (data.n, dropped) == (2, 3)

    def test_nonfinite_numeric_drops(self, tmp_path):
        path = write(tmp_path, "a,y\ninf,1\n2,3\n")
        data, dropped = load_csv(path, CsvSchema(target_column="y"))
        assert (data.n, dropped) == (1, 1)

    def test_overflowing_infinite_and_lowercase_nan_cells_drop(self, tmp_path):
        # 1e999 parses to inf; "nan" is not a missing token but parses to nan
        text = "a,b,y\n1,2,3\n1e999,2,3\n4,-inf,5\n6,7,nan\n8,9,-1e999\n10,11,12\n"
        data, dropped = load_csv(write(tmp_path, text), CsvSchema(target_column="y"))
        assert dropped == 4
        np.testing.assert_array_equal(data.features, [[1.0, 2.0], [10.0, 11.0]])
        np.testing.assert_array_equal(data.targets, [3.0, 12.0])

    def test_category_order_comes_from_kept_rows(self, tmp_path):
        # "Z" first appears in a row that the inf cell drops, so the kept
        # rows see "M" first
        text = "sex,len,y\nZ,inf,1\nM,1,2\nZ,2,3\nM,nan,4\n"
        schema = CsvSchema(target_column="y", categorical_columns=("sex",))
        data, dropped = load_csv(write(tmp_path, text), schema)
        assert dropped == 2
        assert data.feature_names == ("sex=M", "sex=Z", "len")
        np.testing.assert_array_equal(data.features, [[1.0, 0.0, 1.0], [0.0, 1.0, 2.0]])

    def test_one_hot_encoding(self, tmp_path):
        path = write(tmp_path, "sex,len,y\nM,1,10\nF,2,11\nI,3,12\nF,4,13\n")
        schema = CsvSchema(target_column="y", categorical_columns=("sex",))
        data, _ = load_csv(path, schema)
        assert data.feature_names == ("sex=M", "sex=F", "sex=I", "len")
        onehot = data.features[:, :3]
        np.testing.assert_array_equal(onehot.sum(axis=1), np.ones(4))
        np.testing.assert_array_equal(onehot[:, 1], [0.0, 1.0, 0.0, 1.0])

    def test_abalone_style_width(self, tmp_path):
        rows = ["M," + ",".join(str(i + k) for k in range(8)) for i in range(3)]
        rows[1] = rows[1].replace("M,", "F,", 1)
        rows[2] = rows[2].replace("M,", "I,", 1)
        path = write(tmp_path, "\n".join(rows) + "\n")
        schema = CsvSchema(target_column=-1, categorical_columns=(0,), has_header=False)
        data, _ = load_csv(path, schema)
        assert data.dim == 10  # 3 one-hot + 7 numeric

    def test_headerless_with_negative_target_index(self, tmp_path):
        path = write(tmp_path, "1,2,3\n4,5,6\n")
        data, _ = load_csv(path, CsvSchema(target_column=-1, has_header=False))
        np.testing.assert_array_equal(data.targets, [3.0, 6.0])
        assert data.feature_names == ("col0", "col1")

    def test_custom_delimiter(self, tmp_path):
        path = write(tmp_path, "a;y\n1;2\n")
        data, _ = load_csv(path, CsvSchema(target_column="y", delimiter=";"))
        assert data.targets[0] == 2.0

    def test_byte_order_mark_is_skipped_without_header(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with U+FEFF
        path = write(tmp_path, "\ufeff1,2\n3,4\n5,6\n")
        data, dropped = load_csv(path, CsvSchema(target_column=-1, has_header=False))
        assert (data.n, dropped) == (3, 0)
        np.testing.assert_array_equal(data.features[:, 0], [1.0, 3.0, 5.0])

    def test_byte_order_mark_is_skipped_in_the_header(self, tmp_path):
        path = write(tmp_path, "\ufeffx1,x2,y\n1,2,3\n4,5,6\n")
        data, dropped = load_csv(path, CsvSchema(target_column="x1"))
        assert dropped == 0
        assert data.feature_names == ("x2", "y")
        np.testing.assert_array_equal(data.targets, [1.0, 4.0])

    def test_deterministic(self, tmp_path):
        path = write(tmp_path, "sex,y\nM,1\nF,2\nM,3\n")
        schema = CsvSchema(target_column="y", categorical_columns=("sex",))
        a, _ = load_csv(path, schema)
        b, _ = load_csv(path, schema)
        np.testing.assert_array_equal(a.features, b.features)
        assert a.feature_names == b.feature_names

    def test_name_without_header_rejected(self, tmp_path):
        path = write(tmp_path, "1,2\n")
        with pytest.raises(SchemaError):
            load_csv(path, CsvSchema(target_column="y", has_header=False))

    def test_unknown_column_name_rejected(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(SchemaError):
            load_csv(path, CsvSchema(target_column="nope"))

    def test_out_of_range_index_rejected(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(SchemaError):
            load_csv(path, CsvSchema(target_column=5))

    def test_target_listed_as_categorical_rejected(self, tmp_path):
        path = write(tmp_path, "a,y\n1,2\n")
        with pytest.raises(SchemaError):
            load_csv(path, CsvSchema(target_column="y", categorical_columns=("y",)))

    @pytest.mark.parametrize(
        "text, target", [("y\n1\n2\n3\n", "y"), ("1\n2\n", -1)]
    )
    def test_target_only_file_rejected(self, tmp_path, text, target):
        path = write(tmp_path, text, name="only_y.csv")
        schema = CsvSchema(target_column=target, has_header=isinstance(target, str))
        with pytest.raises(SchemaError, match=r"only_y\.csv: no feature column"):
            load_csv(path, schema)

    def test_empty_file_rejected(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(EmptyDataError):
            load_csv(path, CsvSchema(target_column=0))

    def test_all_rows_filtered_rejected(self, tmp_path):
        path = write(tmp_path, "a,y\n?,1\n?,2\n")
        with pytest.raises(EmptyDataError):
            load_csv(path, CsvSchema(target_column="y"))

    @pytest.mark.parametrize("has_header", [True, False], ids=["header", "no-header"])
    def test_numeric_file_matches_loadtxt(self, tmp_path, has_header):
        rng = np.random.default_rng(11)
        values = rng.normal(0.0, 10.0, (200, 4)) * 10.0 ** rng.integers(-5, 6, (200, 4))
        lines = [",".join(repr(float(v)) for v in row) for row in values]
        if has_header:
            lines.insert(0, "a,b,c,y")
        path = write(tmp_path, "\n".join(lines) + "\n")
        data, dropped = load_csv(path, CsvSchema(target_column=-1, has_header=has_header))
        expected = np.loadtxt(path, delimiter=",", skiprows=int(has_header))
        assert dropped == 0
        assert data.features.tobytes() == expected[:, :-1].tobytes()
        assert data.targets.tobytes() == expected[:, -1].tobytes()

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "nope.csv", CsvSchema(target_column=0))


class TestCsvSchema:
    def test_rejects_multichar_delimiter(self):
        with pytest.raises(ParameterError):
            CsvSchema(target_column=0, delimiter=",,")

    def test_rejects_non_index_columns(self):
        with pytest.raises(ParameterError):
            CsvSchema(target_column=1.5)
        with pytest.raises(ParameterError):
            CsvSchema(target_column=0, categorical_columns=(2.5,))

