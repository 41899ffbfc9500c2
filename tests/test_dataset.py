import csv
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagedtree import (
    DataError,
    Dataset,
    Schema,
    Variable,
    bootstrap_replicate,
    derived_seed,
    dichotomize,
    kfold_split,
    load_csv,
    schema_to_json,
)
from stagedtree.dataset import _check_header, _write_csv


def write_csv(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def decode(d):
    """The rows as lists of level labels (inverse of CSV encoding)."""
    return [[d.schema.variables[j].levels[code] for j, code in enumerate(row)] for row in d.rows]


def save_csv(d, path):
    """Write a dataset back to CSV with a header row, decoding level labels."""
    _write_csv(path, d.schema.names, decode(d))


def schema_from_json(text):
    payload = json.loads(text)
    return Schema(tuple(Variable(v["name"], tuple(v["levels"])) for v in payload["variables"]))


class TestLoadCsv:
    def test_two_binary_columns(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["u,v", "a,x", "b,y", "a,y", "b,x"])
        d = load_csv(path)
        assert d.n == 4 and d.p == 2
        assert d.schema.names == ("u", "v")
        assert d.schema.level_counts == (2, 2)

    def test_levels_are_sorted(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["c", "zebra", "apple", "mango"])
        d = load_csv(path)
        assert d.schema.variables[0].levels == ("apple", "mango", "zebra")

    def test_no_header_names(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["a,x", "b,y"])
        d = load_csv(path, has_header=False)
        assert d.schema.names == ("X1", "X2")

    def test_empty_cell_names_row_and_column(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["u,v", "a,x", "a,", "b,y"])
        with pytest.raises(DataError, match=r"row 2.*'v'"):
            load_csv(path)

    def test_ragged_row_reports_line(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["u,v", "a,x", "a,x,y"])
        with pytest.raises(DataError, match="line 3"):
            load_csv(path)

    def test_constant_column_names_it(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["u,v", "a,x", "a,y"])
        with pytest.raises(DataError, match="'u'"):
            load_csv(path)

    @pytest.mark.parametrize(
        "lines, has_header, message",
        [
            ([], True, "file is empty"),
            (["u,v"], True, "no data rows"),
            (["a,x", "b"], False, "line 2 has 1 cells, expected 2"),
            (["u,v", "a,x", "b,y", "b,y,z"], True, "line 4 has 3 cells, expected 2"),
            (["a,x", " ,y"], False, "empty cell at row 2, column 'X1'"),
            (["u,v", "a,x", "a,y"], True, "column 'u' has a single distinct value 'a'"),
            (["u,,v", "a,x,y", "b,y,x"], True, "column 2 of the header has an empty variable name"),
            (["u, ", "a,x", "b,y"], True, "column 2 of the header has an empty variable name"),
            (["u,v,u", "a,x,y", "b,y,x"], True, "column 3 repeats the variable name 'u' of column 1"),
            (["u,v, v", "a,x,y", "b,y,x"], True, "column 3 repeats the variable name 'v' of column 2"),
            # The header is refused before any row is read.
            (["u,,v", "a", ""], True, "column 2 of the header has an empty variable name"),
        ],
    )
    def test_error_messages(self, tmp_path, lines, has_header, message):
        path = tmp_path / "t.csv"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        with pytest.raises(DataError) as exc:
            load_csv(str(path), has_header=has_header)
        assert str(exc.value) == f"{path}: {message}"

    def test_byte_order_mark_is_not_part_of_a_name(self, tmp_path):
        # Spreadsheet exports start with a UTF-8 byte-order mark.
        path = tmp_path / "t.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b\nx,y\nz,w\n")
        d = load_csv(str(path))
        assert d.schema.names == ("a", "b")
        assert d.schema.index("a") == 0
        assert load_csv(str(path), has_header=False).schema.variables[0].levels == ("a", "x", "z")

    def test_codes_follow_sorted_levels(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", [" u , v", "zeta , b", "alpha,c", " mid,a", "alpha,b"])
        d = load_csv(path)
        assert d.schema.names == ("u", "v")
        assert d.schema.variables[0].levels == ("alpha", "mid", "zeta")
        assert d.rows.tolist() == [[2, 1], [0, 2], [1, 0], [0, 1]]

    def test_survey_shaped_file(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 2, size=(9720, 7))
        lines = [",".join(f"q{j}" for j in range(7))]
        lines += [",".join("hi" if c else "lo" for c in row) for row in rows]
        d = load_csv(write_csv(tmp_path / "survey.csv", lines))
        assert d.n == 9720 and d.p == 7

    def test_decode_round_trip(self, tmp_path):
        lines = ["u,v", "a,x", "b,y", "a,y"]
        d = load_csv(write_csv(tmp_path / "t.csv", lines))
        assert decode(d) == [line.split(",") for line in lines[1:]]

    def test_save_load_round_trip(self, tmp_path):
        d = load_csv(write_csv(tmp_path / "t.csv", ["u,v", "a,x", "b,y", "a,y"]))
        out = tmp_path / "copy.csv"
        save_csv(d, str(out))
        again = load_csv(str(out))
        assert again.schema == d.schema
        assert np.array_equal(again.rows, d.rows)


def reference_load_csv(path: str, has_header: bool = True) -> Dataset:
    """load_csv as it was before it encoded each distinct row once: every
    line is stripped, checked and encoded."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None:
            raise DataError(f"{path}: file is empty")
        header = [h.strip() for h in first] if has_header else [f"X{j + 1}" for j in range(len(first))]
        _check_header(path, header)
        body = reader if has_header else itertools.chain([first], reader)
        first_line = 2 if has_header else 1
        width = len(header)
        seen: list[dict[str, int]] = [{} for _ in range(width)]
        codes: list[list[int]] = []
        for i, row in enumerate(body):
            if len(row) != width:
                raise DataError(f"{path}: line {first_line + i} has {len(row)} cells, expected {width}")
            stripped = [c.strip() for c in row]
            for j, c in enumerate(stripped):
                if c == "":
                    raise DataError(f"{path}: empty cell at row {i + 1}, column {header[j]!r}")
            codes.append([seen[j].setdefault(c, len(seen[j])) for j, c in enumerate(stripped)])
    if not codes:
        raise DataError(f"{path}: no data rows")

    rows = np.array(codes, dtype=np.int64)
    variables = []
    for j, name in enumerate(header):
        distinct = sorted(seen[j])
        if len(distinct) < 2:
            raise DataError(f"{path}: column {name!r} has a single distinct value {distinct[0]!r}")
        variables.append(Variable(name, tuple(distinct)))
        position = {lv: r for r, lv in enumerate(distinct)}
        rows[:, j] = np.array([position[lv] for lv in seen[j]])[rows[:, j]]
    schema = Schema(tuple(variables))
    return Dataset(schema, rows)


class TestLoaderOracle:
    # Lines repeat a few distinct rows, so a bad row may come after repeats;
    # padded cells, a quoted comma, empty cells and ragged rows exercise
    # every check.
    cells = st.sampled_from(["a", " a", "a ", "b", "x,y", "c", " ", ""])

    @settings(max_examples=300, deadline=None)
    @given(
        names=st.lists(st.sampled_from(["u", " v ", "w", "x,y", ""]), min_size=1, max_size=3),
        distinct=st.lists(st.lists(cells, min_size=1, max_size=4), min_size=1, max_size=6),
        picks=st.lists(st.integers(0, 5), max_size=40),
        has_header=st.booleans(),
        bom=st.booleans(),
    )
    def test_equal_to_reference_loader(self, tmp_path_factory, names, distinct, picks, has_header, bom):
        body = [distinct[pick % len(distinct)] for pick in picks]
        path = str(tmp_path_factory.mktemp("load") / "t.csv")
        with open(path, "w", encoding="utf-8-sig" if bom else "utf-8", newline="") as fh:
            csv.writer(fh).writerows(([names] if has_header else []) + body)
        try:
            want = reference_load_csv(path, has_header)
        except DataError as exc:
            with pytest.raises(DataError) as got:
                load_csv(path, has_header)
            assert str(got.value) == str(exc)
            return
        got = load_csv(path, has_header)
        assert got.schema == want.schema
        assert got.rows.dtype == want.rows.dtype and np.array_equal(got.rows, want.rows)


class TestWriteCsv:
    def test_floats_written_as_repr(self, tmp_path):
        path = tmp_path / "out.csv"
        cells = [np.float64(0.1), -0.0, float("nan"), np.float64(1 / 3), 7, np.int64(8), "x,y"]
        _write_csv(str(path), ["a", "b", "c", "d", "e", "f", "g"], [cells])
        assert path.read_bytes() == b'a,b,c,d,e,f,g\r\n0.1,-0.0,nan,0.3333333333333333,7,8,"x,y"\r\n'
        with open(path, newline="") as fh:
            row = list(csv.reader(fh))[1]
        for cell, value in zip(row[:4], cells[:4]):
            assert np.array(float(cell)).tobytes() == np.array(value, dtype=float).tobytes()


@settings(max_examples=50, deadline=None)
@given(
    table=st.lists(
        st.tuples(st.sampled_from("abc"), st.sampled_from("xyz")),
        min_size=2,
        max_size=30,
    )
)
def test_encode_decode_round_trip(tmp_path_factory, table):
    # need both columns non-constant
    if len({r[0] for r in table}) < 2 or len({r[1] for r in table}) < 2:
        return
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    lines = ["u,v"] + [",".join(row) for row in table]
    d = load_csv(write_csv(path, lines))
    assert decode(d) == [list(row) for row in table]


class TestBootstrap:
    def test_single_row_is_identity(self):
        schema = Schema((Variable("u", ("a", "b")), Variable("v", ("x", "y"))))
        d = Dataset(schema, np.array([[1, 0]]))
        rep = bootstrap_replicate(d, seed=99)
        assert np.array_equal(rep.rows, d.rows)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        schema = Schema((Variable("u", ("a", "b")),))
        d = Dataset(schema, rng.integers(0, 2, size=(50, 1)))
        r1 = bootstrap_replicate(d, seed=5)
        r2 = bootstrap_replicate(d, seed=5)
        assert np.array_equal(r1.rows, r2.rows)

    def test_rows_drawn_from_original(self):
        rng = np.random.default_rng(1)
        schema = Schema((Variable("u", ("a", "b", "c")), Variable("v", ("x", "y"))))
        d = Dataset(schema, np.column_stack([rng.integers(0, 3, 1000), rng.integers(0, 2, 1000)]))
        rep = bootstrap_replicate(d, seed=7)
        original = {tuple(row) for row in d.rows}
        assert all(tuple(row) in original for row in rep.rows)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 200), seed=st.integers(0, 2**32 - 1))
    def test_preserves_n_and_schema(self, n, seed):
        rng = np.random.default_rng(seed)
        schema = Schema((Variable("u", ("a", "b")), Variable("v", ("x", "y", "z"))))
        d = Dataset(schema, np.column_stack([rng.integers(0, 2, n), rng.integers(0, 3, n)]))
        rep = bootstrap_replicate(d, seed)
        assert rep.n == d.n and rep.schema == d.schema


class TestKfold:
    def make(self, n):
        rng = np.random.default_rng(0)
        schema = Schema((Variable("u", ("a", "b")),))
        rows = rng.integers(0, 2, size=(n, 1))
        rows[0, 0], rows[1, 0] = 0, 1
        return Dataset(schema, rows)

    def test_leave_one_out_shape(self):
        folds = kfold_split(self.make(10), 10, seed=0)
        assert [t.n for _, t in folds] == [1] * 10

    def test_survey_sized_folds(self):
        folds = kfold_split(self.make(9720), 10, seed=1)
        assert [t.n for _, t in folds] == [972] * 10

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(4, 60), k=st.integers(2, 10), seed=st.integers(0, 1000))
    def test_partition_property(self, n, k, seed):
        if k > n:
            return
        d = self.make(n)
        folds = kfold_split(d, k, seed)
        sizes = [t.n for _, t in folds]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == n
        for train, test in folds:
            assert train.n + test.n == n

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(DataError):
            kfold_split(self.make(5), 6, seed=0)

    def test_k_below_two_rejected(self):
        with pytest.raises(DataError):
            kfold_split(self.make(5), 1, seed=0)


class TestDichotomize:
    def test_even_split(self):
        assert dichotomize([1, 2, 3, 4]) == ["low", "low", "high", "high"]

    def test_ties_go_low(self):
        assert dichotomize([5, 5, 9]) == ["low", "low", "high"]

    def test_constant_rejected(self):
        with pytest.raises(DataError):
            dichotomize([3, 3, 3])

    def test_skewed_column_rejected(self):
        with pytest.raises(DataError):
            dichotomize([1, 2, 2])

    def test_custom_labels(self):
        assert dichotomize([0.0, 10.0], labels=("cold", "hot")) == ["cold", "hot"]


class TestSeedsAndSchema:
    def test_derived_seed_deterministic_and_distinct(self):
        a = derived_seed(42, 0)
        assert a == derived_seed(42, 0)
        assert len({derived_seed(42, i) for i in range(100)}) == 100

    @pytest.mark.parametrize("master", [-1, 2**64])
    def test_derived_seed_outside_64_bits_rejected(self, master):
        with pytest.raises(DataError, match="64-bit unsigned"):
            derived_seed(master, 0)
        assert derived_seed(2**64 - 1, 0) != derived_seed(0, 0)

    def test_schema_json_round_trip(self):
        schema = Schema((Variable("u", ("a", "b")), Variable("v", ("x", "y", "z"))))
        assert schema_from_json(schema_to_json(schema)) == schema

    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError):
            Schema((Variable("u", ("a", "b")), Variable("u", ("x", "y"))))

    def test_single_level_rejected(self):
        with pytest.raises(DataError):
            Variable("u", ("a",))

    def test_out_of_range_cell_rejected(self):
        schema = Schema((Variable("u", ("a", "b")),))
        with pytest.raises(DataError):
            Dataset(schema, np.array([[2]]))

    def test_index_takes_name_or_position(self):
        schema = Schema((Variable("u", ("a", "b")), Variable("v", ("x", "y", "z"))))
        assert schema.index("v") == 1
        assert schema.index(1) == 1 and schema.index(np.int64(0)) == 0
        assert schema.level_index(1, "z") == 2 and schema.level_index(1, np.int32(2)) == 2
        for bad in (-1, 2, "w", True, 1.0, None):
            with pytest.raises(DataError, match="unknown variable"):
                schema.index(bad)
        for bad in (-1, 3, "q", False):
            with pytest.raises(DataError, match="unknown level"):
                schema.level_index(1, bad)

    def test_rows_are_immutable(self):
        schema = Schema((Variable("u", ("a", "b")),))
        d = Dataset(schema, np.array([[0], [1]]))
        with pytest.raises(ValueError):
            d.rows[0, 0] = 1
