"""Categorical datasets: CSV ingestion, schemas, resampling and splits."""

from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ModelError

__all__ = [
    "Variable",
    "Schema",
    "Dataset",
    "ResamplePlan",
    "load_csv",
    "bootstrap_replicate",
    "kfold_split",
    "dichotomize",
    "derived_seed",
    "schema_to_json",
]

# Most contexts of one depth, or cells of one count table, any array may hold.
MAX_CONTEXTS = 10**7


@dataclass(frozen=True)
class Variable:
    """A named categorical variable with an ordered set of level labels."""

    name: str
    levels: tuple[str, ...]

    def __post_init__(self):
        if len(self.levels) < 2:
            raise DataError(f"variable {self.name!r} needs at least 2 levels, got {len(self.levels)}")
        if len(set(self.levels)) != len(self.levels):
            raise DataError(f"variable {self.name!r} has duplicate level labels")


@dataclass(frozen=True)
class Schema:
    """Ordered collection of categorical variables."""

    variables: tuple[Variable, ...]

    def __post_init__(self):
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise DataError("variable names must be unique")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    @property
    def level_counts(self) -> tuple[int, ...]:
        return tuple(len(v.levels) for v in self.variables)

    def __len__(self) -> int:
        return len(self.variables)

    def index(self, name) -> int:
        """Position of a variable given by name or by an integer in 0..p-1."""
        names = self.names
        if isinstance(name, str) and name in names:
            return names.index(name)
        if _is_index(name, len(names)):
            return int(name)
        raise DataError(f"unknown variable {name!r}; have {list(names)}")

    def level_index(self, var: int, label) -> int:
        """Position of a level of ``var`` given by label or by an integer index."""
        levels = self.variables[var].levels
        if isinstance(label, str) and label in levels:
            return levels.index(label)
        if _is_index(label, len(levels)):
            return int(label)
        raise DataError(
            f"unknown level {label!r} for variable {self.variables[var].name!r}; have {list(levels)}"
        )


def _is_index(value, size: int) -> bool:
    """True for a Python or numpy integer (not a bool) in 0..size-1."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and 0 <= value < size


@dataclass(frozen=True, eq=False)
class Dataset:
    """An N x p matrix of level indices together with its schema.

    Immutable after construction; the row matrix is marked read-only so
    every model and replicate tally built from a dataset reads the same rows.
    """

    schema: Schema
    rows: np.ndarray = field(repr=False)

    def __post_init__(self):
        rows = np.ascontiguousarray(self.rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != len(self.schema):
            raise DataError(f"rows must be N x {len(self.schema)}, got shape {rows.shape}")
        if rows.shape[0] < 1:
            raise DataError("dataset needs at least one row")
        counts = np.asarray(self.schema.level_counts)
        if rows.min(initial=0) < 0 or (rows >= counts[None, :]).any():
            bad = np.argwhere((rows < 0) | (rows >= counts[None, :]))[0]
            raise DataError(f"cell ({bad[0]}, {bad[1]}) holds an out-of-range level index")
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def p(self) -> int:
        return self.rows.shape[1]

    def select_columns(self, cols: list[int]) -> "Dataset":
        """Project onto a subset of variables, keeping their relative order."""
        sub = Schema(tuple(self.schema.variables[c] for c in cols))
        return Dataset(sub, np.ascontiguousarray(self.rows[:, cols]))

    def take_rows(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.schema, np.ascontiguousarray(self.rows[idx]))

    def counts(self, cols, draws=None) -> np.ndarray:
        """Joint level counts of ``cols`` in that order: an int64 array with
        one axis per column, sized by its level count. Every fit and score
        reads its contingency table from here; nothing else tallies rows.

        With ``draws``, an (M, n) array of row indices, the counts of each of
        the M resamples those rows make, stacked on a leading axis: the row
        codes are computed once and each resample tallies its own."""
        levels = self.schema.level_counts
        shape = tuple(levels[c] for c in cols)
        cells = cell_count(shape, f"cells in the count table of columns {tuple(int(c) for c in cols)}")
        codes = np.zeros(self.n, dtype=np.int64)
        for c, size in zip(cols, shape):
            codes = codes * size + self.rows[:, c]
        if draws is None:
            return np.bincount(codes, minlength=cells).reshape(shape)
        out = np.empty((len(draws), cells), dtype=np.int64)
        for at, rows in enumerate(draws):
            out[at] = np.bincount(codes[rows], minlength=cells)
        return out.reshape(len(draws), *shape)


def cell_count(shape, what: str) -> int:
    """Number of cells of an array of ``shape``; past MAX_CONTEXTS the array
    is refused with an error naming ``what`` it would have held."""
    total = 1
    for size in shape:
        total *= size
        if total > MAX_CONTEXTS:
            raise ModelError(f"more than {MAX_CONTEXTS} {what}; this model is beyond desk scale")
    return total


@dataclass(frozen=True)
class ResamplePlan:
    """How many bootstrap replicates to draw and from which master seed."""

    replicates: int
    seed: int = 0

    def __post_init__(self):
        if self.replicates < 1:
            raise DataError("replicates must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise DataError("seed must be a 64-bit unsigned integer")

    def replicate_seed(self, i: int) -> int:
        return derived_seed(self.seed, i)


def derived_seed(master: int, index: int) -> int:
    """Derive an independent 64-bit stream seed from (master seed, counter)."""
    if not 0 <= master < 2**64:
        raise DataError(f"seed must be a 64-bit unsigned integer, got {master}")
    ss = np.random.SeedSequence(entropy=(int(master), int(index)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def load_csv(path: str, has_header: bool = True) -> Dataset:
    """Read a categorical CSV file into an index-encoded dataset.

    Levels for each column are the lexicographically sorted distinct strings,
    which makes schemas deterministic across runs and platforms.
    """
    # utf-8-sig drops the byte-order mark that spreadsheet exports put first.
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
        # Rows are encoded as they stream in, each label by order of first
        # appearance; the codes are remapped to sorted levels at the end.
        # A survey repeats few distinct rows, so each distinct row is checked
        # and encoded once, at its first line, and the first bad line is the
        # first line of a bad row.
        seen: list[dict[str, int]] = [{} for _ in range(width)]
        patterns: dict[tuple[str, ...], int] = {}
        codes: list[list[int]] = []
        ids: list[int] = []
        for i, row in enumerate(body):
            at = patterns.setdefault(tuple(row), len(patterns))
            if at == len(codes):
                if len(row) != width:
                    raise DataError(f"{path}: line {first_line + i} has {len(row)} cells, expected {width}")
                stripped = [c.strip() for c in row]
                for j, c in enumerate(stripped):
                    if c == "":
                        raise DataError(f"{path}: empty cell at row {i + 1}, column {header[j]!r}")
                codes.append([seen[j].setdefault(c, len(seen[j])) for j, c in enumerate(stripped)])
            ids.append(at)
    if not ids:
        raise DataError(f"{path}: no data rows")

    rows = np.array(codes, dtype=np.int64)[ids]
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


def _check_header(path: str, header: list[str]) -> None:
    """Refuse an empty or repeated variable name, naming its column."""
    columns: dict[str, int] = {}
    for j, name in enumerate(header, start=1):
        if name == "":
            raise DataError(f"{path}: column {j} of the header has an empty variable name")
        if name in columns:
            raise DataError(f"{path}: column {j} repeats the variable name {name!r} of column {columns[name]}")
        columns[name] = j


def _write_csv(path: str, header, rows, floats=None) -> None:
    """Write ``header`` and then ``rows`` as CSV; every result file goes
    through here. A float cell, numpy floats included, is written as
    repr(float(v)), so a re-import is bit-exact.

    ``floats``, a float array with a row for each of ``rows``, ends each row
    with the values of its row. Each distinct value is formatted once, told
    apart by bit pattern so that -0.0 keeps its sign: a dissimilarity
    matrix holds at most M + 1 of them. A float's text needs no quoting, so
    a row's texts are joined as they are, after its cells and the comma the
    writer ends them with when given one more, empty cell."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if floats is None:
            for row in rows:
                writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
            return
        bits, inverse = np.unique(floats.view(np.int64), return_inverse=True)
        texts = np.array([repr(v) for v in bits.view(float).tolist()], dtype=object)
        end = writer.dialect.lineterminator
        head = io.StringIO()
        heads = csv.writer(head)
        for row, codes in zip(rows, inverse.reshape(floats.shape)):
            head.seek(0)
            head.truncate()
            heads.writerow([*row, ""])
            fh.write(head.getvalue()[: -len(end)] + ",".join(texts[codes].tolist()) + end)


def bootstrap_replicate(d: Dataset, seed: int) -> Dataset:
    """Resample N rows uniformly with replacement; deterministic in the seed."""
    return d.take_rows(_bootstrap_rows(d.n, seed))


def _bootstrap_rows(n: int, seed: int) -> np.ndarray:
    """The row indices of ``bootstrap_replicate`` of an n-row dataset."""
    return np.random.default_rng(seed).integers(0, n, size=n)


def kfold_indices(n: int, k: int, seed: int) -> list[np.ndarray]:
    """Sorted test-row indices per fold; folds partition range(n), sizes
    differing by at most one."""
    if k < 2:
        raise DataError(f"k must be >= 2, got {k}")
    if k > n:
        raise DataError(f"k={k} exceeds the number of rows N={n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    base, extra = divmod(n, k)
    out = []
    start = 0
    for f in range(k):
        size = base + (1 if f < extra else 0)
        out.append(np.sort(perm[start:start + size]))
        start += size
    return out


def _split(d: Dataset, test_idx: np.ndarray) -> tuple[Dataset, Dataset]:
    """The (train, test) datasets of the fold whose sorted test rows are
    ``test_idx``; both keep the rows in their order in ``d``."""
    train = np.ones(d.n, dtype=bool)
    train[test_idx] = False
    return Dataset(d.schema, d.rows[train]), d.take_rows(test_idx)


def kfold_split(d: Dataset, k: int, seed: int) -> list[tuple[Dataset, Dataset]]:
    """Partition rows into k folds of near-equal size; returns (train, test) pairs."""
    return [_split(d, test_idx) for test_idx in kfold_indices(d.n, k, seed)]


def dichotomize(column, labels: tuple[str, str] = ("low", "high")) -> list[str]:
    """Median-split a numeric vector into two labels.

    Values less than or equal to the median get the first label. A constant
    column cannot be split and is rejected.
    """
    values = np.asarray(column, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise DataError("expected a non-empty 1-d numeric vector")
    if np.unique(values).size < 2:
        raise DataError("cannot dichotomize a constant column")
    median = float(np.median(values))
    out = [labels[0] if v <= median else labels[1] for v in values]
    if labels[1] not in out:
        # Happens when the median equals the maximum, e.g. [1, 2, 2].
        raise DataError("median split leaves the upper level empty; column is too skewed")
    return out


def schema_to_json(schema: Schema) -> str:
    payload = {"variables": [{"name": v.name, "levels": list(v.levels)} for v in schema.variables]}
    return json.dumps(payload, indent=2)
