"""Correctness checks of the program's outputs.

Each check compares an output with a computation made here, apart from the
program (this module never imports stagedtree), or with a property the method
must have. None compares with a stored copy of earlier output. Every check
returns a list of error strings; an empty list means it passed.
"""

from __future__ import annotations

import csv
import filecmp
import itertools
import json
import math
import os
import statistics

import numpy as np

ABS = 1e-10  # float noise allowed between two exact computations of one value
IPF_ABS = 1e-7  # the program stops IPF at a deviation of 1e-9 on the targets


def _close(a, b, tol=ABS) -> bool:
    return abs(float(a) - float(b)) <= tol * max(1.0, abs(float(a)), abs(float(b)))


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# -- models and joints -------------------------------------------------------
class Model:
    """A model JSON file read into arrays; axes follow the schema order."""

    def __init__(self, path: str):
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        self.names = [v["name"] for v in payload["schema"]["variables"]]
        self.levels = [list(v["levels"]) for v in payload["schema"]["variables"]]
        self.order = [self.names.index(n) for n in payload["order"]]
        self.stages = [np.asarray(s["stages"], dtype=np.int64) for s in payload["stagings"]]
        self.n_stages = [int(s["n_stages"]) for s in payload["stagings"]]
        self.probs = [np.asarray(m, dtype=float) for m in payload["probabilities"]]

    def counts(self) -> list[int]:
        return [len(lv) for lv in self.levels]

    def joint(self) -> np.ndarray:
        """Atom probabilities: the product of stage probabilities along each
        root-to-leaf path, enumerated atom by atom."""
        counts = self.counts()
        table = np.empty(counts)
        for atom in itertools.product(*(range(c) for c in counts)):
            value, code = 1.0, 0
            for depth, var in enumerate(self.order):
                value *= self.probs[depth][self.stages[depth][code], atom[var]]
                code = code * counts[var] + atom[var]
            table[atom] = value
        return table


def cpt_joint(spec: dict) -> np.ndarray:
    """Joint table of the Bayesian network the whatif model is encoded from."""
    names = spec["names"]
    counts = [len(lv) for lv in spec["levels"]]
    joint = np.ones(counts)
    for j, name in enumerate(names):
        axes = [names.index(q) for q in spec["parents"][name]] + [j]
        if axes != sorted(axes):
            raise ValueError("parents must precede their child in the spec")
        shape = [1] * len(names)
        for a in axes:
            shape[a] = counts[a]
        joint = joint * np.asarray(spec["cpts"][name], dtype=float).reshape(shape)
    return joint


def marginal(joint: np.ndarray, var: int) -> np.ndarray:
    return joint.sum(axis=tuple(a for a in range(joint.ndim) if a != var))


def all_marginals(joint: np.ndarray) -> list[np.ndarray]:
    return [marginal(joint, v) for v in range(joint.ndim)]


def mutual_information(joint: np.ndarray, a: int, b: int) -> float:
    pair = joint.sum(axis=tuple(x for x in range(joint.ndim) if x not in (a, b)))
    if a > b:
        pair = pair.T
    pa, pb = pair.sum(axis=1), pair.sum(axis=0)
    total = 0.0
    for i in range(pair.shape[0]):
        for k in range(pair.shape[1]):
            if pair[i, k] > 0:
                total += pair[i, k] * math.log(pair[i, k] / (pa[i] * pb[k]))
    return max(total, 0.0)


def sweep_table(joint: np.ndarray, names, levels, target: int) -> list[tuple]:
    """Per predictor and target level: the largest movement of P(target) over
    the predictor's levels, and its direction along the level order."""
    rows = []
    for v in range(joint.ndim):
        if v == target:
            continue
        pv = marginal(joint, v)
        responses = []
        for level in range(joint.shape[v]):
            if pv[level] == 0:
                continue
            sliced = np.take(joint, level, axis=v)
            t_axis = target if target < v else target - 1
            responses.append(marginal(sliced, t_axis) / sliced.sum())
        if len(responses) < 2:
            continue
        stacked = np.vstack(responses)
        for t, name in enumerate(levels[target]):
            series = stacked[:, t]
            diffs = np.diff(series)
            if (diffs >= 0).all() and (diffs > 0).any():
                direction = "increase"
            elif (diffs <= 0).all() and (diffs < 0).any():
                direction = "decrease"
            elif (diffs == 0).all():
                direction = "flat"
            else:
                direction = "mixed"
            ambiguous = bool((np.abs(diffs) < 1e-9).any())
            rows.append((names[v], name, float(series.max() - series.min()), direction, ambiguous))
    return rows


def _ipf_small(table: np.ndarray, targets: dict[int, np.ndarray]) -> np.ndarray:
    """I-projection of a small table onto the given axis marginals."""
    for _ in range(100_000):
        for axis, target in targets.items():
            current = marginal(table, axis)
            shape = [1] * table.ndim
            shape[axis] = current.size
            table = table * (target / current).reshape(shape)
        if max(np.abs(marginal(table, a) - t).max() for a, t in targets.items()) < 1e-15:
            break
    return table


def soft_update(joint: np.ndarray, targets: dict[int, np.ndarray]) -> np.ndarray:
    """Soft evidence on several variables as the I-projection: fit the joint
    marginal of the evidence variables by IPF, then rescale the full joint by
    new/old evidence marginal, which keeps P(rest | evidence) unchanged."""
    axes = sorted(targets)
    small = joint.sum(axis=tuple(a for a in range(joint.ndim) if a not in axes))
    fitted = _ipf_small(small, {i: targets[a] for i, a in enumerate(axes)})
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(small > 0, fitted / small, 0.0)
    shape = [1] * joint.ndim
    for a in axes:
        shape[a] = joint.shape[a]
    return joint * ratio.reshape(shape)


# -- whatif_queries ----------------------------------------------------------
def _compare_marginals(got: dict, want: list[np.ndarray], names, tol, where) -> list[str]:
    errors = []
    for v, name in enumerate(names):
        g = np.asarray(got.get(name, []), dtype=float)
        if g.shape != want[v].shape or not np.allclose(g, want[v], rtol=0, atol=tol):
            errors.append(f"{where}: marginal of {name} is {g.tolist()}, expected {want[v].tolist()}")
    return errors


def check_query(joint: np.ndarray, spec: dict, query: dict, record: dict, where: str) -> list[str]:
    names = spec["names"]
    levels = spec["levels"]
    kind = query["kind"]
    if "error" in record:
        return []  # a failed operation is counted in ``failed``, not checked
    if kind == "mi":
        a, b = (names.index(n) for n in query["pair"])
        want = mutual_information(joint, a, b)
        if not _close(record["mi"], want):
            return [f"{where}: mutual information {record['mi']!r}, expected {want!r}"]
        return []

    hard = {
        names.index(n): levels[names.index(n)].index(lv) for n, lv in query.get("hard", {}).items()
    }
    work = joint
    prob = None
    if hard:
        index = tuple(hard.get(v, slice(None)) for v in range(joint.ndim))
        sliced = joint[index]
        prob = float(sliced.sum())
        work = np.zeros_like(joint)
        work[index] = sliced / prob
    errors = []
    tol = ABS
    if kind in ("soft1", "softN", "hard_soft"):
        targets = {names.index(n): np.asarray(t, dtype=float) for n, t in query["soft"].items()}
        if kind == "soft1":
            (v, target), = targets.items()
            work = work * (target / marginal(work, v)).reshape(
                [-1 if a == v else 1 for a in range(joint.ndim)])  # Jeffrey's rule
            if record["iterations"] is None or record["iterations"] > 1:
                errors.append(f"{where}: one soft finding took {record['iterations']} IPF cycles")
        else:
            work = soft_update(work, targets)
            tol = IPF_ABS
        for v, target in targets.items():
            got = np.asarray(record["marginals"][names[v]], dtype=float)
            if not np.allclose(got, target, rtol=0, atol=1e-9):
                errors.append(f"{where}: soft target of {names[v]} not met: {got.tolist()}")
    elif kind == "virtual":
        weighted = joint.copy()
        for n, w in query["weights"].items():
            v = names.index(n)
            weighted = weighted * np.asarray(w, dtype=float).reshape(
                [-1 if a == v else 1 for a in range(joint.ndim)])
        prob = float(weighted.sum())
        work = weighted / prob
    errors += _compare_marginals(record["marginals"], all_marginals(work), names, tol, where)
    if kind not in ("soft1", "softN"):
        got = record["evidence_probability"]
        if got is None or not _close(got, prob):
            errors.append(f"{where}: evidence probability {got!r}, expected {prob!r}")
    return errors


def check_sweep(joint: np.ndarray, names, levels, target: str, rows: list, where: str) -> list[str]:
    """``rows`` holds [predictor, target level, max change, direction, MI]."""
    t = names.index(target)
    want = sweep_table(joint, names, levels, t)
    if [(r[0], r[1]) for r in rows] != [(w[0], w[1]) for w in want]:
        return [f"{where}: sensitivity rows {[(r[0], r[1]) for r in rows]} do not match"]
    errors = []
    for row, (pred, level, change, direction, ambiguous) in zip(rows, want):
        if not _close(row[2], change):
            errors.append(f"{where}: max_change {pred}/{level} is {row[2]!r}, expected {change!r}")
        if not ambiguous and row[3] != direction:
            errors.append(f"{where}: direction {pred}/{level} is {row[3]}, expected {direction}")
        mi = mutual_information(joint, names.index(pred), t)
        if not _close(row[4], mi):
            errors.append(f"{where}: mutual information {pred} is {row[4]!r}, expected {mi!r}")
    return errors


# -- survey_session and wide_consensus --------------------------------------
def _data_indices(model: Model, csv_path: str) -> np.ndarray:
    header, body = read_csv(csv_path)
    cols = [header.index(n) for n in model.names]
    lookup = [{lv: i for i, lv in enumerate(levels)} for levels in model.levels]
    return np.array([[lookup[j][row[c]] for j, c in enumerate(cols)] for row in body], dtype=np.int64)


def check_model_mle(model: Model, csv_path: str) -> list[str]:
    """Stage probabilities equal counts over the CSV rows under the model's
    own order and stagings (no smoothing; empty stages are uniform)."""
    data = _data_indices(model, csv_path)
    counts = model.counts()
    errors = []
    code = np.zeros(data.shape[0], dtype=np.int64)
    for depth, var in enumerate(model.order):
        stage = model.stages[depth][code]
        tally = np.zeros((model.n_stages[depth], counts[var]))
        np.add.at(tally, (stage, data[:, var]), 1.0)
        totals = tally.sum(axis=1, keepdims=True)
        want = np.where(totals > 0, tally / np.maximum(totals, 1), 1.0 / counts[var])
        if model.probs[depth].shape != want.shape or not np.allclose(
            model.probs[depth], want, rtol=0, atol=ABS
        ):
            errors.append(f"consensus model: probabilities at depth {depth} are not the MLE")
        code = code * counts[var] + data[:, var]
    return errors


def check_order(path: str, names, pinned: str | None, fixed=None) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        order = fh.read().strip().split(",")
    if sorted(order) != sorted(names):
        return [f"order.txt {order} is not a permutation of {list(names)}"]
    if pinned is not None and order[-1] != pinned:
        return [f"order.txt ends with {order[-1]}, not the pinned {pinned}"]
    if fixed is not None and order != list(fixed):
        return [f"order.txt {order} differs from the requested order {list(fixed)}"]
    return []


def _multiple_of(values: np.ndarray, m: int) -> bool:
    scaled = np.asarray(values, dtype=float) * m
    return bool(np.all(np.abs(scaled - np.round(scaled)) < 1e-9))


def check_votes(path: str, names, m: int) -> list[str]:
    header, body = read_csv(path)
    if header[1:] != list(names) or [r[0] for r in body] != list(names):
        return ["votes.csv: variable labels do not match the data"]
    freq = np.array([[float(x) for x in r[1:]] for r in body])
    errors = []
    off = ~np.eye(len(names), dtype=bool)
    if np.diag(freq).any():
        errors.append("votes.csv: non-zero diagonal")
    if not np.allclose((freq + freq.T)[off], 1.0, rtol=0, atol=1e-12):
        errors.append("votes.csv: freq[j,k] + freq[k,j] != 1")
    if not _multiple_of(freq, m):
        errors.append(f"votes.csv: values are not multiples of 1/{m}")
    return errors


def context_labels(model: Model, depth: int) -> list[str]:
    if depth == 0:
        return ["root"]
    vars_ = model.order[:depth]
    return [
        ",".join(f"{model.names[v]}={model.levels[v][lv]}" for v, lv in zip(vars_, combo))
        for combo in itertools.product(*(range(len(model.levels[v])) for v in vars_))
    ]


def check_dissimilarity(outdir: str, model: Model, m: int) -> list[str]:
    errors = []
    for depth in range(1, len(model.order)):
        name = f"dissimilarity_depth_{depth}.csv"
        header, body = read_csv(os.path.join(outdir, name))
        labels = context_labels(model, depth)
        if header[1:] != labels or [r[0] for r in body] != labels:
            errors.append(f"{name}: context labels do not follow the model's order")
            continue
        d = np.array([[float(x) for x in r[1:]] for r in body])
        if not np.array_equal(d, d.T):
            errors.append(f"{name}: not symmetric")
        if np.diag(d).any():
            errors.append(f"{name}: non-zero diagonal")
        if (d < 0).any() or (d > 1).any():
            errors.append(f"{name}: values outside [0, 1]")
        if not _multiple_of(d, m):
            errors.append(f"{name}: values are not multiples of 1/{m}")
        stages = model.stages[depth]
        same = stages[:, None] == stages[None, :]
        if not same[d == 0].all():
            errors.append(f"{name}: contexts at distance 0 are in different consensus stages")
    return errors


def check_edge_strength(path: str, model: Model, m: int, binary: bool) -> list[str]:
    header, body = read_csv(path)
    labels = header[3:]
    errors = []
    position = {model.names[v]: i for i, v in enumerate(model.order)}
    for row in body:
        parent, child = row[0], row[1]
        strength = float(row[2])
        freqs = [float(x) for x in row[3:]]
        where = f"edge_strength.csv {parent}->{child}"
        if position[parent] >= position[child]:
            errors.append(f"{where}: parent does not precede child")
        if not 0 < strength <= 1 or not _multiple_of([strength] + freqs, m):
            errors.append(f"{where}: strength {strength} is not k/{m} with k >= 1")
        if not _close(sum(freqs), strength, 1e-12):
            errors.append(f"{where}: label frequencies sum to {sum(freqs)}, strength {strength}")
        if binary and freqs[labels.index("freq_partial")] != 0:
            errors.append(f"{where}: partial label on binary data")
    return errors


def varying_edges(model: Model) -> set[tuple[str, str]]:
    """(parent, child) for every predecessor axis along which the child's
    stage grid changes in some configuration of the other predecessors."""
    edges = set()
    counts = model.counts()
    for depth in range(1, len(model.order)):
        shape = [counts[v] for v in model.order[:depth]]
        grid = model.stages[depth].reshape(shape)
        for axis in range(depth):
            if (np.diff(grid, axis=axis) != 0).any():
                edges.add((model.names[model.order[axis]], model.names[model.order[depth]]))
    return edges


def check_aldag(path: str, model: Model) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        got = {(e["from"], e["to"]) for e in json.load(fh)["edges"]}
    want = varying_edges(model)
    if got != want:
        return [f"aldag.json: edges {sorted(got ^ want)} differ from the staging's own test"]
    return []


def check_cv(outdir: str, folds: int, algorithms: list[str]) -> list[str]:
    header, body = read_csv(os.path.join(outdir, "cv_records.csv"))
    errors = []
    col = {h: i for i, h in enumerate(header)}
    keys = sorted((int(r[col["fold"]]), r[col["algorithm"]]) for r in body)
    if keys != sorted((f, a) for f in range(folds) for a in algorithms):
        errors.append(f"cv_records.csv: rows {keys} are not folds x algorithms")
    for r in body:
        loglik, train_bic = float(r[col["test_loglik"]]), float(r[col["train_bic"]])
        if not (math.isfinite(loglik) and loglik < 0):
            errors.append(f"cv_records.csv: test_loglik {loglik} is not finite and negative")
        if not train_bic > 0:
            errors.append(f"cv_records.csv: train_bic {train_bic} is not positive")
    s_header, s_body = read_csv(os.path.join(outdir, "cv_summary.csv"))
    want = []
    for algorithm in sorted(set(algorithms)):
        for metric in ("train_bic", "test_loglik", "n_parameters"):
            data = [float(r[col[metric]]) for r in body if r[col["algorithm"]] == algorithm]
            q1, med, q3 = statistics.quantiles(data, n=4, method="inclusive")
            want.append((algorithm, metric, [min(data), q1, med, q3, max(data)]))
    got = [(r[0], r[1], [float(x) for x in r[2:]]) for r in s_body]
    if [(a, m) for a, m, _ in got] != [(a, m) for a, m, _ in want]:
        errors.append("cv_summary.csv: rows do not match the records")
    else:
        for (a, m, g), (_, _, w) in zip(got, want):
            if not all(_close(x, y) for x, y in zip(g, w)):
                errors.append(f"cv_summary.csv: {a}/{m} is {g}, recomputed {w}")
    return errors


def check_identical(reference: str, other: str) -> list[str]:
    """Every file under ``other`` equals, byte for byte, the one under ``reference``."""
    errors = []
    for root, _, files in os.walk(reference):
        for name in files:
            ref = os.path.join(root, name)
            rel = os.path.relpath(ref, reference)
            if rel == "aldag.json":  # made once, from round 0
                continue
            path = os.path.join(other, rel)
            if not os.path.exists(path) or not filecmp.cmp(ref, path, shallow=False):
                errors.append(
                    f"{os.path.basename(other)}/{rel} differs from {os.path.basename(reference)}"
                )
    return errors
