#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks.

    python3 stbench/selftest.py

Runs each workload once at a reduced size, confirms that its real outputs
pass every check, then perturbs one output at a time and confirms that the
check aimed at it fails. Prints one line per case; exits 1 if any case goes
the wrong way. Run from the root of a checkout, like run.py.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import sys
import tempfile
import time

import checks
import run

SMALL = {
    "survey_session": {"rows": 2000, "replicates": 4, "cv_replicates": 2, "sweep_repeats": 1},
    "wide_consensus": {"rows": 2000, "variables": 6, "replicates": 4, "sweep_repeats": 1},
}


def _rewrite_csv(path, edit):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _rewrite_json(path, edit):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    edit(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _set_cell(row, col, delta):
    def edit(rows):
        rows[row][col] = repr(float(rows[row][col]) + delta)
    return edit


def _zero_distinct_pair(model, depth):
    stages = model.stages[depth]
    u, v = next((u, v) for u in range(stages.size) for v in range(u + 1, stages.size)
                if stages[u] != stages[v])

    def edit(rows):
        rows[1 + u][1 + v] = rows[1 + v][1 + u] = "0.0"
    return edit


def _drop_first_edge(payload):
    payload["edges"] = payload["edges"][1:]


def cli_cases(cfg, model):
    m = cfg["params"]["replicates"]
    boot = os.path.join("round_0", "bootstrap")
    deepest = len(model.order) - 1

    def bump_probability(payload):
        row = payload["probabilities"][1][0]
        row[0], row[1] = row[1], row[0]

    cases = [
        ("model probabilities", f"{boot}/consensus_model.json", "json", bump_probability, "not the MLE"),
        ("dissimilarity asymmetric", f"{boot}/dissimilarity_depth_{deepest}.csv", "csv",
         _set_cell(1, 2, 1.0 / m), "not symmetric"),
        ("dissimilarity off the 1/M grid", f"{boot}/dissimilarity_depth_1.csv", "csv",
         _set_cell(1, 1, 0.5 / m), "multiples"),
        ("dissimilarity zero across stages", f"{boot}/dissimilarity_depth_{deepest}.csv", "csv",
         _zero_distinct_pair(model, deepest), "distance 0"),
        ("edge label frequencies", f"{boot}/edge_strength.csv", "csv", _set_cell(1, 3, 1.0 / m),
         "sum to"),
        ("partial label on binary data", f"{boot}/edge_strength.csv", "csv",
         lambda rows: (_set_cell(1, 3, -1.0 / m)(rows), _set_cell(1, 5, 1.0 / m)(rows)),
         "partial label"),
        ("ALDAG edges", "round_0/aldag.json", "json", _drop_first_edge, "aldag.json"),
        ("repeated rounds", "round_1/bootstrap/edge_strength.csv", "csv", _set_cell(1, 2, 1e-15),
         "differs"),
    ]
    if cfg["workload"] == "survey_session":
        cases += [
            ("order not pinned", f"{boot}/order.txt", "text",
             lambda text: ",".join([cfg["response"]] + [n for n in text.strip().split(",")
                                                       if n != cfg["response"]]) + "\n",
             "pinned"),
            ("vote pair sum", f"{boot}/votes.csv", "csv", _set_cell(1, 2, 1.0 / m), "!= 1"),
            ("cv log-likelihood sign", "round_0/cv/cv_records.csv", "csv",
             lambda rows: rows[1].__setitem__(3, "1.5"), "not finite and negative"),
            ("cv summary", "round_0/cv/cv_summary.csv", "csv", _set_cell(1, 4, 1.0), "recomputed"),
        ]
    else:
        cases.append(("fixed order", f"{boot}/order.txt", "text",
                      lambda text: ",".join(reversed(text.strip().split(","))) + "\n",
                      "requested order"))
    return cases


def apply(path, kind, edit):
    if kind == "csv":
        _rewrite_csv(path, edit)
    elif kind == "json":
        _rewrite_json(path, edit)
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(edit(text))


def selftest_cli(workload, work) -> list[str]:
    cfg = run.prepare(workload, 11, work, 0, False)
    params = cfg["params"] = dict(cfg["params"], **SMALL[workload])
    if workload == "wide_consensus":
        header, body = run.inputs.wide_rows(11, params["rows"], params["variables"])
        cfg["names"], cfg["response"] = header, header[-1]
    else:
        header, body = run.inputs.survey_rows(11, params["rows"])
    run.inputs.write_csv(cfg["csv"], header, body)
    out = run._child("run", cfg, time.monotonic() + 300)
    failures = []
    clean = run.verify_cli(cfg, out)
    print(f"{workload}: real outputs {'pass' if not clean else 'FAIL: ' + clean[0]}")
    if clean:
        failures.append(f"{workload} real outputs")
    model = checks.Model(os.path.join(work, "round_0", "bootstrap", "consensus_model.json"))
    for name, rel, kind, edit, expect in cli_cases(cfg, model):
        path = os.path.join(work, rel)
        backup = path + ".orig"
        shutil.copyfile(path, backup)
        apply(path, kind, edit)
        errors = run.verify_cli(cfg, out)
        shutil.move(backup, path)
        caught = any(expect in e for e in errors)
        print(f"{workload}: perturbed {name}: {'caught' if caught else 'MISSED'}")
        if not caught:
            failures.append(f"{workload} {name}")
    return failures + sweep_cases(workload, run.verify_cli, cfg, out)


def sweep_cases(workload, verify, cfg, out) -> list[str]:
    """A wrong sensitivity table, and a later round's table that differs."""
    failures = []
    for name, record, expect in (("sensitivity table", out["rounds"][0], "max_change"),
                                 ("repeated sensitivity table", out["rounds"][1], "differs")):
        record["sweep"][0][2] += 1e-6
        caught = any(expect in e for e in verify(cfg, out))
        record["sweep"][0][2] -= 1e-6
        print(f"{workload}: perturbed {name}: {'caught' if caught else 'MISSED'}")
        if not caught:
            failures.append(f"{workload} {name}")
    return failures


def selftest_whatif(work) -> list[str]:
    cfg = run.prepare("whatif_queries", 11, work, 0, False)
    out = run._child("run", cfg, time.monotonic() + 300)
    failures = []
    clean = run.verify_whatif(cfg, out)
    print(f"whatif_queries: real outputs {'pass' if not clean else 'FAIL: ' + clean[0]}")
    if clean:
        failures.append("whatif_queries real outputs")
    with open(cfg["spec"], encoding="utf-8") as fh:
        spec = json.load(fh)
    queries = run.inputs.whatif_round_queries(spec, cfg["seed"], 0)
    first = out["rounds"][0]
    kinds = sorted({q["kind"] for q in queries})
    for kind in kinds:
        i = next(i for i, q in enumerate(queries) if q["kind"] == kind)
        record = first["results"][i]
        saved = json.dumps(record)
        if kind == "mi":
            record["mi"] += 1e-6
        else:
            # Move mass between two levels of a variable that carries no
            # finding, so only the comparison with the oracle can notice.
            findings = set(queries[i].get("hard", {})) | set(queries[i].get("soft", {}))
            name = next(n for n in spec["names"] if n not in findings)
            record["marginals"][name][0] += 1e-5
            record["marginals"][name][1] -= 1e-5
        caught = any(f"query {i} " in e for e in run.verify_whatif(cfg, out))
        first["results"][i] = json.loads(saved)
        print(f"whatif_queries: perturbed {kind} result: {'caught' if caught else 'MISSED'}")
        if not caught:
            failures.append(f"whatif {kind}")
    soft1 = next(i for i, q in enumerate(queries) if q["kind"] == "soft1")
    first["results"][soft1]["iterations"] = 3
    caught = any("IPF cycles" in e for e in run.verify_whatif(cfg, out))
    first["results"][soft1]["iterations"] = 1
    print(f"whatif_queries: perturbed Jeffrey cycle count: {'caught' if caught else 'MISSED'}")
    if not caught:
        failures.append("whatif Jeffrey cycles")
    return failures + sweep_cases("whatif_queries", run.verify_whatif, cfg, out)


def main() -> int:
    scratch = os.path.join(os.getcwd(), ".stbench_work")
    os.makedirs(scratch, exist_ok=True)
    failures = []
    for workload in ("survey_session", "wide_consensus", "whatif_queries"):
        work = tempfile.mkdtemp(prefix=f"selftest-{workload}-", dir=scratch)
        try:
            if workload == "whatif_queries":
                failures += selftest_whatif(work)
            else:
                failures += selftest_cli(workload, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    try:
        os.rmdir(scratch)
    except OSError:
        pass
    print("self-test:", "all checks behave" if not failures else f"{len(failures)} cases wrong")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
