#!/usr/bin/env python3
"""Benchmark of stagedtree: one command, three workloads.

    python3 stbench/run.py --workload survey_session --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ./src. The
inputs are generated from --seed. Each run starts a fresh process for the
workload (stbench/child.py) after PROBES set-up probes, checks every output
the workload produced, and prints one JSON object as the last line of stdout:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
See stbench/README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("survey_session", "wide_consensus", "whatif_queries")
PROBES = 4  # set-up probes per run, besides the workload process itself
DEADLINE_S = 170.0  # a run must end within 180 s
# whatif_queries checks every query of round 0 and, of later rounds, those
# whose index is congruent to the round number modulo this.
QUERY_SAMPLE_EVERY = 5

# A fixed string-hash seed makes dict and set layouts repeat from process to
# process; the program's results do not depend on it.
CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0")

# Metric names, units and order come from BENCHMARK.json beside this directory.
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

# Per-layer metric -> (traced function, figure). Times are per round.
LAYER_FIGURES = {
    "dataset.load_csv_s": ("dataset.load_csv", "incl_s"),
    "dataset.bootstrap_replicate_calls": ("dataset.bootstrap_replicate", "calls"),
    "dataset.select_columns_calls": ("dataset.select_columns", "calls"),
    "tree.stage_counts_s": ("tree.stage_counts", "incl_s"),
    "tree.stage_counts_calls": ("tree.stage_counts", "calls"),
    "tree.fit_s": ("tree.fit", "incl_s"),
    "learning.order_search_dp_s": ("learning.order_search_dp", "incl_s"),
    "learning.variable_score_calls": ("learning.variable_score", "calls"),
    "learning.bhc_stage_depth_s": ("learning.bhc_stage_depth", "incl_s"),
    "learning.bhc_stage_depth_calls": ("learning.bhc_stage_depth", "calls"),
    "learning.cmi_s": ("learning.cmi", "incl_s"),
    "learning.cmi_calls": ("learning.cmi", "calls"),
    "consensus.bootstrap_orders_s": ("consensus.bootstrap_orders", "incl_s"),
    "consensus.ensemble_from_stagings_s": ("consensus.ensemble_from_stagings", "incl_s"),
    "consensus.consensus_staging_s": ("consensus.consensus_staging", "incl_s"),
    "aldag.compress_s": ("aldag.compress", "incl_s"),
    "aldag.compress_calls": ("aldag.compress", "calls"),
    "aldag.classify_edge_s": ("aldag.classify_edge", "incl_s"),
    "aldag.classify_edge_calls": ("aldag.classify_edge", "calls"),
    "harness.run_cv_self_s": ("harness.run_cv", "self_s"),
    "cli.bootstrap_s": ("cli._cmd_bootstrap", "incl_s"),
    "cli.cv_s": ("cli._cmd_cv", "incl_s"),
    "inference.condition_hard_s": ("inference.condition_hard", "incl_s"),
    "inference.condition_hard_calls": ("inference.condition_hard", "calls"),
    "inference.marginal_calls": ("inference.marginal", "calls"),
    "inference.condition_soft_s": ("inference.condition_soft", "incl_s"),
    "inference.run_query_s": ("inference.run_query", "incl_s"),
    "inference.condition_virtual_s": ("inference.condition_virtual", "incl_s"),
    "inference.mutual_information_s": ("inference.mutual_information", "incl_s"),
    "inference.joint_table_calls": ("inference.joint_table", "calls"),
    "inference.whatif_sweep_self_s": ("inference.whatif_sweep", "self_s"),
}
# cli.write_s: the commands' self time plus the result writers they call.
CLI_COMMANDS = ("cli._cmd_bootstrap", "cli._cmd_cv")
RESULT_WRITERS = (
    "consensus.staging_heatmap_export",
    "consensus.context_labels_for_depth",
    "harness.report_export",
    "tree.tree_to_json",
)


class BenchError(Exception):
    """The workload could not be run to its end."""


# -- inputs ------------------------------------------------------------------
def prepare(workload: str, seed: int, work: str, seconds: int, trace: bool) -> dict:
    cfg = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workdir": work,
        "src": os.path.join(os.getcwd(), "src"),
        "result": os.path.join(work, "result.json"),
    }
    if workload == "survey_session":
        params = inputs.SURVEY
        header, body = inputs.survey_rows(seed, params["rows"])
        cfg["response"] = params["response"]
    elif workload == "wide_consensus":
        params = inputs.WIDE
        header, body = inputs.wide_rows(seed, params["rows"], params["variables"])
        cfg["response"] = header[-1]
    else:
        cfg["spec"] = os.path.join(work, "spec.json")
        inputs.write_json(cfg["spec"], inputs.whatif_spec(inputs.WHATIF_MODEL_SEED))
        return cfg
    cfg["params"] = params
    cfg["names"] = header
    cfg["csv"] = os.path.join(work, "input.csv")
    inputs.write_csv(cfg["csv"], header, body)
    return cfg


def _child(mode: str, cfg: dict, deadline: float) -> dict:
    config_path = os.path.join(cfg["workdir"], f"{mode}.json")
    inputs.write_json(config_path, cfg)
    log_path = os.path.join(cfg["workdir"], "child.log")
    if os.path.exists(cfg["result"]):
        os.remove(cfg["result"])
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), mode, config_path],
                stdout=log, stderr=subprocess.STDOUT, env=CHILD_ENV,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"the {mode} process did not end before the deadline") from None
    if proc.returncode != 0 or not os.path.exists(cfg["result"]):
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            log_tail = fh.read()[-3000:]
        raise BenchError(f"the {mode} process exited with code {proc.returncode}:\n{log_tail}")
    with open(cfg["result"], encoding="utf-8") as fh:
        return json.load(fh)


# -- verification ------------------------------------------------------------
def _round_dirs(cfg: dict, out: dict) -> list[str]:
    tags = [r["tag"] for r in out["rounds"]]
    tags += [out[k]["tag"] for k in ("ref", "alloc") if k in out]
    return [os.path.join(cfg["workdir"], f"round_{t}") for t in tags]


def verify_cli(cfg: dict, out: dict) -> list[str]:
    params = cfg["params"]
    m = params["replicates"]
    first = os.path.join(cfg["workdir"], "round_0")
    boot = os.path.join(first, "bootstrap")
    model = checks.Model(os.path.join(boot, "consensus_model.json"))
    errors = checks.check_model_mle(model, cfg["csv"])
    if cfg["workload"] == "survey_session":
        errors += checks.check_order(os.path.join(boot, "order.txt"), cfg["names"], cfg["response"])
        errors += checks.check_votes(os.path.join(boot, "votes.csv"), cfg["names"], m)
        algorithms = params["cv_algorithms"].split(",")
        errors += checks.check_cv(os.path.join(first, "cv"), params["cv_folds"], algorithms)
    else:
        errors += checks.check_order(os.path.join(boot, "order.txt"), cfg["names"], None, cfg["names"])
    errors += checks.check_dissimilarity(boot, model, m)
    errors += checks.check_edge_strength(os.path.join(boot, "edge_strength.csv"), model, m, binary=True)
    errors += checks.check_aldag(os.path.join(first, "aldag.json"), model)
    errors += checks.check_sweep(model.joint(), model.names, model.levels, cfg["response"],
                                 out["rounds"][0]["sweep"], "sensitivity table")
    for other in _round_dirs(cfg, out):
        if other != first:
            errors += checks.check_identical(first, other)
    return errors + _same_sweeps(out)


def _same_sweeps(out: dict) -> list[str]:
    """Every round computes the same sensitivity table, bit for bit."""
    first = json.dumps(out["rounds"][0]["sweep"])
    records = out["rounds"][1:] + [out[k] for k in ("ref", "alloc") if k in out]
    return [f"round {r['tag']}: sensitivity table differs from round 0"
            for r in records if json.dumps(r["sweep"]) != first]


def verify_whatif(cfg: dict, out: dict) -> list[str]:
    with open(cfg["spec"], encoding="utf-8") as fh:
        spec = json.load(fh)
    joint = checks.cpt_joint(spec)
    errors = []
    for record in out["rounds"]:
        r = record["tag"]
        for i, (query, result) in enumerate(
            zip(inputs.whatif_round_queries(spec, cfg["seed"], r), record["results"])
        ):
            if r == 0 or i % QUERY_SAMPLE_EVERY == r % QUERY_SAMPLE_EVERY:
                where = f"round {r} query {i} ({query['kind']})"
                errors += checks.check_query(joint, spec, query, result, where)
    first = out["rounds"][0]
    errors += checks.check_sweep(joint, spec["names"], spec["levels"], spec["response"],
                                 first["sweep"], "sensitivity table")
    errors += _same_sweeps(out)
    for key in ("ref", "alloc"):
        if key in out and json.dumps(out[key]["results"]) != json.dumps(first["results"]):
            errors.append(f"{key} round: query results differ from round 0")
    return errors


# -- metrics -----------------------------------------------------------------
# The tail percentile of each workload: the highest whole percentile with at
# least ten samples beyond it at the workload's usual sample count (800 and
# 500 tables, 735-1150 queries). It is fixed so that every run reports the
# same statistic; tail() lowers it only when a run has too few samples.
TAIL_PERCENTILE = {"survey_session": 98, "wide_consensus": 98, "whatif_queries": 98}


def tail(values: list[float], highest: int) -> tuple[int, float]:
    """The highest whole percentile, at most ``highest``, with at least ten
    samples beyond it, as (percentile, nearest-rank value)."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in range(highest, 74, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    raise BenchError(f"{n} latency samples are too few for a tail")


PIPELINE_OPS = ("bootstrap", "cv")  # the CLI workloads' pipeline commands


def _pipeline_s(workload: str, record: dict) -> float:
    """Time of one round's pipeline: the CLI commands, or every query and the
    sensitivity table of a whatif round."""
    return sum(op["s"] for op in record["ops"]
               if workload == "whatif_queries" or op["op"] in PIPELINE_OPS)


def end_to_end(workload: str, out: dict, setups: list[float]) -> dict:
    rounds = out["rounds"]
    # Latencies are CPU times: see child.Clock and README.md.
    sweeps = [op["cpu"] for r in rounds for op in r["ops"] if op["op"] == "sweep"]
    if workload == "whatif_queries":
        latencies = [op["cpu"] for r in rounds for op in r["ops"] if op["op"] in inputs.WHATIF_KINDS]
    else:
        # The sensitivity table is the only what-if query the CLI workloads
        # issue, so there the query metrics and sweep_s share their samples.
        latencies = sweeps
    pipelines = [_pipeline_s(workload, r) for r in rounds]
    tail_pct, tail_value = tail(latencies, TAIL_PERCENTILE[workload])
    values = {
        "setup_s": statistics.median(setups),
        "pipeline_s": statistics.median(pipelines),
        "queries_per_s": len(latencies) / sum(latencies),
        "query_p50_ms": 1000 * statistics.median(latencies),
        "query_tail_ms": 1000 * tail_value,
        "sweep_s": statistics.median(sweeps),
        "peak_rss_mb": out["peak_rss_mb"],
    }
    print(f"{workload}: {len(rounds)} rounds, {len(latencies)} latency samples "
          f"(tail: p{tail_pct}), "
          f"{len(sweeps)} sensitivity tables, {len(setups)} set-ups", file=sys.stderr)
    by_kind: dict[str, list[float]] = {}
    for op in (op for r in rounds for op in r["ops"]):
        by_kind.setdefault(op["op"], []).append(op["cpu"])
    print(f"{workload}: median CPU seconds by operation: "
          + ", ".join(f"{k} {statistics.median(v):.4g}" for k, v in sorted(by_kind.items())),
          file=sys.stderr)
    return values


def per_layer(workload: str, out: dict) -> dict:
    per_round = []
    for record in out["rounds"]:
        funcs = record["trace"]["functions"]
        counters = record["trace"]["counters"]

        def fig(key, field):
            return funcs.get(key, {}).get(field, 0)

        values = {name: fig(key, field) for name, (key, field) in LAYER_FIGURES.items()}
        calls = fig("learning.variable_score", "calls")
        values["learning.variable_score_hit_ratio"] = (
            counters.get("learning.variable_score_hits", 0) / calls if calls else 0.0
        )
        values["learning.contexts_staged"] = counters.get("learning.contexts_staged", 0)
        values["consensus.replicates"] = counters.get("consensus.replicates", 0)
        values["cli.write_s"] = sum(fig(k, "self_s") for k in CLI_COMMANDS) + sum(
            fig(k, "incl_s") for k in RESULT_WRITERS
        )
        values["inference.ipf_iterations"] = sum(
            res.get("iterations") or 0 for res in record.get("results", [])
        )
        per_round.append(values)
    metrics = {name: statistics.median(v[name] for v in per_round) for name in per_round[0]}
    # Median latency of each query kind over the traced rounds (wrappers
    # included); 0 on the CLI workloads, which issue none of them.
    for kind in inputs.WHATIF_KINDS:
        samples = [op["cpu"] for r in out["rounds"] for op in r["ops"] if op["op"] == kind]
        metrics[f"inference.{kind}_p50_ms"] = 1000 * statistics.median(samples) if samples else 0.0
    traced = [_pipeline_s(workload, r) for r in out["rounds"]]
    print(f"{workload}: traced pipeline {statistics.median(traced):.3f} s (median of {len(traced)} "
          f"rounds); untraced reference round {_pipeline_s(workload, out['ref']):.3f} s", file=sys.stderr)
    peaks = out["alloc_peaks"]
    metrics["consensus.run_bootstrap_consensus_peak_alloc_mb"] = peaks.get(
        "consensus.run_bootstrap_consensus", 0.0
    )
    metrics["inference.query_peak_alloc_mb"] = max(
        [v for k, v in peaks.items() if k.startswith("inference.")], default=0.0
    )
    return metrics


def operations(out: dict) -> tuple[int, int]:
    records = list(out["rounds"]) + [out[k] for k in ("ref", "alloc") if k in out]
    ops = [op for r in records for op in r["ops"]] + out["finish"]
    return len(ops), sum(1 for op in ops if not op["ok"])


def run(args) -> dict:
    started = time.monotonic()
    deadline = started + DEADLINE_S
    if not os.path.isfile(os.path.join("src", "stagedtree", "__init__.py")):
        raise BenchError("no program to measure: src/stagedtree is missing from the working directory")
    scratch = os.path.join(os.getcwd(), ".stbench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch)
    try:
        cfg = prepare(args.workload, args.seed, work, args.seconds, bool(args.trace))
        setups = [_child("probe", cfg, deadline)["setup_s"] for _ in range(PROBES)]
        out = _child("run", cfg, deadline)
        setups.append(out["setup_s"])
        verify = verify_whatif if args.workload == "whatif_queries" else verify_cli
        try:
            errors = verify(cfg, out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            errors = [f"outputs could not be read: {exc!r}"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    for line in errors[:50]:
        print(f"check failed: {line}", file=sys.stderr)
    attempted, failed = operations(out)
    if args.trace:
        values, section = per_layer(args.workload, out), "per_layer"
    else:
        values, section = end_to_end(args.workload, out, setups), "end_to_end"
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        declared = json.load(fh)[section]
    print(f"{args.workload}: run took {time.monotonic() - started:.1f} s", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
