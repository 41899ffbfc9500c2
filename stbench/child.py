"""Runs one workload of the program in a fresh process.

    python3 stbench/child.py probe CONFIG.json   # set-up time only
    python3 stbench/child.py run CONFIG.json     # set-up, then timed rounds

run.py writes CONFIG.json and reads the JSON this process writes to the
config's ``result`` path. Set-up covers the program's own work before the
timed phase: importing the package and, for whatif_queries, building the
model with encode_bn plus one warm-up query. Inputs are loaded before the
clock starts, since generating them is the benchmark's work.

A round is a whole unit of the workload's operations; rounds repeat until the
next one would end after ``seconds``, with at least MIN_ROUNDS of them. With
``trace`` set, an untraced reference round runs first, the timed rounds run
under the tracer, and one last allocation round runs under tracemalloc.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

MIN_ROUNDS = 2


def _cli_commands(cfg: dict, outdir: str) -> list[tuple[str, list[str]]]:
    seed = str(cfg["seed"])
    boot = os.path.join(outdir, "bootstrap")
    if cfg["workload"] == "survey_session":
        w = cfg["params"]
        return [
            ("bootstrap", ["bootstrap", "--input", cfg["csv"], "--fixed-last", w["response"],
                           "--replicates", str(w["replicates"]), "--seed", seed,
                           "--threads", "1", "--outdir", boot]),
            ("cv", ["cv", "--input", cfg["csv"], "--fixed-last", w["response"],
                    "--algorithms", w["cv_algorithms"], "--folds", str(w["cv_folds"]),
                    "--replicates", str(w["cv_replicates"]), "--seed", seed,
                    "--threads", "1", "--outdir", os.path.join(outdir, "cv")]),
        ]
    w = cfg["params"]
    return [
        ("bootstrap", ["bootstrap", "--input", cfg["csv"], "--order", "fixed",
                       "--order-spec", ",".join(cfg["names"]),
                       "--replicates", str(w["replicates"]), "--seed", seed,
                       "--threads", "1", "--outdir", boot]),
    ]


class Clock:
    """Times one operation by the wall clock (``s``) and by the process's CPU
    time (``cpu``). The CPU time leaves out the time the process waited while
    other processes of a shared machine ran."""

    def __init__(self):
        self.wall = time.perf_counter()
        self.cpu = time.process_time()

    def op(self, name: str, ok: bool) -> dict:
        return {"op": name, "s": time.perf_counter() - self.wall,
                "cpu": time.process_time() - self.cpu, "ok": ok}


def sensitivity_table(inference, model, target: str) -> tuple[dict, list]:
    """The response's full sensitivity table, as ``stagedtree mi`` computes
    it: whatif_sweep plus the mutual information of every predictor."""
    clock = Clock()
    rows = inference.whatif_sweep(model, target)
    mi = {name: inference.mutual_information(model, name, target)
          for name in model.schema.names if name != target}
    op = clock.op("sweep", True)
    return op, [[r.predictor, r.target_level, r.max_change, r.direction, mi[r.predictor]] for r in rows]


class CliSession:
    """survey_session and wide_consensus: CLI commands through cli.main, then
    the response's sensitivity table on the consensus model, computed in
    process, ``sweep_repeats`` times."""

    def __init__(self, package, cfg):
        from stagedtree import cli

        self.package = package
        self.cli = cli
        self.cfg = cfg

    def _call(self, op, argv):
        clock = Clock()
        code = self.cli.main(argv)
        return clock.op(op, code == 0)

    def round(self, tag) -> dict:
        outdir = os.path.join(self.cfg["workdir"], f"round_{tag}")
        ops = [self._call(op, argv) for op, argv in _cli_commands(self.cfg, outdir)]
        with open(os.path.join(outdir, "bootstrap", "consensus_model.json"), encoding="utf-8") as fh:
            model = self.package.tree_from_json(fh.read())
        sweep = None
        for _ in range(self.cfg["params"]["sweep_repeats"]):
            op, sweep = sensitivity_table(self.package.inference, model, self.cfg["response"])
            ops.append(op)
        return {"tag": tag, "ops": ops, "sweep": sweep}

    def finish(self) -> list[dict]:
        """The consensus model's ALDAG, for the edge check (not timed)."""
        outdir = os.path.join(self.cfg["workdir"], "round_0")
        argv = ["aldag", "--model", os.path.join(outdir, "bootstrap", "consensus_model.json"),
                "--json", os.path.join(outdir, "aldag.json")]
        return [self._call("aldag", argv)]


def build_model(package, spec):
    import numpy as np

    schema = package.Schema(tuple(
        package.Variable(name, tuple(levels)) for name, levels in zip(spec["names"], spec["levels"])
    ))
    cpts = {name: np.asarray(table, dtype=float) for name, table in spec["cpts"].items()}
    return package.encode_bn(schema, spec["parents"], cpts)


class WhatifSession:
    """whatif_queries: one client's closed loop over a seeded query mix, then
    a full sensitivity table of the response, as ``stagedtree mi`` computes."""

    def __init__(self, package, cfg, spec, model):
        from stagedtree import inference

        # The benchmark's own module, imported after set-up is timed so that
        # numpy's import counts as part of the program's.
        from inputs import whatif_round_queries

        self.package = package
        self.inference = inference
        self.cfg = cfg
        self.spec = spec
        self.model = model
        self.queries = lambda r: whatif_round_queries(spec, cfg["seed"], r)

    def _query(self, q):
        inf = self.inference
        kind = q["kind"]
        if kind in ("hard1", "hardN"):
            return inf.condition_hard(self.model, q["hard"])
        if kind in ("soft1", "softN"):
            return inf.condition_soft(self.model, {k: tuple(v) for k, v in q["soft"].items()})
        if kind == "hard_soft":
            spec = inf.EvidenceSpec(q["hard"], {k: tuple(v) for k, v in q["soft"].items()})
            return inf.run_query(self.model, spec)
        if kind == "virtual":
            return inf.condition_virtual(self.model, q["weights"])
        return inf.mutual_information(self.model, *q["pair"])

    @staticmethod
    def _record(result):
        if isinstance(result, float):
            return {"mi": result}
        return {
            "marginals": {k: [float(x) for x in v] for k, v in result.marginals.items()},
            "evidence_probability": result.evidence_probability,
            "iterations": result.iterations,
        }

    def round(self, tag) -> dict:
        index = 0 if tag in ("ref", "alloc") else tag
        ops, results = [], []
        for q in self.queries(index):
            clock = Clock()
            try:
                result = self._query(q)
            except self.package.StagedTreeError as exc:
                ops.append(clock.op(q["kind"], False))
                results.append({"error": str(exc)})
                continue
            ops.append(clock.op(q["kind"], True))
            results.append(self._record(result))
        op, sweep = sensitivity_table(self.inference, self.model, self.spec["response"])
        ops.append(op)
        return {"tag": tag, "ops": ops, "results": results, "sweep": sweep}

    def finish(self) -> list[dict]:
        return []


def main() -> int:
    mode, config_path = sys.argv[1], sys.argv[2]
    with open(config_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    spec = None
    if cfg["workload"] == "whatif_queries":
        with open(cfg["spec"], encoding="utf-8") as fh:
            spec = json.load(fh)

    started = time.perf_counter()
    sys.path.insert(0, cfg["src"])
    import stagedtree
    import stagedtree.cli  # noqa: F401  (the CLI workloads' entry point)

    model = None
    if spec is not None:
        model = build_model(stagedtree, spec)
        stagedtree.condition_hard(model, {spec["response"]: spec["levels"][-1][0]})
    setup_s = time.perf_counter() - started

    out = {"setup_s": setup_s}
    if mode == "run":
        if spec is None:
            session = CliSession(stagedtree, cfg)
        else:
            session = WhatifSession(stagedtree, cfg, spec, model)
        out.update(run_session(stagedtree, session, cfg))
    with open(cfg["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


def run_session(package, session, cfg) -> dict:
    out = {}
    tracer = None
    if cfg["trace"]:
        out["ref"] = session.round("ref")
        from tracer import Tracer

        tracer = Tracer(package)
        tracer.install()

    rounds = []
    walls = []
    begin = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        started = time.perf_counter()
        record = session.round(len(rounds))
        walls.append(time.perf_counter() - started)
        if tracer is not None:
            record["trace"] = tracer.snapshot()
        rounds.append(record)
        elapsed = time.perf_counter() - begin
        if len(rounds) >= MIN_ROUNDS and elapsed + statistics.median(walls) > cfg["seconds"]:
            break
    out["rounds"] = rounds
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is not None:
        tracer.measure_alloc = True
        out["alloc"] = session.round("alloc")
        out["alloc_peaks"] = dict(tracer.alloc_peaks)
        tracer.uninstall()
    out["finish"] = session.finish()
    return out


if __name__ == "__main__":
    sys.exit(main())
