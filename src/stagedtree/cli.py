"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 data or model error. Diagnostics go
to stderr; results go to files or stdout. Every subcommand is a pure function
of its inputs, flags, and seed, so repeated runs produce byte-identical
outputs (timing files are opt-in via --timings for exactly this reason).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import NamedTuple

from . import aldag as aldag_mod
from . import inference
from .consensus import (
    ResamplePlan,
    _check_vote_tallies,
    _shared_draws,
    bootstrap_orders,
    consensus_order,
    context_labels_for_depth,
    run_bootstrap_consensus,
    staging_heatmap_export,
)
from .dataset import _write_csv, load_csv, schema_to_json
from .errors import StagedTreeError
from .harness import report_export, run_cv
from .inference import joint_level_iter
from .learning import LearnConfig, learn, order_search_dp, order_search_grouped
from .tree import bic, tree_from_json, tree_to_json


class _UsageError(Exception):
    """A flag combination the command does not take; exits 1 like argparse."""


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _checked(convert, accept, requirement: str):
    """An argparse type: ``convert`` the text, then require ``accept`` of the value."""

    def parse(text):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must {requirement}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid <name> value"
    return parse


_COUNT = _checked(int, lambda v: v >= 1, "be at least 1")
_FRACTION = _checked(float, lambda v: 0 < v < 1, "lie strictly between 0 and 1")
_SMOOTHING = _checked(float, lambda v: v >= 0, "be at least 0")
_SEED = _checked(int, lambda v: 0 <= v < 2**64, "lie in [0, 2**64)")
_THREADS = _checked(int, lambda v: v == 1, "be 1 (commands run in one process)")


def _add_learn_flags(parser):
    parser.add_argument("--algorithm", choices=["bhc", "kparents"], default="bhc")
    parser.add_argument("--k", type=int, default=None, help="parent budget for kparents")
    parser.add_argument("--smoothing", type=_SMOOTHING, default=0.0)


def _add_order_flags(parser):
    parser.add_argument("--order", choices=["fixed", "dp", "grouped"], default="dp")
    parser.add_argument("--order-spec", default=None, help="comma-separated variable names for --order fixed")
    parser.add_argument("--groups", default=None, help="semicolon-separated groups of comma-separated names")
    parser.add_argument("--fixed-last", default=None, help="variable pinned to the last position")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stagedtree", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_learn = sub.add_parser("learn", help="learn a staged tree and write model JSON")
    p_learn.add_argument("--input", required=True)
    p_learn.add_argument("--no-header", action="store_true")
    _add_learn_flags(p_learn)
    _add_order_flags(p_learn)
    p_learn.add_argument("--output", required=True)

    p_order = sub.add_parser("order", help="search for a variable ordering")
    p_order.add_argument("--input", required=True)
    p_order.add_argument("--no-header", action="store_true")
    _add_learn_flags(p_order)
    p_order.add_argument("--mode", choices=["dp", "grouped"], default="dp")
    p_order.add_argument("--groups", default=None)
    p_order.add_argument("--fixed-last", default=None)
    p_order.add_argument("--output", default=None, help="optional file for the ordering")

    p_boot = sub.add_parser("bootstrap", help="bootstrap consensus learning pipeline")
    p_boot.add_argument("--input", required=True)
    p_boot.add_argument("--no-header", action="store_true")
    _add_learn_flags(p_boot)
    _add_order_flags(p_boot)
    p_boot.add_argument("--replicates", type=_COUNT, default=200)
    p_boot.add_argument("--seed", type=_SEED, default=0)
    p_boot.add_argument("--cut", type=_FRACTION, default=0.5)
    p_boot.add_argument("--linkage", choices=["average", "complete", "single"], default="average")
    p_boot.add_argument("--threads", type=_THREADS, default=1)
    p_boot.add_argument("--random-ties", type=_SEED, default=None,
                        help="break order-vote ties randomly with this seed instead of by index")
    p_boot.add_argument("--outdir", required=True)

    p_cv = sub.add_parser("cv", help="k-fold cross-validation with within-fold bootstrap")
    p_cv.add_argument("--input", required=True)
    p_cv.add_argument("--no-header", action="store_true")
    p_cv.add_argument("--algorithms", default="bhc", help="e.g. bhc,kparents:4")
    p_cv.add_argument("--folds", type=int, default=10)
    p_cv.add_argument("--replicates", type=_COUNT, default=200)
    p_cv.add_argument("--cut", type=_FRACTION, default=0.5)
    p_cv.add_argument("--linkage", choices=["average", "complete", "single"], default="average")
    p_cv.add_argument("--smoothing", type=_SMOOTHING, default=0.0)
    p_cv.add_argument("--predictive-smoothing", type=_SMOOTHING, default=1.0)
    p_cv.add_argument("--seed", type=_SEED, default=0)
    p_cv.add_argument("--threads", type=_THREADS, default=1)
    p_cv.add_argument("--fixed-last", default=None)
    p_cv.add_argument("--order-spec", default=None)
    p_cv.add_argument("--reorder-per-fold", action="store_true")
    p_cv.add_argument("--timings", action="store_true",
                      help="also write wall-clock times (non-reproducible bytes)")
    p_cv.add_argument("--outdir", required=True)

    p_aldag = sub.add_parser("aldag", help="compress a model into its labeled DAG")
    p_aldag.add_argument("--model", required=True)
    p_aldag.add_argument("--dot", default=None)
    p_aldag.add_argument("--json", default=None)
    p_aldag.add_argument("--subtree", default=None, help="variable whose dependence subtree to render")
    p_aldag.add_argument("--subtree-dot", default=None)

    p_whatif = sub.add_parser("whatif", help="hard/soft evidence queries")
    p_whatif.add_argument("--model", required=True)
    p_whatif.add_argument("--evidence", action="append", default=[], metavar="VAR=LEVEL")
    p_whatif.add_argument("--soft", action="append", default=[], metavar="VAR=P1,P2,...")
    p_whatif.add_argument("--target", default=None, help="restrict the posterior CSV to one variable")
    p_whatif.add_argument("--virtual", action="store_true",
                          help="treat soft findings as likelihood weights instead of fixed marginals")
    p_whatif.add_argument("--tol", type=_FRACTION, default=None,
                          help="soft-update tolerance (default 1e-9); needs --soft")
    p_whatif.add_argument("--max-iter", type=_COUNT, default=None,
                          help="soft-update cycle limit (default 1000); needs --soft")
    p_whatif.add_argument("--output", required=True, help="posterior CSV path")
    p_whatif.add_argument("--dot", default=None, help="annotated DAG with evidence nodes in gray")

    p_mi = sub.add_parser("mi", help="sensitivity table: what-if deltas and mutual information")
    p_mi.add_argument("--model", required=True)
    p_mi.add_argument("--target", required=True)
    p_mi.add_argument("--output", required=True)

    p_export = sub.add_parser("export", help="export model artifacts")
    p_export.add_argument("--model", required=True)
    p_export.add_argument(
        "--what",
        required=True,
        choices=["tree-dot", "aldag-dot", "aldag-json", "schema-json", "joint-csv"],
    )
    p_export.add_argument("--output", required=True)

    return parser


def _load_dataset(args):
    return load_csv(args.input, has_header=not args.no_header)


def _learn_config(args) -> LearnConfig:
    return LearnConfig(algorithm=args.algorithm, k=args.k, smoothing=args.smoothing)


# The order flags each ordering mode takes; fixed and grouped need theirs.
_MODE_FLAGS = {
    "fixed": ("--order-spec",),
    "grouped": ("--groups",),
    "dp": ("--fixed-last", "--random-ties", "--reorder-per-fold"),
}


class _OrderFlags(NamedTuple):
    mode: str
    order: tuple[int, ...] | None
    groups: list[tuple[int, ...]] | None
    fixed_last: int | None
    tie_seed: int | None


def _order_mode(args) -> str:
    """Check the order flags of learn, order, bootstrap and cv; return the mode.

    Runs before the input is read, so a usage error never waits for ingest.
    The mode is --order (--mode on order; on cv it is fixed when --order-spec
    is given and dp otherwise). fixed needs --order-spec and grouped needs
    --groups; only dp takes --fixed-last, --random-ties (bootstrap) and
    --reorder-per-fold (cv). Any other flag is a usage error that names it,
    as is bootstrap in grouped mode, for which no order votes exist.
    """

    def given(flag):
        value = getattr(args, flag[2:].replace("-", "_"), None)
        return value is not None and value is not False

    if args.command == "order":
        mode = args.mode
    elif args.command == "cv":
        mode = "fixed" if given("--order-spec") else "dp"
    else:
        mode = args.order
    if args.command == "bootstrap" and mode == "grouped":
        raise _UsageError("bootstrap takes no --order grouped or --groups: no grouped order votes exist")
    for flag in sum(_MODE_FLAGS.values(), ()):
        if given(flag) and flag not in _MODE_FLAGS[mode]:
            raise _UsageError(f"{flag} does not apply to {mode} ordering")
    if mode != "dp" and not given(_MODE_FLAGS[mode][0]):
        raise _UsageError(f"{mode} ordering needs {_MODE_FLAGS[mode][0]}")
    return mode


def _order_flags(args, mode: str, schema) -> _OrderFlags:
    """Resolve the names in the order flags of a mode checked by _order_mode."""

    def names(text):
        return [n.strip() for n in text.split(",") if n.strip()]

    order = groups = fixed_last = None
    if mode == "fixed":
        order = tuple(schema.index(n) for n in names(args.order_spec))
    elif mode == "grouped":
        groups = [tuple(schema.index(n) for n in names(chunk)) for chunk in args.groups.split(";")]
    elif args.fixed_last is not None:
        fixed_last = schema.index(args.fixed_last)
    return _OrderFlags(mode, order, groups, fixed_last, getattr(args, "random_ties", None))


def _search_order(d, cfg, flags: _OrderFlags):
    """The ordering and its score for learn and order; fixed orders carry no score."""
    if flags.mode == "fixed":
        return flags.order, None
    if flags.mode == "grouped":
        return order_search_grouped(d, flags.groups, cfg)
    return order_search_dp(d, cfg, fixed_last=flags.fixed_last)


def _cmd_learn(args) -> int:
    _refuse_empty(args, "--output")
    mode = _order_mode(args)
    cfg = _learn_config(args)
    d = _load_dataset(args)
    order, _ = _search_order(d, cfg, _order_flags(args, mode, d.schema))
    tree = learn(d, order, cfg)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(tree_to_json(tree))
        fh.write("\n")
    names = [d.schema.names[v] for v in order]
    print(f"order: {', '.join(names)}", file=sys.stderr)
    print(f"bic: {bic(tree, d)!r}", file=sys.stderr)
    print(f"model written to {args.output}", file=sys.stderr)
    return 0


def _cmd_order(args) -> int:
    _refuse_empty(args, "--output")
    mode = _order_mode(args)
    cfg = _learn_config(args)
    d = _load_dataset(args)
    order, score = _search_order(d, cfg, _order_flags(args, mode, d.schema))
    line = ",".join(d.schema.names[v] for v in order)
    print(line)
    print(f"score: {score!r}", file=sys.stderr)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(line + "\n")
    return 0


def _cmd_bootstrap(args) -> int:
    _refuse_empty(args, "--outdir")
    mode = _order_mode(args)
    cfg = _learn_config(args)
    d = _load_dataset(args)
    flags = _order_flags(args, mode, d.schema)
    plan = ResamplePlan(args.replicates, args.seed)
    if flags.mode != "fixed":
        _check_vote_tallies(d.schema, flags.fixed_last)
    os.makedirs(args.outdir, exist_ok=True)

    # The order votes and the stagings read one draw and tally of each replicate.
    with _shared_draws(d, plan):
        if flags.mode == "fixed":
            order = flags.order
        else:
            votes = bootstrap_orders(d, plan, cfg, fixed_last=flags.fixed_last)
            decision = consensus_order(votes, tie_seed=flags.tie_seed)
            order = decision.order
            if decision.cyclic:
                print("warning: pairwise order votes are cyclic; Copeland order used", file=sys.stderr)
            names = d.schema.names
            _write_csv(
                os.path.join(args.outdir, "votes.csv"),
                ["variable"] + list(names),
                ([name] + row.tolist() for name, row in zip(names, votes.frequencies)),
            )

        result = run_bootstrap_consensus(d, order, plan, cfg, cut=args.cut, linkage=args.linkage)
    with open(os.path.join(args.outdir, "consensus_model.json"), "w", encoding="utf-8") as fh:
        fh.write(tree_to_json(result.averaged))
        fh.write("\n")
    for depth in range(1, len(order)):
        labels = context_labels_for_depth(d.schema, order, depth)
        staging_heatmap_export(
            result.ensemble.dissimilarity[depth],
            labels,
            os.path.join(args.outdir, f"dissimilarity_depth_{depth}.csv"),
        )
    _write_csv(
        os.path.join(args.outdir, "edge_strength.csv"),
        ["parent", "child", "strength"] + [f"freq_{label}" for label in aldag_mod.LABELS],
        (
            [row.parent, row.child, row.strength] + [row.label_fraction(label) for label in aldag_mod.LABELS]
            for row in result.edge_table
        ),
    )
    with open(os.path.join(args.outdir, "order.txt"), "w", encoding="utf-8") as fh:
        fh.write(",".join(d.schema.names[v] for v in order) + "\n")
    print(f"consensus results written to {args.outdir}", file=sys.stderr)
    return 0


def _parse_algorithms(text) -> list[LearnConfig]:
    configs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if chunk == "bhc":
            configs.append(LearnConfig("bhc"))
        elif chunk.startswith("kparents:"):
            try:
                k = int(chunk.split(":", 1)[1])
            except ValueError:
                raise StagedTreeError(f"kparents needs an integer parent budget, got {chunk!r}") from None
            configs.append(LearnConfig("kparents", k=k))
        else:
            raise StagedTreeError(f"unknown algorithm spec {chunk!r}")
        if configs[-1].label() in [cfg.label() for cfg in configs[:-1]]:
            raise _UsageError(f"--algorithms gives {configs[-1].label()} more than once")
    if not configs:
        raise StagedTreeError("no algorithms given")
    return configs


def _cmd_cv(args) -> int:
    _refuse_empty(args, "--outdir")
    mode = _order_mode(args)
    algorithms = [
        LearnConfig(c.algorithm, k=c.k, smoothing=args.smoothing) for c in _parse_algorithms(args.algorithms)
    ]
    d = _load_dataset(args)
    flags = _order_flags(args, mode, d.schema)
    report = run_cv(
        d,
        algorithms,
        folds=args.folds,
        bootstrap_replicates=args.replicates,
        cut=args.cut,
        seed=args.seed,
        order=flags.order,
        fixed_last=flags.fixed_last,
        predictive_smoothing=args.predictive_smoothing,
        linkage=args.linkage,
        reorder_per_fold=args.reorder_per_fold,
    )
    os.makedirs(args.outdir, exist_ok=True)
    report_export(
        report,
        os.path.join(args.outdir, "cv_records.csv"),
        os.path.join(args.outdir, "cv_summary.csv"),
    )
    if args.timings:
        _write_csv(
            os.path.join(args.outdir, "cv_timings.csv"),
            ["fold", "algorithm", "wall_time"],
            ([r.fold, r.algorithm, r.wall_time] for r in report.records),
        )
    print(f"cross-validation results written to {args.outdir}", file=sys.stderr)
    return 0


def _load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        return tree_from_json(fh.read())


def _refuse_empty(args, *flags) -> None:
    """Refuse an empty value of any of ``flags``, which name files or a
    variable, rather than ignore it."""
    for flag in flags:
        if getattr(args, flag[2:].replace("-", "_")) == "":
            raise _UsageError(f"{flag} needs a non-empty value")


def _cmd_aldag(args) -> int:
    _refuse_empty(args, "--dot", "--json")
    if (args.subtree is None) != (args.subtree_dot is None):
        given, missing = ("--subtree-dot", "--subtree") if args.subtree is None else ("--subtree", "--subtree-dot")
        raise _UsageError(f"{given} needs {missing}")
    tree = _load_model(args.model)
    graph = aldag_mod.compress(tree)
    if args.dot is not None:
        aldag_mod.to_dot(graph, args.dot)
        print(f"DOT written to {args.dot}", file=sys.stderr)
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(aldag_mod.aldag_to_json(graph))
            fh.write("\n")
        print(f"JSON written to {args.json}", file=sys.stderr)
    if args.subtree is not None:
        child = tree.schema.index(args.subtree)
        sub = aldag_mod.dependence_subtree(tree, graph, child)
        aldag_mod.to_dot(sub, args.subtree_dot)
        print(f"dependence subtree written to {args.subtree_dot}", file=sys.stderr)
    if args.dot is None and args.json is None and args.subtree is None:
        for e in sorted(graph.edges, key=lambda e: (e.parent, e.child)):
            names = tree.schema.names
            print(f"{names[e.parent]} -> {names[e.child]} [{e.label}]")
    return 0


def _split_finding(pair, found, flag: str, form: str):
    """The variable and the text after '=' of one finding of ``flag``. A
    finding not of ``form`` is a data error; a variable already ``found`` is
    a usage error, not a finding that silently replaces the first."""
    if "=" not in pair:
        raise StagedTreeError(f"{form}, got {pair!r}")
    var, text = pair.split("=", 1)
    var = var.strip()
    if var in found:
        raise _UsageError(f"{flag} gives {var!r} more than once")
    return var, text


def _parse_evidence(pairs):
    out = {}
    for pair in pairs:
        var, level = _split_finding(pair, out, "--evidence", "evidence must look like VAR=LEVEL")
        out[var] = level.strip()
    return out


def _parse_soft(pairs):
    out = {}
    for pair in pairs:
        var, values = _split_finding(pair, out, "--soft", "soft evidence must look like VAR=P1,P2,...")
        try:
            out[var] = tuple(float(x) for x in values.split(","))
        except ValueError:
            raise StagedTreeError(f"soft evidence probabilities must be numbers, got {pair!r}") from None
    return out


def _cmd_whatif(args) -> int:
    _refuse_empty(args, "--output", "--target", "--dot")
    if not (args.evidence or args.soft):
        raise _UsageError("whatif needs --evidence or --soft")
    ipf = {key: value for key, value in (("tol", args.tol), ("max_iter", args.max_iter)) if value is not None}
    for key in ipf:
        flag = "--" + key.replace("_", "-")
        if args.virtual:
            raise _UsageError(f"{flag} does not apply to --virtual")
        if not args.soft:
            raise _UsageError(f"{flag} applies only with --soft")
    spec = inference.EvidenceSpec(_parse_evidence(args.evidence), _parse_soft(args.soft))
    tree = _load_model(args.model)
    if args.virtual:
        result = inference.condition_virtual(tree, spec.soft, spec.hard)
    else:
        result = inference.run_query(tree, spec, **ipf)
    names = [args.target] if args.target is not None else list(tree.schema.names)
    posterior = []
    for name in names:
        var = tree.schema.index(name)
        probs = result.marginals[tree.schema.names[var]].tolist()
        posterior += ([name, level, prob] for level, prob in zip(tree.schema.variables[var].levels, probs))
    _write_csv(args.output, ["variable", "level", "probability"], posterior)
    if result.evidence_probability is not None:
        print(f"evidence probability: {result.evidence_probability!r}", file=sys.stderr)
    if result.iterations is not None:
        print(
            f"soft update converged in {result.iterations} cycles "
            f"(deviation {result.max_deviation!r})",
            file=sys.stderr,
        )
    if args.dot is not None:
        graph = aldag_mod.compress(tree)
        evidence_vars = set(spec.hard) | set(spec.soft)
        annotations = {}
        for name in tree.schema.names:
            vec = result.marginals[name]
            levels = tree.schema.variables[tree.schema.index(name)].levels
            annotations[name] = "\\n".join(
                f"{levels[i]}: {float(vec[i]):.3f}" for i in range(len(levels))
            )
        aldag_mod.to_dot(graph, args.dot, highlight=evidence_vars, annotations=annotations)
        print(f"annotated DAG written to {args.dot}", file=sys.stderr)
    return 0


def _cmd_mi(args) -> int:
    _refuse_empty(args, "--output")
    tree = _load_model(args.model)
    rows = inference.whatif_sweep(tree, args.target)
    _write_csv(
        args.output,
        ["predictor", "target_level", "max_change", "direction", "mutual_information"],
        ([r.predictor, r.target_level, r.max_change, r.direction, r.mutual_information] for r in rows),
    )
    print(f"sensitivity table written to {args.output}", file=sys.stderr)
    return 0


def _cmd_export(args) -> int:
    _refuse_empty(args, "--output")
    tree = _load_model(args.model)
    if args.what == "tree-dot":
        aldag_mod.to_dot(tree, args.output)
    elif args.what == "aldag-dot":
        aldag_mod.to_dot(aldag_mod.compress(tree), args.output)
    elif args.what == "aldag-json":
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(aldag_mod.aldag_to_json(aldag_mod.compress(tree)))
            fh.write("\n")
    elif args.what == "schema-json":
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(schema_to_json(tree.schema))
            fh.write("\n")
    elif args.what == "joint-csv":
        _write_csv(
            args.output,
            list(tree.schema.names) + ["probability"],
            (list(labels) + [prob] for labels, prob in joint_level_iter(tree)),
        )
    print(f"{args.what} written to {args.output}", file=sys.stderr)
    return 0


_COMMANDS = {
    "learn": _cmd_learn,
    "order": _cmd_order,
    "bootstrap": _cmd_bootstrap,
    "cv": _cmd_cv,
    "aldag": _cmd_aldag,
    "whatif": _cmd_whatif,
    "mi": _cmd_mi,
    "export": _cmd_export,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"{parser.prog} {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except (StagedTreeError, OSError) as exc:
        print(f"error: {exc}", *getattr(exc, "__notes__", ()), sep="\n", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
