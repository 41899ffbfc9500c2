import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from stagedtree.cli import _build_parser, main
from stagedtree import (
    LearnConfig,
    ResamplePlan,
    bootstrap_orders,
    consensus,
    consensus_order,
    harness,
    inference,
    load_csv,
    run_bootstrap_consensus,
    tree_from_json,
    tree_to_json,
)

from conftest import fail_replicate, reference_tree


@pytest.fixture
def toy_csv(tmp_path):
    rng = np.random.default_rng(0)
    n = 300
    x1 = rng.integers(0, 2, n)
    x2 = np.where(rng.random(n) < 0.8, x1, 1 - x1)
    x3 = np.where(rng.random(n) < 0.75, x2, 1 - x2)
    path = tmp_path / "toy.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["A", "B", "C"])
        for row in zip(x1, x2, x3):
            writer.writerow(["hi" if v else "lo" for v in row])
    return str(path)


@pytest.fixture
def model_json(toy_csv, tmp_path):
    out = tmp_path / "model.json"
    assert main(["learn", "--input", toy_csv, "--output", str(out)]) == 0
    return str(out)


def test_import_leaves_scipy_unloaded():
    # The package needs no scipy; no command should pay for its import.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    code = "import sys, stagedtree, stagedtree.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    ran = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert ran.returncode == 0, ran.stderr
    assert ran.stdout.strip() == "[]"
    # Every command runs in one process; the import loads no process machinery.
    code = (
        "import sys, stagedtree, stagedtree.cli; "
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing', 'socket', 'subprocess') "
        "if m in sys.modules))"
    )
    ran = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert ran.returncode == 0, ran.stderr
    assert ran.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["bootstrap", "cv"])
def test_commands_run_without_scipy(toy_csv, tmp_path, command):
    # Consensus clustering is in the package: with scipy unimportable the
    # commands write what they write with it.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    code = "import sys; sys.modules['scipy'] = None; from stagedtree.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = [command, "--input", toy_csv, "--replicates", "4", "--seed", "5"]
    ran = subprocess.run(
        [sys.executable, "-c", code, *argv, "--outdir", str(tmp_path / "blocked")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert ran.returncode == 0, ran.stderr
    assert main(argv + ["--outdir", str(tmp_path / "here")]) == 0
    names = sorted(os.listdir(tmp_path / "here"))
    assert names == sorted(os.listdir(tmp_path / "blocked"))
    for name in names:
        assert (tmp_path / "blocked" / name).read_bytes() == (tmp_path / "here" / name).read_bytes(), name


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_subcommand_help_exits_zero(self, capsys):
        for cmd in ["learn", "order", "bootstrap", "cv", "aldag", "whatif", "mi", "export"]:
            assert main([cmd, "--help"]) == 0
            out = capsys.readouterr().out
            assert "usage" in out

    def test_unknown_flag_exits_one(self, capsys):
        assert main(["learn", "--nonsense"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command_exits_one(self):
        assert main(["frobnicate"]) == 1

    def test_missing_file_exits_two(self, tmp_path):
        out = tmp_path / "m.json"
        code = main(["learn", "--input", str(tmp_path / "absent.csv"), "--output", str(out)])
        assert code == 2

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["learn", "--order", "fixed", "--output", "m.json"], "--order-spec"),
            (["order", "--mode", "grouped"], "--groups"),
            (["bootstrap", "--order", "fixed", "--outdir", "out"], "--order-spec"),
            (["cv", "--order-spec", "A,B,C", "--fixed-last", "A", "--outdir", "out"], "--fixed-last"),
            # A repeated algorithm would write every record twice.
            (["cv", "--algorithms", "bhc,kparents:2,bhc", "--outdir", "out"], "--algorithms"),
            (["cv", "--algorithms", "kparents:2,kparents:02", "--outdir", "out"], "--algorithms"),
        ],
    )
    def test_usage_error_wins_over_missing_input(self, tmp_path, capsys, argv, flag):
        code = main(argv[:1] + ["--input", str(tmp_path / "nosuch.csv")] + argv[1:])
        err = capsys.readouterr().err
        assert code == 1
        assert flag in err and "nosuch.csv" not in err

    def test_failing_replicate_named(self, toy_csv, tmp_path, capsys, monkeypatch):
        note = fail_replicate(monkeypatch, ResamplePlan(4, 3), 2)
        argv = ["bootstrap", "--input", toy_csv, "--replicates", "4", "--seed", "3",
                "--threads", "1", "--outdir", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "injected failure" in err and note in err

    @pytest.mark.parametrize("command", ["bootstrap", "cv"])
    @pytest.mark.parametrize("cut", ["1.5", "0", "1", "-0.2", "nan"])
    def test_bad_cut_rejected_before_ingest(self, toy_csv, tmp_path, capsys, command, cut):
        outdir = tmp_path / "out"
        argv = [command, "--input", toy_csv, "--replicates", "3", "--cut", cut, "--outdir", str(outdir)]
        assert main(argv) == 1
        assert "--cut" in capsys.readouterr().err
        assert not outdir.exists()
        argv[2] = str(tmp_path / "nosuch.csv")
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "--cut" in err and "nosuch.csv" not in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["learn", "--output", "m.json"], "--smoothing"),
            (["order"], "--smoothing"),
            (["bootstrap", "--outdir", "out"], "--smoothing"),
            (["cv", "--outdir", "out"], "--smoothing"),
            (["cv", "--outdir", "out"], "--predictive-smoothing"),
        ],
    )
    @pytest.mark.parametrize("value", ["-0.5", "nan"])
    def test_bad_smoothing_rejected_before_ingest(self, tmp_path, capsys, argv, flag, value):
        argv = argv[:1] + ["--input", str(tmp_path / "nosuch.csv"), flag, value] + argv[1:]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert flag in err and "nosuch.csv" not in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["bootstrap", "--outdir", "out"], "--seed"),
            (["cv", "--outdir", "out"], "--seed"),
            (["bootstrap", "--outdir", "out"], "--random-ties"),
        ],
    )
    @pytest.mark.parametrize("value", ["-1", str(2**64), "x"])
    def test_bad_seed_rejected_before_ingest(self, toy_csv, tmp_path, capsys, argv, flag, value):
        outdir = tmp_path / "out"
        argv = argv[:1] + ["--input", toy_csv, "--replicates", "2", flag, value] + argv[1:-1] + [str(outdir)]
        assert main(argv) == 1
        assert flag in capsys.readouterr().err
        assert not outdir.exists()
        argv[2] = str(tmp_path / "nosuch.csv")
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert flag in err and "nosuch.csv" not in err

    def test_largest_seed_accepted(self, toy_csv, tmp_path):
        top = str(2**64 - 1)
        argv = ["bootstrap", "--input", toy_csv, "--replicates", "2", "--seed", top,
                "--random-ties", top, "--outdir", str(tmp_path / "boot")]
        assert main(argv) == 0
        argv = ["cv", "--input", toy_csv, "--folds", "2", "--replicates", "2", "--seed", top,
                "--outdir", str(tmp_path / "cv")]
        assert main(argv) == 0

    def test_byte_order_mark_file_learns(self, tmp_path, capsys):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b\n" + b"".join(b"x,y\nz,w\nx,w\n" for _ in range(5)))
        out = tmp_path / "m.json"
        assert main(["learn", "--input", str(path), "--fixed-last", "a", "--output", str(out)]) == 0
        assert "order: b, a" in capsys.readouterr().err
        assert out.exists()

    @pytest.mark.parametrize(
        "header, message",
        [
            ("a,,b", "column 2 of the header has an empty variable name"),
            ("a,b,a", "column 3 repeats the variable name 'a' of column 1"),
        ],
    )
    def test_bad_header_refused(self, tmp_path, capsys, header, message):
        path = tmp_path / "bad.csv"
        path.write_text(header + "\n" + "x,y,z\nz,w,x\n", encoding="utf-8")
        out = tmp_path / "m.json"
        assert main(["learn", "--input", str(path), "--output", str(out)]) == 2
        assert f"{path}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_learn_takes_no_seed(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["learn", "--input", toy_csv, "--seed", "1", "--output", str(out)]) == 1
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_cv_bad_fold_count_named(self, toy_csv, tmp_path, capsys):
        argv = ["cv", "--input", toy_csv, "--folds", "1", "--replicates", "2", "--outdir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "error: folds must lie between 2 and the row count N=300, got 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bootstrap", "cv"])
    @pytest.mark.parametrize("threads", ["0", "-3", "two", "2"])
    def test_bad_threads_exit_one(self, tmp_path, capsys, command, threads):
        argv = [command, "--input", str(tmp_path / "nosuch.csv"), "--threads", threads,
                "--outdir", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "--threads" in err and "nosuch.csv" not in err
        if threads != "two":
            assert f"argument --threads: must be 1 (commands run in one process), got {threads}" in err

    @pytest.mark.parametrize("command", ["bootstrap", "cv"])
    @pytest.mark.parametrize("replicates", ["0", "-1", "x"])
    def test_bad_replicates_rejected_before_ingest(self, tmp_path, capsys, command, replicates):
        argv = [command, "--input", str(tmp_path / "nosuch.csv"), "--replicates", replicates,
                "--outdir", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "--replicates" in err and "nosuch.csv" not in err

    @pytest.mark.parametrize("command", ["learn", "order", "bootstrap"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--algorithm", "kparents"], "kparents requires k >= 1"),
            (["--algorithm", "kparents", "--k", "0"], "kparents requires k >= 1"),
            (["--k", "3"], "k applies only to kparents, not to bhc"),
        ],
    )
    def test_bad_parent_budget_rejected_before_ingest(self, tmp_path, capsys, command, flags, message):
        argv = [command, "--input", str(tmp_path / "nosuch.csv")] + flags
        argv += {"learn": ["--output", str(tmp_path / "m.json")], "order": [],
                 "bootstrap": ["--outdir", str(tmp_path / "out")]}[command]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "extra, flag",
        [
            (["--soft", "B=0.5,0.5", "--tol", "inf"], "--tol"),
            (["--soft", "B=0.5,0.5", "--tol", "5"], "--tol"),
            (["--soft", "B=0.5,0.5", "--tol", "1"], "--tol"),
            (["--soft", "B=0.5,0.5", "--tol", "0"], "--tol"),
            (["--soft", "B=0.5,0.5", "--tol", "-1"], "--tol"),
            (["--soft", "B=0.5,0.5", "--tol", "nan"], "--tol"),
            (["--soft", "B=0.5,0.5", "--max-iter", "0"], "--max-iter"),
            (["--soft", "B=0.5,0.5", "--max-iter", "-2"], "--max-iter"),
            (["--soft", "B=0.5,0.5", "--max-iter", "2.5"], "--max-iter"),
            (["--soft", "B=0.5,0.5", "--virtual", "--tol", "1e-6"], "--tol"),
            (["--soft", "B=0.5,0.5", "--virtual", "--max-iter", "5"], "--max-iter"),
            (["--evidence", "A=lo", "--tol", "1e-6"], "--tol"),
            (["--evidence", "A=lo", "--max-iter", "5"], "--max-iter"),
        ],
    )
    def test_bad_whatif_update_flags_rejected_before_the_model_is_read(self, tmp_path, capsys, extra, flag):
        out = tmp_path / "post.csv"
        argv = ["whatif", "--model", str(tmp_path / "nosuch.json")] + extra + ["--output", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert flag in err and "nosuch.json" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["bootstrap", "cv"])
    def test_threads_default_to_one(self, monkeypatch, command):
        monkeypatch.setenv("STAGEDTREE_THREADS", "4")
        args = _build_parser().parse_args([command, "--input", "x.csv", "--outdir", "out"])
        assert args.threads == 1

    def test_malformed_parent_budget_exits_two(self, toy_csv, tmp_path, capsys):
        outdir = tmp_path / "cv"
        argv = ["cv", "--input", toy_csv, "--algorithms", "bhc,kparents:x", "--outdir", str(outdir)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "kparents:x" in err
        assert not outdir.exists()

    def test_malformed_soft_probability_exits_two(self, model_json, tmp_path, capsys):
        out = tmp_path / "post.csv"
        argv = ["whatif", "--model", model_json, "--soft", "B=0.5,x", "--output", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "B=0.5,x" in err
        assert not out.exists()

    def test_bad_data_exits_two(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\nx,\n", encoding="utf-8")
        assert main(["learn", "--input", str(bad), "--output", str(tmp_path / "m.json")]) == 2


class TestLearn:
    def test_writes_loadable_model(self, model_json):
        with open(model_json) as fh:
            tree = tree_from_json(fh.read())
        assert tree.probs is not None
        assert tree.schema.names == ("A", "B", "C")

    def test_fixed_order_respected(self, toy_csv, tmp_path):
        out = tmp_path / "m.json"
        code = main(
            ["learn", "--input", toy_csv, "--order", "fixed", "--order-spec", "C,B,A",
             "--output", str(out)]
        )
        assert code == 0
        with open(out) as fh:
            tree = tree_from_json(fh.read())
        assert [tree.schema.names[v] for v in tree.order] == ["C", "B", "A"]

    def test_kparents_algorithm(self, toy_csv, tmp_path):
        out = tmp_path / "m.json"
        code = main(
            ["learn", "--input", toy_csv, "--algorithm", "kparents", "--k", "1",
             "--output", str(out)]
        )
        assert code == 0

    def test_byte_identical_reruns(self, toy_csv, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["learn", "--input", toy_csv, "--output", str(a)])
        main(["learn", "--input", toy_csv, "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestOrder:
    def test_prints_order(self, toy_csv, capsys):
        assert main(["order", "--input", toy_csv]) == 0
        line = capsys.readouterr().out.strip()
        assert sorted(line.split(",")) == ["A", "B", "C"]

    def test_fixed_last(self, toy_csv, capsys):
        assert main(["order", "--input", toy_csv, "--fixed-last", "A"]) == 0
        assert capsys.readouterr().out.strip().endswith("A")

    def test_grouped_mode(self, toy_csv, capsys):
        code = main(["order", "--input", toy_csv, "--mode", "grouped", "--groups", "A,B;C"])
        assert code == 0

    def test_empty_group_exits_two(self, toy_csv, capsys):
        code = main(["order", "--input", toy_csv, "--mode", "grouped", "--groups", "A,B;C;"])
        assert code == 2
        assert "partition" in capsys.readouterr().err


class TestBootstrap:
    def test_outputs(self, toy_csv, tmp_path):
        outdir = tmp_path / "boot"
        code = main(
            ["bootstrap", "--input", toy_csv, "--replicates", "8", "--seed", "3",
             "--outdir", str(outdir)]
        )
        assert code == 0
        assert (outdir / "votes.csv").exists()
        assert (outdir / "consensus_model.json").exists()
        assert (outdir / "edge_strength.csv").exists()
        assert (outdir / "order.txt").exists()
        assert (outdir / "dissimilarity_depth_1.csv").exists()
        assert (outdir / "dissimilarity_depth_2.csv").exists()

        with open(outdir / "votes.csv") as fh:
            rows = list(csv.reader(fh))
        names = rows[0][1:]
        freq = np.array([[float(c) for c in row[1:]] for row in rows[1:]])
        off = ~np.eye(len(names), dtype=bool)
        assert np.allclose((freq + freq.T)[off], 1.0)

    def test_fixed_order_skips_votes(self, toy_csv, tmp_path):
        outdir = tmp_path / "boot2"
        code = main(
            ["bootstrap", "--input", toy_csv, "--replicates", "4", "--order", "fixed",
             "--order-spec", "A,B,C", "--outdir", str(outdir)]
        )
        assert code == 0
        assert not (outdir / "votes.csv").exists()
        assert (outdir / "order.txt").read_text().strip() == "A,B,C"

    @pytest.mark.parametrize(
        "flags, cfg, fixed_last, order",
        [
            ([], LearnConfig(), None, None),
            (["--fixed-last", "A"], LearnConfig(), 0, None),
            (["--algorithm", "kparents", "--k", "1"], LearnConfig("kparents", k=1), None, None),
            (["--order", "fixed", "--order-spec", "B,A,C"], LearnConfig(), None, (1, 0, 2)),
        ],
        ids=["unpinned", "pinned", "kparents", "fixed"],
    )
    def test_each_replicate_drawn_once(self, toy_csv, tmp_path, monkeypatch, flags, cfg, fixed_last, order):
        # The order votes and the stagings read one draw and tally of each
        # replicate, and write what the public functions give when each
        # draws its own.
        plan = ResamplePlan(5, seed=2)
        drawn = []
        real = consensus._bootstrap_rows
        monkeypatch.setattr(consensus, "_bootstrap_rows", lambda n, seed: drawn.append(seed) or real(n, seed))
        outdir = tmp_path / "boot"
        assert main(["bootstrap", "--input", toy_csv, "--replicates", "5", "--seed", "2", *flags, "--outdir", str(outdir)]) == 0
        assert drawn == [plan.replicate_seed(i) for i in range(plan.replicates)]

        d = load_csv(toy_csv)
        if order is None:
            votes = bootstrap_orders(d, plan, cfg, fixed_last=fixed_last)
            order = consensus_order(votes).order
            with open(outdir / "votes.csv") as fh:
                rows = list(csv.reader(fh))
            assert [[float(v) for v in row[1:]] for row in rows[1:]] == votes.frequencies.tolist()
        result = run_bootstrap_consensus(d, order, plan, cfg)
        assert (outdir / "consensus_model.json").read_text() == tree_to_json(result.averaged) + "\n"

    def test_reruns_byte_identical(self, toy_csv, tmp_path):
        dirs = []
        for name in ("b1", "b2"):
            outdir = tmp_path / name
            main(
                ["bootstrap", "--input", toy_csv, "--replicates", "5", "--seed", "4",
                 "--order", "fixed", "--order-spec", "A,B,C", "--outdir", str(outdir)]
            )
            dirs.append(outdir)
        for fname in ("consensus_model.json", "edge_strength.csv", "dissimilarity_depth_1.csv"):
            assert (dirs[0] / fname).read_bytes() == (dirs[1] / fname).read_bytes()


@pytest.fixture
def many_levels_csv(tmp_path):
    """Columns A and B of 50 levels, X and Y of 2."""
    rng = np.random.default_rng(3)
    path = tmp_path / "many.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["A", "B", "X", "Y"])
        for i in range(200):
            writer.writerow([f"a{i % 50}", f"b{i * 7 % 50}", *(f"v{v}" for v in rng.integers(0, 2, 2))])
    return str(path)


class TestCoStagingGuardBeforeAnyDraw:
    """Columns of 50, 50, 2 and 2 levels with Y pinned last leave 5000
    contexts at the deepest depth, whatever the votes decide; the command
    refuses before it draws a replicate, searches an order or writes a file."""

    @pytest.fixture(autouse=True)
    def refuse_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work ran before the guard")

        monkeypatch.setattr(consensus, "_bootstrap_rows", refuse)
        monkeypatch.setattr(harness, "order_search_dp", refuse)

    @pytest.mark.parametrize(
        "argv",
        [
            ["bootstrap", "--fixed-last", "Y", "--replicates", "20"],
            ["cv", "--fixed-last", "Y", "--folds", "2", "--replicates", "2"],
            ["cv", "--fixed-last", "Y", "--folds", "2", "--replicates", "2", "--reorder-per-fold"],
        ],
    )
    def test_pinned_last(self, many_levels_csv, tmp_path, capsys, argv):
        outdir = tmp_path / "out"
        assert main([*argv, "--input", many_levels_csv, "--outdir", str(outdir)]) == 2
        assert "co-staging tally of depth 3 with 5000 contexts" in capsys.readouterr().err
        assert not outdir.exists()

    def test_unpinned_best_case(self, tmp_path, capsys):
        # Three 50-level columns and one of 2: even with a 50-level column
        # last, the deepest depth has 50 x 50 x 2 contexts.
        path = tmp_path / "wider.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["A", "B", "C", "Y"])
            for i in range(100):
                writer.writerow([f"a{i % 50}", f"b{i * 7 % 50}", f"c{i * 3 % 50}", f"y{i % 2}"])
        for command in (["bootstrap"], ["cv", "--folds", "2"]):
            outdir = tmp_path / command[0]
            assert main([*command, "--input", str(path), "--replicates", "2", "--outdir", str(outdir)]) == 2
            assert "co-staging tally of depth 3 with 5000 contexts" in capsys.readouterr().err
            assert not outdir.exists()


class TestCv:
    def test_outputs_and_timings_flag(self, toy_csv, tmp_path):
        outdir = tmp_path / "cv"
        code = main(
            ["cv", "--input", toy_csv, "--folds", "2", "--replicates", "2",
             "--algorithms", "bhc,kparents:1", "--seed", "5", "--outdir", str(outdir)]
        )
        assert code == 0
        assert (outdir / "cv_records.csv").exists()
        assert (outdir / "cv_summary.csv").exists()
        assert not (outdir / "cv_timings.csv").exists()
        with open(outdir / "cv_records.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert "wall_time" not in rows[0]

        outdir2 = tmp_path / "cv2"
        main(
            ["cv", "--input", toy_csv, "--folds", "2", "--replicates", "2",
             "--algorithms", "bhc", "--seed", "5", "--timings", "--outdir", str(outdir2)]
        )
        assert (outdir2 / "cv_timings.csv").exists()

    def test_records_byte_identical(self, toy_csv, tmp_path):
        outs = []
        for name in ("c1", "c2"):
            outdir = tmp_path / name
            main(
                ["cv", "--input", toy_csv, "--folds", "2", "--replicates", "1",
                 "--algorithms", "bhc", "--seed", "7", "--outdir", str(outdir)]
            )
            outs.append((outdir / "cv_records.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_bad_algorithm_spec_exits_two(self, toy_csv, tmp_path):
        code = main(
            ["cv", "--input", toy_csv, "--algorithms", "magic", "--outdir", str(tmp_path / "x")]
        )
        assert code == 2


class TestAldagCommand:
    def test_dot_and_json(self, model_json, tmp_path):
        dot = tmp_path / "g.dot"
        js = tmp_path / "g.json"
        code = main(["aldag", "--model", model_json, "--dot", str(dot), "--json", str(js)])
        assert code == 0
        assert dot.read_text().startswith("digraph")
        payload = json.loads(js.read_text())
        assert "edges" in payload

    def test_prints_edges_without_outputs(self, model_json, capsys):
        assert main(["aldag", "--model", model_json]) == 0

    def test_subtree_rendering(self, model_json, tmp_path):
        sub = tmp_path / "sub.dot"
        code = main(
            ["aldag", "--model", model_json, "--subtree", "C", "--subtree-dot", str(sub)]
        )
        assert code == 0
        assert "digraph" in sub.read_text()

    @pytest.mark.parametrize("flag, missing", [("--subtree-dot", "--subtree"), ("--subtree", "--subtree-dot")])
    def test_subtree_flags_need_each_other(self, tmp_path, capsys, flag, missing):
        sub = tmp_path / "sub.dot"
        argv = ["aldag", "--model", str(tmp_path / "nosuch.json"), flag, str(sub) if flag == "--subtree-dot" else "C"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"{flag} needs {missing}" in err and "nosuch.json" not in err
        assert not sub.exists()

    @pytest.mark.parametrize("flag", ["--dot", "--json"])
    def test_empty_file_flag_rejected_before_the_model_is_read(self, tmp_path, capsys, flag):
        argv = ["aldag", "--model", str(tmp_path / "nosuch.json"), flag, ""]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"{flag} needs a non-empty value" in err and "nosuch.json" not in err


class TestWhatif:
    @pytest.mark.parametrize("extra", [[], ["--virtual"]])
    def test_no_findings_rejected_before_the_model_is_read(self, tmp_path, capsys, extra):
        out = tmp_path / "post.csv"
        argv = ["whatif", "--model", str(tmp_path / "nosuch.json"), "--output", str(out)] + extra
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "--evidence" in err and "--soft" in err and "nosuch.json" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--target", "--dot"])
    def test_empty_flag_rejected_before_the_model_is_read(self, tmp_path, capsys, flag):
        out = tmp_path / "post.csv"
        argv = ["whatif", "--model", str(tmp_path / "nosuch.json"), "--evidence", "A=lo", "--output", str(out), flag, ""]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"{flag} needs a non-empty value" in err and "nosuch.json" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, first, second", [("--evidence", "A=lo", "A=hi"), ("--soft", "B=0.2,0.8", " B =0.9,0.1")])
    def test_repeated_variable_rejected_before_the_model_is_read(self, tmp_path, capsys, flag, first, second):
        out = tmp_path / "post.csv"
        argv = ["whatif", "--model", str(tmp_path / "nosuch.json"), flag, first, flag, second, "--output", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"{flag} gives {first.split('=')[0]!r} more than once" in err and "nosuch.json" not in err
        assert not out.exists()

    @pytest.mark.parametrize("extra", [[], ["--virtual"]])
    def test_non_finite_soft_finding_rejected(self, model_json, tmp_path, capsys, monkeypatch, extra):
        def refuse(*args, **kwargs):
            raise AssertionError("a non-finite finding reached conditioning")

        monkeypatch.setattr(inference, "_condition", refuse)
        out = tmp_path / "post.csv"
        argv = ["whatif", "--model", model_json, "--soft", "B=nan,nan", "--output", str(out)] + extra
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "soft target for 'B' is not a probability distribution" in err
        assert "cycles" not in err and "evidence probability" not in err
        assert not out.exists()

    def test_hard_evidence_posterior(self, model_json, tmp_path):
        out = tmp_path / "post.csv"
        code = main(["whatif", "--model", model_json, "--evidence", "A=lo", "--output", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        by_var = {}
        for row in rows:
            by_var.setdefault(row["variable"], 0.0)
            by_var[row["variable"]] += float(row["probability"])
        assert all(abs(total - 1.0) < 1e-9 for total in by_var.values())

    def test_soft_evidence_and_dot(self, model_json, tmp_path):
        out = tmp_path / "post.csv"
        dot = tmp_path / "ev.dot"
        code = main(
            ["whatif", "--model", model_json, "--soft", "B=0.5,0.5",
             "--output", str(out), "--dot", str(dot)]
        )
        assert code == 0
        text = dot.read_text()
        assert "gray80" in text

    def test_virtual_flag_changes_semantics(self, model_json, tmp_path):
        jeffrey_out = tmp_path / "jeffrey.csv"
        virtual_out = tmp_path / "virtual.csv"
        base = ["whatif", "--model", model_json, "--soft", "B=0.5,0.5"]
        assert main(base + ["--output", str(jeffrey_out)]) == 0
        assert main(base + ["--virtual", "--output", str(virtual_out)]) == 0
        with open(jeffrey_out) as fh:
            jeffrey = {(r["variable"], r["level"]): float(r["probability"]) for r in csv.DictReader(fh)}
        assert abs(jeffrey[("B", "hi")] - 0.5) < 1e-9
        assert jeffrey_out.read_bytes() != virtual_out.read_bytes()

    def test_virtual_hard_finding_is_exact(self, tmp_path):
        model = tmp_path / "reference.json"
        model.write_text(tree_to_json(reference_tree()))
        out = tmp_path / "post.csv"
        argv = ["whatif", "--model", str(model), "--virtual", "--evidence", "Satisfaction=Low",
                "--soft", "Length=0.3,0.7", "--output", str(out)]
        assert main(argv) == 0
        with open(out) as fh:
            rows = {(r["variable"], r["level"]): r["probability"] for r in csv.DictReader(fh)}
        assert [rows[("Satisfaction", c)] for c in ("High", "Low", "Medium")] == ["0.0", "1.0", "0.0"]

    def test_soft_update_flags_apply(self, model_json, tmp_path, capsys):
        out = tmp_path / "post.csv"
        argv = ["whatif", "--model", model_json, "--soft", "B=0.3,0.7", "--output", str(out)]
        assert main(argv + ["--tol", "1e-12", "--max-iter", "5"]) == 0
        assert "converged in 1 cycles" in capsys.readouterr().err
        with open(out) as fh:
            rows = {(r["variable"], r["level"]): float(r["probability"]) for r in csv.DictReader(fh)}
        assert abs(rows[("B", "hi")] - 0.3) < 1e-12

    def test_impossible_evidence_exits_two(self, model_json, tmp_path):
        code = main(
            ["whatif", "--model", model_json, "--evidence", "A=missing",
             "--output", str(tmp_path / "p.csv")]
        )
        assert code == 2

    def test_target_restricts_output(self, model_json, tmp_path):
        out = tmp_path / "post.csv"
        main(
            ["whatif", "--model", model_json, "--evidence", "A=lo", "--target", "C",
             "--output", str(out)]
        )
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert {row["variable"] for row in rows} == {"C"}


class TestMiAndExport:
    def test_mi_table(self, model_json, tmp_path):
        out = tmp_path / "mi.csv"
        assert main(["mi", "--model", model_json, "--target", "C", "--output", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert {row["predictor"] for row in rows} <= {"A", "B"}
        assert all(float(row["mutual_information"]) >= 0 for row in rows)

    def test_export_variants(self, model_json, tmp_path):
        for what, check in [
            ("tree-dot", lambda t: t.startswith("digraph")),
            ("aldag-dot", lambda t: t.startswith("digraph")),
            ("aldag-json", lambda t: "edges" in t),
            ("schema-json", lambda t: "variables" in t),
        ]:
            out = tmp_path / f"{what}.out"
            assert main(["export", "--model", model_json, "--what", what, "--output", str(out)]) == 0
            assert check(out.read_text())

    def test_export_joint_csv_sums_to_one(self, model_json, tmp_path):
        out = tmp_path / "joint.csv"
        assert main(["export", "--model", model_json, "--what", "joint-csv", "--output", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        assert abs(sum(float(r["probability"]) for r in rows) - 1.0) < 1e-9


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["learn", "--input", "IN", "--output", ""], "--output"),
        (["order", "--input", "IN", "--output", ""], "--output"),
        (["bootstrap", "--input", "IN", "--outdir", ""], "--outdir"),
        (["cv", "--input", "IN", "--outdir", ""], "--outdir"),
        (["whatif", "--model", "IN", "--evidence", "A=lo", "--output", ""], "--output"),
        (["mi", "--model", "IN", "--target", "C", "--output", ""], "--output"),
        (["export", "--model", "IN", "--what", "tree-dot", "--output", ""], "--output"),
    ],
)
def test_empty_output_path_rejected_before_the_input_is_read(tmp_path, capsys, argv, flag):
    missing = str(tmp_path / "nosuch.csv")
    assert main([missing if arg == "IN" else arg for arg in argv]) == 1
    err = capsys.readouterr().err
    assert f"{flag} needs a non-empty value" in err and "nosuch.csv" not in err
    assert os.listdir(tmp_path) == []


def assert_floats_reread_exactly(path):
    """Every float cell of a result CSV is the repr of its float, so it
    re-reads bit-exactly, and no cell is a numpy repr; returns how many
    float cells the file holds."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    floats = 0
    for row in rows:
        for cell in row:
            assert "np.float64(" not in cell, (path, cell)
            try:
                value = float(cell)
            except ValueError:
                continue
            if cell.isdigit():  # an integer column: fold, n_parameters
                continue
            assert cell == repr(value), (path, cell)
            floats += 1
    return floats


class TestResultCsvFloats:
    """The float format of every result CSV the CLI writes."""

    def test_every_result_file(self, toy_csv, model_json, tmp_path):
        boot, cv = tmp_path / "boot", tmp_path / "cv"
        outputs = {"mi": tmp_path / "mi.csv", "whatif": tmp_path / "whatif.csv", "joint": tmp_path / "joint.csv"}
        commands = [
            ["bootstrap", "--input", toy_csv, "--replicates", "6", "--seed", "2", "--outdir", str(boot)],
            ["cv", "--input", toy_csv, "--folds", "2", "--replicates", "2", "--timings", "--outdir", str(cv)],
            ["whatif", "--model", model_json, "--soft", "A=0.3,0.7", "--output", str(outputs["whatif"])],
            ["mi", "--model", model_json, "--target", "C", "--output", str(outputs["mi"])],
            ["export", "--model", model_json, "--what", "joint-csv", "--output", str(outputs["joint"])],
        ]
        for argv in commands:
            assert main(argv) == 0, argv
        files = [boot / "votes.csv", boot / "edge_strength.csv", boot / "dissimilarity_depth_1.csv",
                 boot / "dissimilarity_depth_2.csv", cv / "cv_records.csv", cv / "cv_summary.csv",
                 cv / "cv_timings.csv", *outputs.values()]
        for path in files:
            assert assert_floats_reread_exactly(path) > 0, path


# The order flags each mode takes and the one it needs, as the README states.
ORDER_TAKES = {
    "fixed": {"--order-spec"},
    "grouped": {"--groups"},
    "dp": {"--fixed-last", "--random-ties", "--reorder-per-fold"},
}
ORDER_NEEDS = {"fixed": "--order-spec", "grouped": "--groups"}
ORDER_VALUES = {"--order-spec": "C,A,B", "--groups": "A,B;C", "--fixed-last": "A", "--random-ties": "5"}
# Per command: the flag that selects the mode, its modes, and the other order flags it has.
ORDER_COMMANDS = {
    "learn": ("--order", ("fixed", "dp", "grouped"), ("--order-spec", "--groups", "--fixed-last")),
    "order": ("--mode", ("dp", "grouped"), ("--groups", "--fixed-last")),
    "bootstrap": (
        "--order", ("fixed", "dp", "grouped"),
        ("--order-spec", "--groups", "--fixed-last", "--random-ties"),
    ),
    "cv": (None, (), ("--order-spec", "--fixed-last", "--reorder-per-fold")),
}


def _order_flag_cases():
    for command, (mode_flag, modes, flags) in ORDER_COMMANDS.items():
        for mode in (None,) + modes:
            for mask in range(1 << len(flags)):
                given = tuple(f for i, f in enumerate(flags) if mask >> i & 1)
                yield pytest.param(command, mode, given, id=f"{command}-{mode}-{'+'.join(given) or 'none'}")


def _expected_rejection(command, mode, given):
    """The flags named in the error, or None when the command is accepted."""
    if mode is None:
        mode = "fixed" if command == "cv" and "--order-spec" in given else "dp"
    if command == "bootstrap" and mode == "grouped":
        return {"--order grouped"}
    extra = set(given) - ORDER_TAKES[mode]
    if extra:
        return extra
    if mode in ORDER_NEEDS and ORDER_NEEDS[mode] not in given:
        return {ORDER_NEEDS[mode]}
    return None


class TestOrderFlags:
    @pytest.mark.parametrize("command, mode, given", list(_order_flag_cases()))
    def test_flag_matrix(self, toy_csv, tmp_path, capsys, command, mode, given):
        out = tmp_path / "out"
        argv = [command, "--input", toy_csv]
        if mode is not None:
            argv += [ORDER_COMMANDS[command][0], mode]
        for flag in given:
            argv += [flag] if flag == "--reorder-per-fold" else [flag, ORDER_VALUES[flag]]
        if command in ("learn", "order"):
            argv += ["--output", str(out)]
        else:
            argv += ["--replicates", "2", "--outdir", str(out)]
        if command == "cv":
            argv += ["--folds", "2"]
        rejected = _expected_rejection(command, mode, given)
        code = main(argv)
        err = capsys.readouterr().err
        if rejected:
            assert code == 1
            assert any(flag in err for flag in rejected), err
            return
        assert code == 0, err
        if command == "learn":
            model = tree_from_json(out.read_text())
            order = [model.schema.names[v] for v in model.order]
        elif command == "order":
            order = out.read_text().strip().split(",")
        elif command == "bootstrap":
            order = (out / "order.txt").read_text().strip().split(",")
        else:
            return  # cv writes no ordering
        assert sorted(order) == ["A", "B", "C"]
        if "--order-spec" in given:
            assert order == ["C", "A", "B"]
        if "--fixed-last" in given:
            assert order[-1] == "A"
        if "--groups" in given:
            assert order.index("C") in (0, 2)

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["bootstrap", "--order", "grouped", "--groups", "nosuch;alsonot"], "--groups"),
            (["order", "--mode", "grouped", "--groups", "A,B;C", "--fixed-last", "C"], "--fixed-last"),
            (["bootstrap", "--order", "fixed", "--order-spec", "C,A,B", "--fixed-last", "C"], "--fixed-last"),
            (["cv", "--order-spec", "C,A,B", "--fixed-last", "C"], "--fixed-last"),
            (["bootstrap", "--order", "fixed", "--order-spec", "C,A,B", "--random-ties", "5"], "--random-ties"),
        ],
    )
    def test_formerly_ignored_flags_exit_one(self, toy_csv, tmp_path, capsys, argv, flag):
        out = ["--outdir", str(tmp_path / "out")] if argv[0] != "order" else []
        assert main(argv[:1] + ["--input", toy_csv] + argv[1:] + out) == 1
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_k_without_kparents_exits_two(self, toy_csv, tmp_path, capsys):
        assert main(["learn", "--input", toy_csv, "--k", "3", "--output", str(tmp_path / "m.json")]) == 2
        assert "kparents" in capsys.readouterr().err
