"""Smoke test of the example scripts, which drive the public API end to end."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_survey_scripts_write_their_artifacts(tmp_path):
    csv_path = tmp_path / "survey.csv"
    made = run_script("make_synthetic_survey.py", "--rows", "600", "--output", str(csv_path), cwd=tmp_path)
    assert made.returncode == 0, made.stderr
    outdir = tmp_path / "out"
    ran = run_script(
        "run_survey_pipeline.py", "--input", str(csv_path), "--response", "overall",
        "--replicates", "4", "--outdir", str(outdir), cwd=tmp_path,
    )
    assert ran.returncode == 0, ran.stderr
    for name in ("model.json", "aldag.json", "dissimilarity_depth_1.csv"):
        assert (outdir / name).is_file(), name


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--cut", "1.5"], "argument --cut: must lie strictly between 0 and 1, got 1.5"),
        (["--cut", "0"], "argument --cut: must lie strictly between 0 and 1, got 0"),
        (["--threads", "2"], "unrecognized arguments: --threads 2"),
        (["--replicates", "0"], "argument --replicates: must be at least 1, got 0"),
        (["--k", "0"], "argument --k: must be at least 1, got 0"),
        (["--seed", "-1"], "argument --seed: must lie in [0, 2**64), got -1"),
        (["--k", "9", "--algorithm", "bhc"], "--k applies only to --algorithm kparents, not to bhc"),
    ],
    ids=["cut_above_one", "cut_zero", "threads_two", "no_replicates", "k_zero", "negative_seed", "k_with_bhc"],
)
def test_survey_pipeline_refuses_bad_flags_before_reading_input(tmp_path, flags, message):
    outdir = tmp_path / "out"
    ran = run_script(
        "run_survey_pipeline.py", "--input", str(tmp_path / "absent.csv"), "--response", "overall",
        "--outdir", str(outdir), *flags, cwd=tmp_path,
    )
    assert ran.returncode == 2
    assert message in ran.stderr and "Traceback" not in ran.stderr
    assert not outdir.exists()

