"""Smoke test of the example scripts, which drive the public API end to end."""

import os
import subprocess
import sys

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


def test_consensus_timing_script_outputs_agree(tmp_path):
    ran = run_script(
        "benchmark_consensus.py", "--rows", "300", "--replicates", "4", "--threads", "2", cwd=tmp_path,
    )
    assert ran.returncode == 0, ran.stderr
    assert "outputs identical: True" in ran.stdout
