"""The benchmark's tracer (stbench/tracer.py) wraps package functions by
name, so a rename or removal in the package breaks every traced benchmark
run. Installing it here makes that a test failure too."""

import os

import numpy as np
import pytest

import stagedtree
import stagedtree.cli  # noqa: F401  (the tracer wraps the CLI commands)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Traced figures whose functions the package no longer has; they read 0.
GONE = {"learning.bhc_stage_depth", "aldag.classify_edge"}


@pytest.fixture
def stbench(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "stbench"))
    import run
    import tracer

    return run, tracer


def module_attributes(tracer_module):
    owners = [stagedtree, stagedtree.dataset.Dataset, stagedtree.cli._COMMANDS]
    owners += [getattr(stagedtree, name) for name in tracer_module.TRACED_MODULES]
    return [(owner, dict(owner if isinstance(owner, dict) else vars(owner))) for owner in owners]


def test_tracer_installs_and_uninstalls(stbench):
    run, tracer_module = stbench
    before = module_attributes(tracer_module)
    tracer = tracer_module.Tracer(stagedtree)
    tracer.install()
    try:
        wrapped = set(tracer.stats)
        for name in tracer_module.DATASET_METHODS:
            assert f"dataset.{name}" in wrapped
        assert set(run.RESULT_WRITERS) <= wrapped
        figures = {key for key, _ in run.LAYER_FIGURES.values()}
        assert figures - wrapped == GONE
        assert set(run.CLI_COMMANDS) <= wrapped
        schema = stagedtree.Schema((stagedtree.Variable("u", ("a", "b")), stagedtree.Variable("v", ("x", "y"))))
        d = stagedtree.Dataset(schema, np.array([[0, 1], [1, 0], [1, 1]]))
        d.take_rows(np.array([0, 2])).select_columns([1])
        functions = tracer.snapshot()["functions"]
        assert functions["dataset.take_rows"]["calls"] == 1
        assert functions["dataset.select_columns"]["calls"] == 1
    finally:
        tracer.uninstall()
    for (owner, attributes), (_, restored) in zip(before, module_attributes(tracer_module)):
        assert restored.keys() == attributes.keys()
        assert all(restored[key] is value for key, value in attributes.items()), owner
