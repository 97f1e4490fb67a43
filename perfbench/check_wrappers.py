"""Smoke test of the benchmark: every workload at a tiny size.

    python -m pytest perfbench/check_wrappers.py

Not named test_*.py, so the repository's own test run does not collect it.
"""

import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from confinement_lab import cli  # noqa: E402

LAYER_NAMES = [name for name, _, _, _ in spans.LAYER_METRICS]


def _patched_objects():
    """Every object the tracer replaces, by where it is looked up."""
    seen = {}
    mods = {m.__name__.rpartition(".")[2]: m for m in spans.package_modules()}
    for modname, attr, _ in spans.FUNCTIONS:
        original = getattr(mods[modname], attr)
        for mod in spans.package_modules():
            for name, value in vars(mod).items():
                if value is original:
                    seen[(mod.__name__, name)] = value
    for modname, clsname, meth, _ in spans.METHODS:
        cls = getattr(mods[modname], clsname)
        seen[(cls.__qualname__, meth)] = cls.__dict__[meth]
    for meth in ("write_text", "write_bytes"):
        seen[("Path", meth)] = pathlib.Path.__dict__[meth]
    return seen


@pytest.fixture
def out(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.delenv("CONFINEMENT_LAB_JOBS", raising=False)
    for key, value in run.PINNED.items():
        monkeypatch.setenv(key, value)
    return tmp_path


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_emits_every_layer_metric(workload, out):
    before = _patched_objects()
    record = run.bench(workload, seed=3, seconds=0.0, trace=True, size="tiny")
    assert record["result"]["failed"] == 0
    metrics = record["result"]["metrics"]
    assert list(metrics) == LAYER_NAMES
    for name, unit, _, _ in spans.LAYER_METRICS:
        assert metrics[name]["unit"] == unit
        assert isinstance(metrics[name]["value"], (int, float))
    assert (out / f"{workload}-seed3-trace1.spans.csv").stat().st_size > 0

    # the wrappers are gone: every name is the original object again
    assert _patched_objects() == before

    value = {k: m["value"] for k, m in metrics.items()}
    assert value["grid.to_coeffs.calls"] > 0 and value["grid.transform_flops"] > 0
    assert value["ground_state.solve_ground_state.calls"] >= 1
    assert value["ground_state.minres.iters"] > 0
    if workload == "sweep-p4":
        # reached through names imported by cli and branch
        assert value["branch.sweep.s"] > 0 and value["ground_state.solve_chi.s"] > 0
        assert value["ground_state.lobpcg.calls"] == 3
        assert value["ground_state.hessian.matvecs"] > value["ground_state.minres.iters"]
        assert value["branch.solves_per_sample"] >= 1.0
    if workload == "pair-p4":
        assert value["branch.find_mass_pair.s"] > 0
        assert value["ground_state.lobpcg.calls"] == 0
        assert value["branch.solves_per_sample"] == 0.0
    if workload == "evolve-p4":
        assert value["dynamics.steps"] == 50
        assert value["dynamics.evolve.self_s"] > 0 and value["dynamics.step_us"] > 0
        assert value["branch.sweep.s"] == 0.0


def test_untraced_run_records_no_spans(out):
    tracer = spans.Tracer()
    with tracer:
        pass
    argv = workloads.argv("evolve-p4", 3, out / "e", "tiny")
    rc, _, _ = run.run_once(cli.main, argv, out / "e", run.package_caches())
    assert rc == 0
    assert tracer.start == [] and not tracer.counts and not tracer.transforms


def test_end_to_end_metrics_and_environment(out):
    record = run.bench("evolve-p4", seed=3, seconds=0.0, trace=False, size="tiny")
    assert record["result"]["failed"] == 0
    metrics = record["result"]["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == dict(run.END_TO_END)
    assert all(m["value"] > 0 for m in metrics.values())
    env = record["environment"]
    assert env["threads"] == run.PINNED and env["seed"] == 3
    for key in ("python", "numpy", "scipy", "blas", "cpu", "nproc"):
        assert env[key]


def test_refuses_parallel_jobs(out, monkeypatch, capsys):
    monkeypatch.setenv("CONFINEMENT_LAB_JOBS", "2")
    assert run.main(["--workload", "pair-p4", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_refuses_without_source(out, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", out / "missing")
    assert run.main(["--workload", "pair-p4", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(name, unit, better) for name, unit, better, _ in spans.LAYER_METRICS]
