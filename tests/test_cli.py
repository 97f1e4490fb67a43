import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import confinement_lab

from confinement_lab.cli import main
from confinement_lab.core import load_field


def test_solve_writes_snapshot_and_metadata(tmp_path):
    out = tmp_path / "run"
    rc = main(["solve", "--p", "4", "--lambda", "1.5", "--K", "24", "--Mz", "128",
               "--outdir", str(out)])
    assert rc == 0
    meta = json.loads((out / "result.json").read_text())
    assert meta["lambda"] == 1.5 and meta["p"] == 4.0
    assert meta["gradient_norm"] <= 1e-9
    assert meta["stability"] in ("stable", "unstable", "undetermined")
    cfg = json.loads((out / "run_config.json").read_text())
    assert cfg["lam"] == 1.5 and "version" in cfg and "init" not in cfg
    assert not {"tol_grad", "tol_nehari", "max_iter"} & set(cfg)
    field, header = load_field(out / "u")
    assert header["sha256"]
    assert field.values.max() > 0


def test_solve_rejects_bad_frequency(tmp_path):
    rc = main(["solve", "--p", "4", "--lambda", "2.5", "--outdir", str(tmp_path / "x")])
    assert rc == 2


def test_limits_subcommand(tmp_path):
    out = tmp_path / "lims"
    rc = main(["limits", "--p", "4", "--which", "both", "--outdir", str(out)])
    assert rc == 0
    lines = (out / "soliton_1d_closed_form.csv").read_text().splitlines()
    assert lines[0] == "coordinate,value"
    closed = np.loadtxt(lines[1:], delimiter=",")
    shot = np.loadtxt((out / "soliton_1d_shot.csv").read_text().splitlines()[1:],
                      delimiter=",")
    assert np.abs(closed[:, 1] - shot[:, 1]).max() <= 1e-8
    lines3 = (out / "soliton_3d_shot.csv").read_text().splitlines()
    assert lines3[0] == "coordinate,value"
    shot3 = np.loadtxt(lines3[1:], delimiter=",")
    assert shot3[0, 1] == pytest.approx(4.337387679981889, rel=1e-9)
    assert (shot3[:, 1] > 0).all()


def test_sweep_subcommand(tmp_path):
    out = tmp_path / "sw"
    rc = main(["sweep", "--p", "4", "--lambda-grid=-8,1.5", "--K", "24",
               "--Mz", "128", "--skip-eigs", "--outdir", str(out)])
    assert rc == 0
    lines = (out / "branch.csv").read_text().splitlines()
    assert lines[0] == "lambda,mass,action,slope_chi,slope_fd,stability,eig_min"
    assert len(lines) == 3
    scan = json.loads((out / "mass_scan.json").read_text())
    assert "action_bound" in scan


def test_sweep_with_every_sample_failed_exits_3(tmp_path, monkeypatch, capsys):
    """A sweep whose every sample fails is a non-convergence, not a bad
    setting: one stderr line per failure, a header-only branch.csv, no
    mass_scan.json, exit 3."""
    from confinement_lab import branch
    from confinement_lab.errors import NotConverged

    def not_converged(*args, **kwargs):
        raise NotConverged(3, 1.0)

    monkeypatch.setattr(branch, "solve_ground_state", not_converged)
    out = tmp_path / "sw"
    assert main(["sweep", "--p", "4", "--lambda-grid=0.5,1.5", "--K", "16", "--Mz", "64",
                 "--Lz", "8", "--skip-eigs", "--outdir", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[:2] for line in err] == [["failed", " lambda=0.5"],
                                                      ["failed", " lambda=1.5"]]
    assert (out / "branch.csv").read_text().splitlines() == [
        "lambda,mass,action,slope_chi,slope_fd,stability,eig_min"]
    assert not (out / "mass_scan.json").exists()


@pytest.mark.parametrize("target, error", [("solve_chi", "NearSingular"),
                                           ("linearized_smallest_eigs", "EigsNotConverged")])
def test_solve_analysis_failure_exits_3(tmp_path, monkeypatch, capsys, target, error):
    """A near-singular chi solve or an eigensolve that does not converge is a
    solver failure, exit 3, not a configuration error."""
    from confinement_lab import branch, errors

    def failing(*args, **kwargs):
        raise getattr(errors, error)("forced")

    monkeypatch.setattr(branch, target, failing)
    assert main(["solve", "--p", "4", "--lambda", "1.5", "--K", "16", "--Mz", "64",
                 "--Lz", "8", "--outdir", str(tmp_path / "s")]) == 3
    assert "error:" in capsys.readouterr().err


def test_verify_subcommand(tmp_path):
    out = tmp_path / "vf"
    rc = main(["verify", "--theorem", "A.3", "--p", "4", "--tau", "0.2,0.1",
               "--outdir", str(out)])
    assert rc == 0
    verdict = json.loads((out / "verify_A_3.json").read_text())
    assert verdict["verdict"] in ("pass", "fail", "undetermined")
    assert len(verdict["rows"]) == 2
    cfg = json.loads((out / "run_config.json").read_text())
    assert cfg["tau"] == "0.2,0.1" and "lambdas" not in cfg and "jobs" not in cfg


def test_verify_mass_bound_tiny_grid(tmp_path):
    """verify --theorem A.8 sweeps the branch and records no failed sample;
    the sweep runs in one process, so its run_config.json has no jobs."""
    out = tmp_path / "a8"
    assert main(["verify", "--theorem", "A.8", "--p", "4", "--K", "16", "--Mz", "64",
                 "--Lz", "8", "--outdir", str(out)]) == 0
    verdict = json.loads((out / "verify_A_8.json").read_text())
    assert verdict["n_failures"] == 0
    assert "jobs" not in json.loads((out / "run_config.json").read_text())


def test_verify_mass_bound_with_every_sample_failed_is_undetermined(tmp_path, monkeypatch):
    """verify --theorem A.8 whose sweep fails at every frequency has no
    curve to bound: it writes an undetermined verdict with the failure
    count and exits 0, like any verdict."""
    from confinement_lab import branch
    from confinement_lab.errors import NotConverged

    def not_converged(*args, **kwargs):
        raise NotConverged(3, 1.0)

    monkeypatch.setattr(branch, "solve_ground_state", not_converged)
    out = tmp_path / "a8"
    assert main(["verify", "--theorem", "A.8", "--p", "4", "--K", "16", "--Mz", "64",
                 "--Lz", "8", "--outdir", str(out)]) == 0
    verdict = json.loads((out / "verify_A_8.json").read_text())
    assert verdict["verdict"] == "undetermined" and verdict["check"] == "mass_bound"
    assert verdict["n_failures"] == 28


def test_verify_slopes_checks_morse_index(tmp_path, monkeypatch):
    """verify --theorem slopes records the two lowest sector eigenvalues of
    each end state, and its verdict needs exactly one of them negative."""
    from confinement_lab import verify
    out = tmp_path / "vs"
    assert main(["verify", "--theorem", "slopes", "--p", "4", "--outdir", str(out)]) == 0
    verdict = json.loads((out / "verify_slopes.json").read_text())
    assert verdict["verdict"] == "pass" and verdict["morse_index_one"] is True
    assert all(r["eig_min"] < 0.0 < r["eig_second"] for r in verdict["rows"])
    real = verify.linearized_smallest_eigs

    def two_negative(*args, **kwargs):
        vals, vecs = real(*args, **kwargs)
        return -np.abs(vals), vecs

    monkeypatch.setattr(verify, "linearized_smallest_eigs", two_negative)
    verdict = verify.check_slopes(4.0)
    assert verdict["verdict"] == "fail" and verdict["morse_index_one"] is False
    assert verdict["signs_ok"] and all(r["agree"] for r in verdict["rows"])


@pytest.mark.parametrize("argv, output", [
    (["pair", "--c", "inf"], "pair.json"),
    (["evolve", "--lambda", "1.8", "--dt", "inf", "--T", "1"], "trace.csv"),
    (["solve", "--lambda", "0", "--Lz", "nan"], "result.json"),
    (["solve", "--lambda=-inf"], "result.json")])
def test_non_finite_setting_exits_2_without_output(tmp_path, capsys, argv, output):
    """An infinite norm or time step, a non-finite box or frequency is a
    configuration error: exit 2, checked before anything is written, so
    neither the result file nor the output directory is made."""
    out = tmp_path / "nf"
    assert main([*argv, "--p", "4", "--K", "16", "--Mz", "64", "--outdir", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (out / output).exists() and not out.exists()


@pytest.mark.parametrize("dt, T", [("0.3", "1"), ("1", "0.4")])
def test_evolve_refuses_time_not_whole_steps(tmp_path, capsys, dt, T):
    """evolve runs T / dt steps, so a T that is not a whole number of steps
    exits 2 without an output directory, instead of ending at 0.9 or at 0."""
    out = tmp_path / "ev"
    assert main(["evolve", "--lambda", "1.8", "--dt", dt, "--T", T, "--K", "16", "--Mz", "64",
                 "--outdir", str(out)]) == 2
    assert "whole number of steps" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_subcommand(tmp_path):
    out = tmp_path / "ev"
    rc = main(["evolve", "--p", "4", "--lambda", "1.8", "--dt", "2e-3", "--T", "0.5",
               "--K", "24", "--Mz", "128", "--outdir", str(out)])
    assert rc == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "t,mass,energy,orbital_distance"
    data = np.loadtxt(lines[1:], delimiter=",")
    assert abs(data[-1, 1] / data[0, 1] - 1.0) <= 1e-10


def test_unknown_subcommand_is_config_error():
    assert main(["frobnicate"]) == 2


def test_jobs_env_fallback(monkeypatch):
    """--jobs is read from the command line only: the environment variable
    the benchmark refuses does not set it."""
    from confinement_lab.cli import build_parser
    monkeypatch.setenv("CONFINEMENT_LAB_JOBS", "3")
    args = build_parser().parse_args(["sweep"])
    assert args.jobs == 1
    args = build_parser().parse_args(["sweep", "--jobs", "2"])
    assert args.jobs == 2


def test_sweep_jobs_runs_one_process(tmp_path, monkeypatch):
    """sweep accepts --jobs and runs in one process whatever its value."""
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("sweep started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert main(["sweep", "--p", "4", "--lambda-grid=-8,1.5", "--K", "16", "--Mz", "64",
                 "--Lz", "8", "--skip-eigs", "--jobs", "2", "--outdir", str(tmp_path / "sw")]) == 0


def test_subcommands_refuse_flags_they_ignore(tmp_path):
    """limits takes no grid settings, no subcommand takes solver settings
    (the stopping test is fixed), and solve takes no --seed and no --init
    (a cold solve has one start): all are configuration errors, and
    run_config.json of limits holds only what limits reads."""
    assert main(["limits", "--K", "16", "--outdir", str(tmp_path / "l")]) == 2
    required = {"solve": ["--lambda", "1.5"], "sweep": [], "verify": ["--theorem", "A.8"],
                "pair": ["--c", "1"], "evolve": ["--lambda", "1.5"]}
    for cmd, args in required.items():
        for flag, value in (("--tol-grad", "1e-9"), ("--tol-nehari", "1e-10"),
                            ("--max-iter", "5000")):
            assert main([cmd, *args, flag, value, "--outdir", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    assert main(["solve", "--lambda", "1.5", "--seed", "1", "--outdir", str(tmp_path / "s")]) == 2
    assert main(["solve", "--lambda", "1.5", "--init", "gaussian",
                 "--outdir", str(tmp_path / "i")]) == 2
    out = tmp_path / "lims"
    assert main(["limits", "--which", "1d", "--outdir", str(out)]) == 0
    cfg = json.loads((out / "run_config.json").read_text())
    assert sorted(cfg) == ["cmd", "outdir", "p", "version", "which"]


def test_verify_and_sweep_refuse_settings_their_run_ignores(tmp_path):
    """verify reads --lambdas only for theorem 1.3 and --tau only for A.3,
    and takes no --jobs for any theorem; sweep reads --lambda-min and
    --tau-min only without --lambda-grid: any other use is a configuration
    error, and run_config.json leaves out what its run did not read."""
    for argv in (["verify", "--theorem", "slopes", "--tau", "0.1"],
                 ["verify", "--theorem", "A.3", "--lambdas=-10"],
                 ["verify", "--theorem", "1.3", "--jobs", "2"],
                 ["verify", "--theorem", "A.8", "--jobs", "2"],
                 ["sweep", "--lambda-grid=1.5", "--lambda-min=-20"],
                 ["sweep", "--lambda-grid=1.5", "--tau-min", "0.1"]):
        assert main([*argv, "--outdir", str(tmp_path / "x")]) == 2
    assert not (tmp_path / "x").exists()
    out = tmp_path / "sw"
    assert main(["sweep", "--lambda-grid=1.5", "--K", "16", "--Mz", "64", "--Lz", "8",
                 "--skip-eigs", "--outdir", str(out)]) == 0
    cfg = json.loads((out / "run_config.json").read_text())
    assert cfg["lambda_grid"] == "1.5" and "lambda_min" not in cfg and "tau_min" not in cfg


@pytest.mark.parametrize("argv", [
    ["evolve", "--lambda", "1.8", "--T", "0.01", "--record-every", "0"],
    ["evolve", "--lambda", "1.8", "--T", "0.01", "--record-every", "-3"],
    ["verify", "--theorem", "1.3", "--lambdas="],
    ["verify", "--theorem", "A.3", "--tau=,"],
    ["sweep", "--lambda-grid=,"]])
def test_empty_or_nonpositive_settings_are_config_errors(tmp_path, argv):
    """A record interval below one step and an empty frequency list for
    theorem 1.3, A.3 or a sweep exit 2 with a message, not with a traceback."""
    tiny = ["--p", "4", "--K", "16", "--Mz", "64", "--Lz", "8"]
    assert main([*argv, *tiny, "--outdir", str(tmp_path / "x")]) == 2


def test_evolve_has_no_sector_setting(tmp_path):
    """The start's measured evenness picks the grid: --sector is refused."""
    assert main(["evolve", "--lambda", "1.8", "--sector", "full",
                 "--outdir", str(tmp_path / "e")]) == 2


SCIPY_BLOCKED = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
import confinement_lab
from confinement_lab import cli
out, tiny = sys.argv[1], ["--p", "4", "--K", "16", "--Mz", "64", "--Lz", "8"]
print(cli.main(["solve", *tiny, "--lambda", "1.0", "--outdir", out + "/solve"]),
      cli.main(["solve", *tiny, "--lambda", "-1", "--outdir", out + "/far"]),
      cli.main(["sweep", *tiny, "--lambda-grid=-10,-7,1.5", "--outdir", out + "/sweep"]),
      cli.main(["evolve", *tiny, "--lambda", "1.8", "--perturbation", "0.01",
                "--T", "0.1", "--outdir", out + "/evolve"]),
      cli.main(["pair", *tiny, "--c", "1.4142", "--outdir", out + "/pair"]))
"""


def test_solve_and_evolve_run_without_scipy(tmp_path):
    """Importing the package, the solve command on both sides of zero
    frequency, a sweep across the far-grid switch, evolve and the mass pair
    need numpy alone: scipy is refused by an import hook in a fresh
    interpreter."""
    src = str(Path(confinement_lab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", SCIPY_BLOCKED, str(tmp_path)],
                          env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split()[-5:] == ["0", "0", "0", "0", "0"]
    assert (tmp_path / "solve" / "result.json").is_file()
    assert (tmp_path / "far" / "result.json").is_file()
    assert (tmp_path / "sweep" / "branch.csv").is_file()
    assert (tmp_path / "evolve" / "trace.csv").is_file()
    assert (tmp_path / "pair" / "pair.json").is_file()


def test_package_import_loads_no_submodule():
    """import confinement_lab in a fresh interpreter loads the package alone;
    every name is imported from the module that defines it."""
    src = str(Path(confinement_lab.__file__).resolve().parents[1])
    code = ("import sys, confinement_lab; "
            "print(sorted(m for m in sys.modules if m.startswith('confinement_lab.')))")
    proc = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"
