"""The gma-sim entry point: input validation and one small end-to-end run."""

import csv
import json
import os
import platform
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from gma import experiments
from gma.cli import main
from gma.experiments import CSV_COLUMNS
from gma.optim import position_grid
from gma.scenario import ScenarioParams


def write_config(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


@pytest.mark.parametrize("source, experiment", [
    pytest.param("flag", {"seeds": 0}, id="flag-0"),
    pytest.param("flag", {"seeds": -1}, id="flag--1"),
    pytest.param("config", {"seeds": 0}, id="config-0"),
    pytest.param("config", {"seeds": -1}, id="config--1"),
    pytest.param("config", {"seeds": 1.5}, id="config-1.5"),
    pytest.param("config", {"seeds": True}, id="config-True"),
    pytest.param("config", {"ma_restarts": -3}, id="config-ma_restarts=-3"),
    pytest.param("config", {"ma_restarts": 1.7}, id="config-ma_restarts=1.7"),
    pytest.param("config", {"oracle_step": "x", "schemes": ["gma", "oracle"]},
                 id="config-oracle_step=x"),
    pytest.param("config", {"schemes": []}, id="config-schemes=[]"),
    pytest.param("config", {"schemes": ["gma", "fpa", "gma"]},
                 id="config-schemes-twice"),
    pytest.param("flag", {"schemes": "gma,gma"}, id="flag-scheme=gma,gma"),
    pytest.param("flag", {"schemes": ","}, id="flag-scheme=,"),
    pytest.param("config", {"region_multiples": []}, id="config-region_multiples=[]"),
    pytest.param("config", {"region_multiples": ["a"]},
                 id="config-region_multiples=a"),
    pytest.param("config", {"region_multiples": [1, 2, 1.0]},
                 id="config-region_multiples-twice"),
    pytest.param("config", {"region_multiples": 2}, id="config-region_multiples=2"),
    pytest.param("config", {"element_counts": []}, id="config-element_counts=[]"),
    pytest.param("config", {"element_counts": [16, "16"]},
                 id="config-element_counts=16,'16'"),
    pytest.param("config", {"element_counts": [16, 16]},
                 id="config-element_counts-twice"),
])
def test_rejects_trial_count_below_one(tmp_path, capsys, source, experiment):
    # covers every checked experiment value: seeds, ma_restarts, oracle_step,
    # and the lists schemes, region_multiples and element_counts
    out = tmp_path / "out.csv"
    sweep_lists = {"region_multiples", "element_counts"}
    command = "sweep" if sweep_lists & set(experiment) else "compare"
    if source == "flag":
        ((key, value),) = experiment.items()
        argv = [command, {"seeds": "--seeds", "schemes": "--scheme"}[key], str(value)]
    else:
        config = {"scenario": {"M": 16}, "experiment": experiment}
        argv = [command, "--config", write_config(tmp_path, config)]
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()
    assert not (tmp_path / "out.csv.meta.json").exists()


def test_rejects_unknown_config_key(tmp_path, capsys):
    out = tmp_path / "out.csv"
    config = write_config(tmp_path, {"scenario": {"M": 16, "antennas": 4}})
    assert main(["compare", "--config", config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "antennas" in err
    assert not out.exists()


def test_small_compare_writes_csv_and_sidecar(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / "out.csv"
    config = write_config(tmp_path, {"scenario": {"M": 16}})
    assert main(["compare", "--config", config, "--seeds", "2",
                 "--scheme", "gma,fpa", "--out", str(out)]) == 0
    assert f"wrote {out} (4 records)" in capsys.readouterr().out
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == CSV_COLUMNS
    assert [(r[0], r[1], r[3]) for r in rows[1:]] == [
        ("0", "gma", "16"), ("0", "fpa", "16"), ("1", "gma", "16"), ("1", "fpa", "16")]
    meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
    assert (meta["command"], meta["trials"], meta["scenario"]["M"]) == ("compare", 2, 16)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert meta["environment"] == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "blas": {"name": blas["name"], "version": blas["version"]},
        "threads": {"OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
                    "OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": None}}
    assert meta["environment"]["blas"]["name"]
    assert meta["git_sha"] == head_of(Path(experiments.__file__).resolve().parents[2])


def head_of(root):
    """HEAD as git itself reports it; None outside a checkout."""
    if not (root / ".git").exists() or shutil.which("git") is None:
        return None
    done = subprocess.run(["git", "-C", str(root), "rev-parse", "--verify", "-q", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def test_git_sha_reads_loose_packed_and_detached_heads(tmp_path):
    sha, other = "1" * 40, "2" * 40
    assert experiments.git_sha(tmp_path) is None
    git = tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    assert experiments.git_sha(tmp_path) is None  # no commit yet
    (git / "packed-refs").write_text(f"# pack-refs\n{other} refs/heads/dev\n"
                                     f"{sha} refs/heads/main\n")
    assert experiments.git_sha(tmp_path) == sha
    (git / "refs" / "heads" / "main").write_text(other + "\n")
    assert experiments.git_sha(tmp_path) == other
    (git / "HEAD").write_text(sha + "\n")
    assert experiments.git_sha(tmp_path) == sha


@pytest.mark.parametrize("argv, config, named", [
    pytest.param([], {"scenario": {"K": "5"}}, "K", id="K='5'"),
    pytest.param([], {"scenario": {"K": True}}, "K", id="K=true"),
    pytest.param([], {"scenario": {"paths_per_user": 2.5}}, "paths_per_user",
                 id="paths_per_user=2.5"),
    pytest.param([], {"scenario": {"seed": 1.5}}, "seed", id="seed=1.5"),
    pytest.param([], {"scenario": {"region": [0, "a"]}}, "region",
                 id="region=[0,'a']"),
    pytest.param([], {"scenario": {"center": [1]}}, "center", id="center=[1]"),
    pytest.param([], {"scenario": {"confine_aperture": 1}}, "confine_aperture",
                 id="confine_aperture=1"),
    pytest.param([], {"grid": {"step": "a"}}, "grid step", id="step='a'"),
    pytest.param([], {"optimizer": {"epsilon": "a"}}, "epsilon", id="epsilon='a'"),
    pytest.param([], {"optimizer": {"max_alt_iters": 2.5}}, "max_alt_iters",
                 id="max_alt_iters=2.5"),
    pytest.param([], {"grid": {"refine_levels": 1.5}}, "refine_levels",
                 id="refine_levels=1.5"),
    pytest.param(["--grid-step", "inf"], {}, "grid step", id="flag-grid-step=inf"),
    pytest.param([], {"optimizer": {"eta_init": 2}}, "unknown optimizer keys",
                 id="removed-eta_init"),
    pytest.param([], {"optimizer": {"warm_start": False}}, "unknown optimizer keys",
                 id="removed-warm_start"),
    pytest.param([], {"optimizer": {"multistart_grid_step": 0.001}},
                 "unknown optimizer keys", id="removed-multistart_grid_step"),
])
def test_rejects_malformed_config_values(tmp_path, capsys, argv, config, named):
    out = tmp_path / "out.csv"
    config = dict(config, scenario={"M": 16, **config.get("scenario", {})})
    assert main(["compare", "--config", write_config(tmp_path, config),
                 "--scheme", "gma", "--out", str(out)] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert not out.exists()


def test_rejects_a_grid_step_too_fine_to_index(tmp_path, capsys):
    # the count check comes before numpy is asked for the grid
    out = tmp_path / "out.csv"
    assert main(["landscape", "--grid-step", "1e-300", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    y_max = ScenarioParams().resolved_region()[1]
    assert err == (f"error: grid step 1e-300 over [0.0, {y_max}] gives "
                   f"{y_max / 1e-300 + 1:.4g} points, more than numpy can index\n")
    assert not out.exists()


SMALL_SCENARIO = {"M": 16, "K": 2, "paths_per_user": 3, "region": [0.0, 0.03]}


def run_command(tmp_path, capsys, command, scenario=SMALL_SCENARIO,
                experiment=None, flags=()):
    """Runs one gma-sim command; returns its CSV rows, sidecar and stdout."""
    out = tmp_path / f"{command}.csv"
    config = {"scenario": scenario, "experiment": experiment or {}}
    argv = [command, "--config", write_config(tmp_path, config), "--out", str(out)]
    assert main(argv + list(flags)) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    meta = json.loads((tmp_path / f"{command}.csv.meta.json").read_text())
    assert meta["command"] == command
    return rows, meta, capsys.readouterr().out


def scenario_cfg(scenario):
    return ScenarioParams(**{k: tuple(v) if isinstance(v, list) else v
                             for k, v in scenario.items()}).array_config()


class TestCommands:
    def test_landscape_scores_every_level_on_the_grid(self, tmp_path, capsys):
        rows, meta, stdout = run_command(tmp_path, capsys, "landscape")
        cfg = scenario_cfg(SMALL_SCENARIO)
        ys = position_grid(cfg.y_min, cfg.y_max, cfg.wavelength / 16)
        assert tuple(rows[0]) == ("y", "eta", "metric")
        assert len(rows) - 1 == ys.size * len(cfg.feasible_etas())
        assert [int(r[1]) for r in rows[1::ys.size]] == cfg.feasible_etas()
        assert all(np.isfinite(float(r[2])) for r in rows[1:])
        assert meta["trials"] == 1 and "landscape: max" in stdout

    def test_confined_landscape_marks_positions_above_a_level_nan(
            self, tmp_path, capsys):
        scenario = dict(SMALL_SCENARIO, confine_aperture=True)
        rows, _, _ = run_command(tmp_path, capsys, "landscape", scenario)
        cfg = scenario_cfg(scenario)
        ys = position_grid(cfg.y_min, cfg.y_max, cfg.wavelength / 16)
        assert len(rows) - 1 == ys.size * len(cfg.feasible_etas())
        nan_rows = 0
        for y, eta, metric in rows[1:]:
            above = float(y) > cfg.position_bounds(int(eta))[1]
            assert np.isnan(float(metric)) == above
            nan_rows += above
        assert nan_rows > 0

    def test_seed_and_grid_step_flags_reach_the_sidecar(self, tmp_path, capsys):
        step = 0.002
        rows, meta, _ = run_command(tmp_path, capsys, "landscape",
                                    flags=["--seed", "7", "--grid-step", str(step)])
        cfg = scenario_cfg(SMALL_SCENARIO)
        ys = position_grid(cfg.y_min, cfg.y_max, step)
        assert len(rows) - 1 == ys.size * len(cfg.feasible_etas())
        assert (meta["master_seed"], meta["scenario"]["seed"]) == (7, 7)
        assert meta["grid"]["step"] == step

    @pytest.mark.parametrize("command, K", [("single-user", 1), ("multi-user", 2)])
    def test_optimizer_commands_write_one_gma_row_per_trial(
            self, tmp_path, capsys, command, K):
        rows, meta, stdout = run_command(tmp_path, capsys, command,
                                         experiment={"seeds": 2})
        assert tuple(rows[0]) == CSV_COLUMNS
        assert [(r[0], r[1], r[2], r[3]) for r in rows[1:]] == [
            ("0", "gma", str(K), "16"), ("1", "gma", str(K), "16")]
        assert meta["trials"] == 2
        assert "(2 records)" in stdout

    def test_sweep_writes_every_cell(self, tmp_path, capsys):
        experiment = {"region_multiples": [0.25, 0.5], "element_counts": [16, 20]}
        rows, meta, stdout = run_command(tmp_path, capsys, "sweep",
                                         experiment=experiment)
        assert tuple(rows[0]) == CSV_COLUMNS
        assert [(r[1], r[3]) for r in rows[1:]] == [
            (scheme, m) for m in ("16", "20") for _ in range(2)
            for scheme in ("gma", "fpa")]
        assert meta["trials"] == 1 and "(8 records)" in stdout
