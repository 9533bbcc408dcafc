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
