"""The gma-sim entry point: input validation and one small end-to-end run."""

import csv
import json

import pytest

from gma.cli import main
from gma.experiments import CSV_COLUMNS


def write_config(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


@pytest.mark.parametrize("seeds", [0, -1])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_rejects_trial_count_below_one(tmp_path, capsys, seeds, source):
    out = tmp_path / "out.csv"
    if source == "flag":
        argv = ["compare", "--seeds", str(seeds)]
    else:
        argv = ["compare", "--config",
                write_config(tmp_path, {"experiment": {"seeds": seeds}})]
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


def test_small_compare_writes_csv_and_sidecar(tmp_path, capsys):
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
