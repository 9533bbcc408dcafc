"""The reference commands, and the script that writes their golden outputs.

Run from the repository root to rewrite every golden file in this folder:

    PYTHONPATH=src python3 tests/reference/make_reference.py

Each command runs in-process through gma.cli.main. A records CSV is kept
without its wall_ms column, which times the run. landscape keeps, per
sparsity level, its maximum and the position of the first maximum instead
of the full (position, level) grid. tests/test_reference.py re-runs the
same commands and compares their output with these files.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from gma.cli import main

HERE = Path(__file__).resolve().parent

_CONFINED_K3 = {"scenario": {"confine_aperture": True, "M": 32, "K": 3}}
_K1 = {"scenario": {"K": 1}}

# golden file -> (gma-sim arguments, JSON config or None)
COMMANDS = {
    "compare-seed5.csv": (["compare", "--seeds", "3", "--seed", "5"], None),
    "compare-gma-fpa-seed5.csv": (
        ["compare", "--seeds", "3", "--seed", "5", "--scheme", "gma,fpa"], None),
    "single-user-oracle-seed5.csv": (
        ["single-user", "--seeds", "4", "--seed", "5", "--scheme", "gma,fpa,oracle"], None),
    "single-user-oracle-seed11.csv": (
        ["single-user", "--seeds", "60", "--seed", "11", "--scheme", "gma,fpa,oracle"], None),
    "sweep-seed5.csv": (["sweep", "--seeds", "1", "--seed", "5"], None),
    "multi-user-seed5.csv": (["multi-user", "--seeds", "3", "--seed", "5"], None),
    "compare-confined-k3-oracle-seed5.csv": (
        ["compare", "--seeds", "3", "--seed", "5", "--scheme", "gma,fpa,oracle"], _CONFINED_K3),
    "compare-k1-seed5.csv": (["compare", "--seeds", "1", "--seed", "5"], _K1),
    "landscape-seed5.csv": (["landscape", "--seed", "5"], None),
}


def run(name: str) -> list[dict]:
    """The rows of one command's output, as the golden file keeps them."""
    argv, config = COMMANDS[name]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        argv = [*argv, "--out", str(out)]
        if config is not None:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        with redirect_stdout(io.StringIO()):
            if main(argv) != 0:
                raise RuntimeError(f"gma-sim {' '.join(argv)} failed")
        if argv[0] == "landscape":
            return _level_maxima(np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2))
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
    for row in rows:
        del row["wall_ms"]
    return rows


def _level_maxima(table) -> list[dict]:
    """Per level of the (y, eta, metric) rows: the largest metric that is
    not NaN, and the first position that takes it."""
    rows = []
    for eta in dict.fromkeys(table[:, 1].tolist()):
        y, metric = table[table[:, 1] == eta][:, [0, 2]].T
        i = int(np.nanargmax(metric))
        rows.append({"eta": str(int(eta)), "y": repr(float(y[i])),
                     "metric": repr(float(metric[i]))})
    return rows


def read(name: str) -> list[dict]:
    with open(HERE / name, newline="") as fh:
        return list(csv.DictReader(fh))


def write(name: str, rows: list[dict]) -> None:
    with open(HERE / name, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


if __name__ == "__main__":
    for name in COMMANDS:
        write(name, run(name))
        print(f"wrote {HERE / name}", file=sys.stderr)
