"""The reference commands reproduce their golden outputs (tests/reference).

Every column but the position and the metric must match exactly: scheme,
sparsity level and evals among them. Positions must agree within 1e-12 m
and metrics within 1e-12 relative; wall_ms is not kept. Another numpy or
BLAS build may move last bits and so flip a near-tie: a row whose
(position, level) moved then passes only if its metric agrees within the
tolerance, and the test names it in a warning.
"""

import math
import warnings

import pytest

from reference.make_reference import COMMANDS, read, run

Y_TOL, REL_TOL = 1e-12, 1e-12


def differences(golden, got):
    """(errors, moved): what fails, and the rows whose (position, level)
    moved while their metrics agree."""
    if len(golden) != len(got):
        return [f"{len(got)} rows, expected {len(golden)}"], []
    errors, moved = [], []
    for i, (want, have) in enumerate(zip(golden, got)):
        if want.keys() != have.keys():
            errors.append(f"row {i}: columns {list(have)}, expected {list(want)}")
            continue
        y = "y_star" if "y_star" in want else "y"
        level = "eta_star" if "eta_star" in want else None
        exact = [c for c in want if c not in (y, level, "metric") and want[c] != have[c]]
        if exact:
            errors.append(f"row {i}: {[(c, have[c], want[c]) for c in exact]}")
            continue
        if not math.isclose(float(have["metric"]), float(want["metric"]),
                            rel_tol=REL_TOL, abs_tol=0.0):
            errors.append(f"row {i}: metric {have['metric']}, expected {want['metric']}")
            continue
        same_level = level is None or have[level] == want[level]
        if not (same_level and abs(float(have[y]) - float(want[y])) <= Y_TOL):
            moved.append(f"row {i}: ({have[y]}, {have.get(level)}) "
                         f"for ({want[y]}, {want.get(level)})")
    return errors, moved


@pytest.mark.parametrize("name", list(COMMANDS))
def test_reproduces_golden_output(name):
    errors, moved = differences(read(name), run(name))
    assert not errors, f"{name}: " + "; ".join(errors)
    if moved:
        warnings.warn(f"{name}: moved within the metric tolerance: " + "; ".join(moved))


class TestDifferences:
    def test_a_metric_off_by_1e_11_fails(self):
        golden = read("compare-seed5.csv")
        scaled = [dict(row) for row in golden]
        scaled[4]["metric"] = repr(float(scaled[4]["metric"]) * (1 + 1e-11))
        errors, _ = differences(golden, scaled)
        assert len(errors) == 1 and errors[0].startswith("row 4: metric")

    def test_a_moved_point_with_the_same_metric_passes_and_is_named(self):
        golden = read("compare-seed5.csv")
        moved = [dict(row) for row in golden]
        moved[0]["y_star"] = repr(float(moved[0]["y_star"]) + 1e-9)
        moved[3]["eta_star"] = "7"
        errors, named = differences(golden, moved)
        assert not errors
        assert [m.split(":")[0] for m in named] == ["row 0", "row 3"]

    def test_evals_and_schemes_match_exactly(self):
        golden = read("compare-seed5.csv")
        for column in ("evals", "scheme"):
            changed = [dict(row) for row in golden]
            changed[1][column] += "0"
            errors, _ = differences(golden, changed)
            assert len(errors) == 1 and column in errors[0]

    def test_landscape_keeps_each_level_maximum(self):
        golden = read("landscape-seed5.csv")
        assert [int(row["eta"]) for row in golden] == list(range(1, len(golden) + 1))
        assert all(math.isfinite(float(row["metric"])) for row in golden)
