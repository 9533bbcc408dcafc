import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from gma import combining, experiments
from gma.arrays import PathSet
from gma.baselines import fpa_metric
from gma.combining import LinkPowers, PointScores, objective_metric
from gma.experiments import (CSV_COLUMNS, landscape, reevaluate_record,
                             run_compare, run_metadata, run_sweep,
                             run_trial_schemes, write_metadata,
                             write_records_csv)
from gma.multiuser import scan
from gma.optim import GridSpec, OptimizerSettings, position_grid
from gma.scenario import Scenario, ScenarioParams, sample_scenario

SMALL = ScenarioParams(K=2, M=16, paths_per_user=3, region=(0.0, 0.06), seed=3)
SETTINGS = OptimizerSettings()
GRID = GridSpec()


def scenario_with(users, powers, cfg):
    return Scenario(users=tuple(users), powers=powers, cfg=cfg,
                    user_positions=np.zeros((len(users), 2)), seed=0, trial=0)


class TestLandscape:
    def test_flat_single_path_gap_is_zero_db(self, cfg_small):
        users = [PathSet(gains=np.array([1.0 + 0j]), aoas=np.array([0.3]))]
        scn = scenario_with(users, LinkPowers(p_bar=np.array([2.0])), cfg_small)
        result = landscape(scn)
        assert result.gap_units == "dB"
        assert result.gap < 1e-12

    def test_gap_matches_direct_scan(self, cfg_small, rng):
        from util import random_paths
        users = [random_paths(rng, L=2, equal_amplitude=True)]
        scn = scenario_with(users, LinkPowers(p_bar=np.array([1.0])), cfg_small)
        y_grid = position_grid(cfg_small.y_min, cfg_small.y_max,
                               cfg_small.wavelength / 8)
        result = landscape(scn, grid_step=cfg_small.wavelength / 8)
        direct = [objective_metric(float(y), eta, users, scn.powers, cfg_small)
                  for eta in cfg_small.feasible_etas() for y in y_grid]
        np.testing.assert_allclose(result.metric_max, max(direct), rtol=1e-12)
        np.testing.assert_allclose(result.metric_min, min(direct), rtol=1e-12)
        np.testing.assert_allclose(
            result.gap, 10 * np.log10(max(direct) / min(direct)), rtol=1e-9)

    def test_multi_user_gap_in_bits(self):
        scn = sample_scenario(SMALL, trial=0)
        result = landscape(scn, grid_step=SMALL.wavelength / 8)
        assert result.gap_units == "bits/s/Hz"
        assert result.gap > 0
        assert result.metric.shape == (len(result.eta_values), result.y_values.size)

    def test_rejects_empty_grids(self):
        # the confined region is shorter than the compact aperture 3d
        params = replace(SMALL, region=(0.0, 0.01), confine_aperture=True)
        scn = sample_scenario(params, trial=0)
        with pytest.raises(ValueError, match="no feasible sparsity level"):
            landscape(scn)


class TestRunCompare:
    def test_fpa_record_matches_direct_call(self):
        records = run_compare(SMALL, SETTINGS, GRID, trials=1, schemes=("fpa",))
        assert len(records) == 1
        rec = records[0]
        scn = sample_scenario(SMALL, trial=0)
        assert rec.metric == fpa_metric(scn.users, scn.powers, scn.cfg)
        assert rec.scheme == "fpa"
        assert rec.eta_star == 1

    def test_scheme_ordering_per_trial(self):
        records = run_compare(SMALL, SETTINGS, GRID, trials=2,
                              schemes=("gma", "fpa", "ma"))
        by_trial = {}
        for rec in records:
            by_trial.setdefault(rec.seed, {})[rec.scheme] = rec.metric
        for metrics in by_trial.values():
            assert metrics["ma"] >= metrics["gma"] >= metrics["fpa"]

    def test_oracle_dominates_gma_up_to_tolerance(self):
        records = run_compare(SMALL, SETTINGS, GRID, trials=1,
                              schemes=("gma", "oracle"),
                              oracle_step=SMALL.wavelength / 500)
        gma = next(r for r in records if r.scheme == "gma")
        oracle = next(r for r in records if r.scheme == "oracle")
        assert oracle.metric >= gma.metric - 1e-6 * abs(gma.metric)

    @pytest.mark.parametrize("K", [1, 3])
    @pytest.mark.parametrize("confine", [False, True])
    def test_oracle_evals_are_the_lattice_size(self, K, confine):
        # region (0, 0.06) puts every level's upper end off the lambda/64
        # lattice, so each level's grid ends in an appended point
        params = ScenarioParams(K=K, M=16, paths_per_user=3, region=(0.0, 0.06),
                                confine_aperture=confine, seed=3)
        step = params.wavelength / 64
        (record,) = run_compare(params, SETTINGS, GRID, trials=1,
                                schemes=("oracle",), oracle_step=step)
        cfg = params.array_config()
        assert record.evals == sum(
            position_grid(*cfg.position_bounds(eta), step).size
            for eta in cfg.feasible_etas())

    def test_every_record_reevaluates_identically(self):
        records = run_compare(SMALL, SETTINGS, GRID, trials=1,
                              schemes=("gma", "fpa", "ma", "oracle"),
                              oracle_step=SMALL.wavelength / 64)
        for rec in records:
            assert reevaluate_record(rec, SMALL) == rec.metric

    def test_every_sweep_record_reevaluates_identically(self):
        # at seed 7, two of the four gma records are injected candidates
        # that beat their own region's search
        params = ScenarioParams(K=2, M=16, paths_per_user=2, seed=7)
        counts, multiples = (8, 16), (1, 2)
        records = run_sweep(params, SETTINGS, GRID, trials=1,
                            region_multiples=multiples, element_counts=counts,
                            schemes=("gma", "fpa"))
        cells = [replace(params, M=m, region=(0.0, mult * 31 * params.d))
                 for m in counts for mult in multiples]
        assert len(records) == 2 * len(cells)
        for i, rec in enumerate(records):
            combo = cells[i // 2]  # a gma and an fpa record per cell
            assert rec.M == combo.M
            assert reevaluate_record(rec, combo) == rec.metric

    def test_single_user_sca_lane(self):
        params = ScenarioParams(K=1, M=16, paths_per_user=2,
                                region=(0.0, 0.06), seed=5)
        records = run_compare(params, SETTINGS, GRID, trials=2,
                              schemes=("gma", "fpa"), single_user_sca=True)
        assert len(records) == 4
        for rec in records:
            assert rec.K == 1
            assert reevaluate_record(rec, params) == rec.metric

    @pytest.mark.parametrize("confine", [False, True])
    def test_one_user_runs_one_search_whatever_single_user_sca_says(
            self, confine):
        params = ScenarioParams(K=1, M=16, paths_per_user=3, region=(0.0, 0.06),
                                confine_aperture=confine, seed=8)
        runs = [run_compare(params, SETTINGS, GRID, trials=3,
                            schemes=("gma", "fpa"), single_user_sca=flag)
                for flag in (True, False)]
        assert [replace(r, wall_ms=0.0) for r in runs[0]] == [
            replace(r, wall_ms=0.0) for r in runs[1]]

    def test_single_user_sca_still_rejects_several_users(self):
        with pytest.raises(ValueError, match="single user"):
            run_compare(SMALL, SETTINGS, GRID, trials=1, schemes=("gma",),
                        single_user_sca=True)

    def test_no_memo_outlives_its_trial(self, monkeypatch):
        calls = []
        monkeypatch.setattr(combining, "objective_metric",
                            lambda *a: calls.append(a[:2]) or objective_metric(*a))
        scenario = sample_scenario(SMALL)
        first = run_trial_schemes(scenario, ("fpa",), SETTINGS, GRID)
        second = run_trial_schemes(scenario, ("fpa",), SETTINGS, GRID)
        assert calls == [(scenario.cfg.y_min, 1)] * 2
        assert first == [replace(second[0], wall_ms=first[0].wall_ms)]
        # one memo handed to both calls scores the point once
        scores = PointScores(scenario.users, scenario.powers)
        for _ in range(2):
            run_trial_schemes(scenario, ("fpa",), SETTINGS, GRID, scores=scores)
        assert len(calls) == 3

    def test_rejects_a_memo_of_other_users(self):
        scenario, other = sample_scenario(SMALL, 0), sample_scenario(SMALL, 1)
        with pytest.raises(ValueError, match="other users"):
            run_trial_schemes(scenario, ("gma", "fpa"), SETTINGS, GRID,
                              scores=PointScores(other.users, other.powers))

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            run_compare(SMALL, SETTINGS, GRID, trials=1, schemes=("bogus",))

    def test_unknown_scheme_raises_before_any_scheme_runs(self, monkeypatch):
        calls, real = [], experiments.optimize_multiuser
        monkeypatch.setattr(experiments, "optimize_multiuser",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        with pytest.raises(ValueError, match="bogus"):
            run_trial_schemes(sample_scenario(SMALL), ("gma", "bogus"),
                              SETTINGS, GRID)
        assert calls == []


class TestRunSweep:
    def test_per_trial_monotonicity_both_axes(self):
        params = ScenarioParams(K=2, M=16, paths_per_user=2, seed=11)
        records = run_sweep(params, SETTINGS, GRID, trials=2,
                            region_multiples=(1, 2), element_counts=(8, 16),
                            schemes=("gma",))
        table = {}
        for rec in records:
            mult = (rec.Y_over_D * (rec.M - 1)) / 31.0
            table[(rec.seed, rec.M, round(mult, 6))] = rec.metric
        for t in (0, 1):
            for m in (8, 16):
                assert table[(t, m, 1.0)] <= table[(t, m, 2.0)]
            for mult in (1.0, 2.0):
                assert table[(t, 8, mult)] <= table[(t, 16, mult)]

    def test_single_user_sweep_is_monotone_on_both_axes(self):
        # one user runs optimize_single_user, which takes the smaller
        # problems' solutions as injected candidates too
        params = ScenarioParams(K=1, M=16, paths_per_user=3, seed=11)
        records = run_sweep(params, SETTINGS, GRID, trials=3,
                            region_multiples=(0.5, 1, 2), element_counts=(8, 16),
                            schemes=("gma",))
        table = {(r.seed, r.M, round(r.Y_over_D * (r.M - 1) / 31.0, 6)): r.metric
                 for r in records}
        for t in range(3):
            for m in (8, 16):
                assert table[(t, m, 0.5)] <= table[(t, m, 1.0)] <= table[(t, m, 2.0)]
            for mult in (0.5, 1.0, 2.0):
                assert table[(t, 8, mult)] <= table[(t, 16, mult)]

    @pytest.mark.parametrize("confine", [False, True])
    def test_records_equal_each_problem_run_alone(self, confine):
        # the old per-problem loop, each GMA run scanning its own lattice
        params = ScenarioParams(confine_aperture=confine)
        d_max = 31 * params.d
        alone = []
        for t in range(2):
            solutions = {}
            for m in (32, 64, 128):
                for mult in (1, 2, 4, 8):
                    extra = [solutions[key] for key in ((m, mult // 2), (m // 2, mult))
                             if key in solutions]
                    scenario = sample_scenario(
                        replace(params, M=m, region=(0.0, mult * d_max)), t)
                    recs = run_trial_schemes(scenario, ("gma", "fpa"), SETTINGS,
                                             GRID, extra_candidates=extra)
                    solutions[(m, mult)] = (recs[0].y_star, recs[0].eta_star)
                    alone.extend(recs)
        swept = run_sweep(params, SETTINGS, GRID, trials=2)
        assert ([replace(r, wall_ms=0.0) for r in swept]
                == [replace(r, wall_ms=0.0) for r in alone])

    @pytest.mark.parametrize("seed", [5, 11])
    def test_records_equal_each_problem_with_its_own_memo(self, seed):
        # the shared lattice as run_sweep scans it, but a fresh memo per
        # problem: the memo's hits across problems change no record
        params = ScenarioParams(seed=seed)
        d_max, counts, multiples = 31 * params.d, (32, 64, 128), (1, 2, 4, 8)
        cells = [sample_scenario(replace(params, M=m, region=(0.0, mult * d_max)), 0)
                 for m in counts for mult in multiples]
        lattices = scan([(sc.cfg.feasible_etas(), sc.cfg) for sc in cells],
                        GRID.resolve_step(params.wavelength), cells[0].users,
                        cells[0].powers)
        alone, solutions = [], {}
        for i, (scenario, lattice) in enumerate(zip(cells, lattices)):
            m, mult = counts[i // 4], multiples[i % 4]
            extra = [solutions[key] for key in ((m, mult // 2), (m // 2, mult))
                     if key in solutions]
            recs = run_trial_schemes(scenario, ("gma", "fpa"), SETTINGS, GRID,
                                     extra_candidates=extra, lattice=lattice)
            solutions[(m, mult)] = (recs[0].y_star, recs[0].eta_star)
            alone.extend(recs)
        swept = run_sweep(params, SETTINGS, GRID, trials=1)
        assert ([replace(r, wall_ms=0.0) for r in swept]
                == [replace(r, wall_ms=0.0) for r in alone])

    @pytest.mark.parametrize("scheme", ["fpa", "oracle"])
    def test_runs_without_gma(self, scheme):
        # only gma records the solutions injected into the larger problems
        params = ScenarioParams(K=2, M=16, paths_per_user=2, seed=3)
        kwargs = dict(region_multiples=(1, 2), element_counts=(8, 16),
                      oracle_step=params.wavelength / 64)
        alone = run_sweep(params, SETTINGS, GRID, trials=1, schemes=(scheme,),
                          **kwargs)
        with_gma = run_sweep(params, SETTINGS, GRID, trials=1,
                             schemes=("gma", scheme), **kwargs)
        assert len(alone) == 4
        assert ([replace(r, wall_ms=0.0) for r in alone]
                == [replace(r, wall_ms=0.0) for r in with_gma if r.scheme == scheme])

    def test_passes_oracle_step_and_ma_restarts_to_every_problem(
            self, monkeypatch):
        seen = []
        real_search, real_ma = experiments.exhaustive_search, experiments.ma_optimize

        def search(users, powers, cfg, step, **kwargs):
            seen.append(("oracle", step))
            return real_search(users, powers, cfg, step, **kwargs)

        def ma(*args, restarts, **kwargs):
            seen.append(("ma", restarts))
            return real_ma(*args, restarts=restarts, **kwargs)

        monkeypatch.setattr(experiments, "exhaustive_search", search)
        monkeypatch.setattr(experiments, "ma_optimize", ma)
        params = ScenarioParams(K=2, M=16, paths_per_user=2, seed=2)
        step = params.wavelength / 8
        run_sweep(params, SETTINGS, GRID, trials=1, region_multiples=(1, 2),
                  element_counts=(8,), schemes=("gma", "oracle", "ma"),
                  oracle_step=step, ma_restarts=1)
        assert seen == [("oracle", step), ("ma", 1)] * 2

    def test_gma_beats_fpa_in_every_cell(self):
        params = ScenarioParams(K=2, M=16, paths_per_user=2, seed=2)
        records = run_sweep(params, SETTINGS, GRID, trials=1,
                            region_multiples=(1, 2), element_counts=(16,),
                            schemes=("gma", "fpa"))
        cells = {}
        for rec in records:
            cells.setdefault((rec.seed, rec.M, rec.Y_over_D), {})[rec.scheme] = rec.metric
        for pair in cells.values():
            assert pair["gma"] >= pair["fpa"]


class TestCsvOutput:
    def test_header_only_for_empty_records(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_records_csv([], path)
        lines = path.read_text().splitlines()
        assert lines == [",".join(CSV_COLUMNS)]

    def test_deterministic_modulo_timing(self, tmp_path):
        paths = []
        for run in range(2):
            records = run_compare(SMALL, SETTINGS, GRID, trials=2,
                                  schemes=("gma", "fpa"))
            path = tmp_path / f"run{run}.csv"
            write_records_csv(records, path)
            paths.append(path)
        rows = []
        for path in paths:
            with open(path) as fh:
                rows.append([
                    [v for c, v in zip(CSV_COLUMNS, row) if c != "wall_ms"]
                    for row in csv.reader(fh)])
        assert rows[0] == rows[1]

    def test_metadata_sidecar(self, tmp_path):
        path = tmp_path / "out.csv"
        write_records_csv([], path)
        write_metadata(path, run_metadata(SMALL, SETTINGS, GRID,
                                          {"command": "test"}))
        meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
        assert meta["decisions"]["bandwidth_hz"] == 1e6
        assert "path_gain_model" in meta["decisions"]
        assert "created_utc" in meta
        assert meta["scenario"]["K"] == 2

    def test_sidecar_says_the_seed_column_holds_the_trial_index(self, tmp_path):
        records = run_compare(SMALL, SETTINGS, GRID, trials=2, schemes=("fpa",))
        assert [r.seed for r in records] == [0, 1]
        meta = run_metadata(SMALL, SETTINGS, GRID)
        assert meta["scenario"]["seed"] == SMALL.seed == 3
        assert meta["decisions"]["csv_seed_column"] == (
            "trial index; the master seed is scenario.seed")
