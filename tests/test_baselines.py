from unittest import mock

import numpy as np
import pytest

from gma import baselines
from gma.arrays import ArrayConfig, PathSet
from gma.baselines import (MaLayout, exhaustive_search, fpa_metric,
                           gma_element_positions, layout_metric, ma_optimize,
                           ma_span)
from gma.combining import LinkPowers, objective_metric
from gma.experiments import run_trial_schemes
from gma.multiuser import optimize_multiuser, scan
from gma.optim import GridSpec, OptimizerSettings, position_grid
from gma.sca import snr_profile
from gma.scenario import ScenarioParams, sample_scenario

from util import WAVELENGTH, make_cfg, random_paths, sum_rate


def seeded_instance(seed, K=3, L=3, span_wavelengths=15.0, M=16):
    rng = np.random.default_rng(seed)
    cfg = make_cfg(M=M, N=4, span_wavelengths=span_wavelengths)
    users = [random_paths(rng, L=L) for _ in range(K)]
    powers = LinkPowers(p_bar=rng.uniform(0.5, 4.0, K))
    return cfg, users, powers


class TestFpaMetric:
    def test_single_unit_path(self, cfg_small):
        users = [PathSet(gains=np.array([1.0 + 0j]), aoas=np.array([0.4]))]
        powers = LinkPowers(p_bar=np.array([2.0]))
        np.testing.assert_allclose(fpa_metric(users, powers, cfg_small),
                                   2.0 * cfg_small.N, rtol=1e-12)

    def test_equals_restricted_optimizer(self):
        # compact-only array over a singleton region: the optimizer has a
        # single admissible configuration, the fixed-array one
        cfg = ArrayConfig(M=4, N=4, wavelength=WAVELENGTH, y_min=0.02, y_max=0.02)
        rng = np.random.default_rng(5)
        users = [random_paths(rng, L=3) for _ in range(3)]
        powers = LinkPowers(p_bar=rng.uniform(0.5, 3.0, 3))
        sol = optimize_multiuser(users, powers, cfg)
        assert sol.objective == fpa_metric(users, powers, cfg)
        assert (sol.y_star, sol.eta_star) == (0.02, 1)

    def test_matches_reference_sum_rate(self):
        cfg, users, powers = seeded_instance(8, K=5)
        np.testing.assert_allclose(
            fpa_metric(users, powers, cfg),
            sum_rate(cfg.y_min, 1, users, powers, cfg), rtol=1e-12)

    def test_custom_position(self, cfg_small, rng):
        users = [random_paths(rng, L=2)]
        powers = LinkPowers(p_bar=np.array([1.0]))
        y = 0.5 * (cfg_small.y_min + cfg_small.y_max)
        assert fpa_metric(users, powers, cfg_small, y_fpa=y) == \
            objective_metric(y, 1, users, powers, cfg_small)


class TestMaLayout:
    def test_accepts_feasible_layout(self):
        MaLayout(positions=np.array([0.0, 0.01, 0.02]), min_gap=0.005,
                 lo=0.0, hi=0.05)

    def test_rejects_tight_spacing(self):
        with pytest.raises(ValueError):
            MaLayout(positions=np.array([0.0, 0.004]), min_gap=0.005,
                     lo=0.0, hi=0.05)

    def test_rejects_span_violation(self):
        with pytest.raises(ValueError):
            MaLayout(positions=np.array([0.0, 0.06]), min_gap=0.005,
                     lo=0.0, hi=0.05)

    def test_group_positions_always_map_to_feasible_layout(self, rng):
        cfg = make_cfg(M=16, N=4, span_wavelengths=10.0)
        lo, hi = ma_span(cfg)
        for _ in range(20):
            eta = int(rng.integers(1, cfg.eta_max + 1))
            y = rng.uniform(cfg.y_min, cfg.y_max)
            pos = gma_element_positions(y, eta, cfg)
            layout = MaLayout(positions=pos, min_gap=cfg.wavelength / 2, lo=lo, hi=hi)
            assert np.all(np.diff(layout.positions) >= cfg.wavelength / 2 * (1 - 1e-9))


class TestMaOptimize:
    def test_flat_single_path_metric(self, rng):
        cfg = make_cfg(M=8, N=4, span_wavelengths=6.0)
        users = [PathSet(gains=np.array([0.5 + 0.5j]), aoas=np.array([-0.3]))]
        powers = LinkPowers(p_bar=np.array([3.0]))
        layout, metric, _ = ma_optimize(users, powers, cfg)
        np.testing.assert_allclose(metric, 3.0 * 0.5 * cfg.N, rtol=1e-9)

    def test_ascent_from_group_solution_dominates_it(self):
        for seed in range(4):
            cfg, users, powers = seeded_instance(seed)
            sol = optimize_multiuser(users, powers, cfg)
            init = gma_element_positions(sol.y_star, sol.eta_star, cfg)
            layout, metric, _ = ma_optimize(users, powers, cfg, init=init)
            assert metric >= layout_metric(init, users, powers, cfg)
            assert metric >= sol.objective

    def test_layout_respects_constraints(self):
        cfg, users, powers = seeded_instance(13)
        layout, _, _ = ma_optimize(users, powers, cfg)
        lo, hi = ma_span(cfg)
        gaps = np.diff(layout.positions)
        assert np.all(gaps >= cfg.wavelength / 2 * (1 - 1e-9))
        assert layout.positions[0] >= lo - 1e-12
        assert layout.positions[-1] <= hi + 1e-12

    def test_default_start_is_competitive_with_multi_restart(self, rng):
        cfg = make_cfg(M=8, N=4, span_wavelengths=8.0)
        ps = random_paths(rng, L=2, equal_amplitude=True)
        users, powers = [ps], LinkPowers(p_bar=np.array([1.0]))
        sol = optimize_multiuser(users, powers, cfg)
        init = gma_element_positions(sol.y_star, sol.eta_star, cfg)
        _, single, _ = ma_optimize(users, powers, cfg, init=init)
        _, best20, _ = ma_optimize(users, powers, cfg, restarts=20, seed=7)
        assert single >= 0.99 * best20

    def test_metric_matches_layout_reevaluation(self):
        cfg, users, powers = seeded_instance(21)
        layout, metric, _ = ma_optimize(users, powers, cfg)
        assert metric == layout_metric(layout.positions, users, powers, cfg)

    def test_evals_count_every_scored_layout(self):
        cfg, users, powers = seeded_instance(5)
        sol = optimize_multiuser(users, powers, cfg)
        init = gma_element_positions(sol.y_star, sol.eta_star, cfg)
        with mock.patch.object(baselines, "layout_channel_stack",
                               wraps=baselines.layout_channel_stack) as spy:
            _, _, evals = ma_optimize(users, powers, cfg, init=init,
                                      restarts=2, seed=3)
        rows = sum(np.atleast_2d(c.args[0]).shape[0] for c in spy.call_args_list)
        assert evals == rows > 1 + 2 * cfg.N

    def test_records_carry_the_evals(self):
        scenario = sample_scenario(ScenarioParams(K=2, M=16, seed=4), 0)
        with mock.patch.object(baselines, "layout_channel_stack",
                               wraps=baselines.layout_channel_stack) as spy:
            (ma,) = run_trial_schemes(scenario, ("ma",), OptimizerSettings(),
                                      GridSpec())
        assert ma.evals == sum(c.args[0].shape[0] for c in spy.call_args_list)

    @pytest.mark.parametrize("params,trial", [
        (ScenarioParams(seed=10, M=32, region=(0.0, 31 * ScenarioParams().d)), 0),
        (ScenarioParams(seed=645123796), 15),
    ])
    def test_warm_start_at_minimum_spacing(self, params, trial):
        # the GMA solution at eta = 1 puts every antenna at the minimum
        # spacing from its neighbors; rounding used to leave a slot with an
        # empty interval, and the scan of that slot raised
        scenario = sample_scenario(params, trial)
        gma, ma = run_trial_schemes(scenario, ("gma", "ma"), OptimizerSettings(),
                                    GridSpec())
        assert gma.eta_star == 1
        assert ma.metric >= gma.metric

    def test_rejects_infeasible_start(self, cfg_small, rng):
        users = [random_paths(rng, L=2)]
        powers = LinkPowers(p_bar=np.array([1.0]))
        bad = np.array([0.0, 1e-4, 2e-4, 3e-4])  # gaps below half wavelength
        with pytest.raises(ValueError):
            ma_optimize(users, powers, cfg_small, init=bad)


class TestExhaustiveSearch:
    def test_singleton_product(self):
        cfg = ArrayConfig(M=4, N=4, wavelength=WAVELENGTH, y_min=0.01, y_max=0.01)
        rng = np.random.default_rng(2)
        users = [random_paths(rng, L=2)]
        powers = LinkPowers(p_bar=np.array([2.0]))
        y, eta, val, _ = exhaustive_search(users, powers, cfg, WAVELENGTH / 16)
        assert (y, eta) == (0.01, 1)
        np.testing.assert_allclose(
            val, objective_metric(0.01, 1, users, powers, cfg), rtol=1e-12)

    def test_argmax_reevaluates(self, rng):
        cfg = make_cfg(M=8, N=4, span_wavelengths=6.0)
        users = [random_paths(rng, L=2)]
        powers = LinkPowers(p_bar=np.array([1.0]))
        y, eta, val, _ = exhaustive_search(users, powers, cfg, WAVELENGTH / 64)
        np.testing.assert_allclose(
            val, objective_metric(y, eta, users, powers, cfg), rtol=1e-12)

    def test_dominates_random_grid_points_single_user(self, rng):
        cfg = make_cfg(M=8, N=4, span_wavelengths=6.0)
        users = [random_paths(rng, L=2)]
        powers = LinkPowers(p_bar=np.array([1.5]))
        step = WAVELENGTH / 64
        _, _, val, _ = exhaustive_search(users, powers, cfg, step)
        pts = position_grid(cfg.y_min, cfg.y_max, step)
        idx = rng.integers(0, pts.size, 1000)
        etas = rng.integers(1, cfg.eta_max + 1, 1000)
        for i in range(1000):
            other = objective_metric(float(pts[idx[i]]), int(etas[i]),
                                     users, powers, cfg)
            assert val >= other - 1e-9 * abs(val)

    def test_dominates_random_grid_points_multi_user(self, rng):
        cfg, users, powers = seeded_instance(17, span_wavelengths=6.0, M=8)
        step = WAVELENGTH / 32
        _, _, val, _ = exhaustive_search(users, powers, cfg, step)
        pts = position_grid(cfg.y_min, cfg.y_max, step)
        for _ in range(200):
            y = float(pts[rng.integers(0, pts.size)])
            eta = int(rng.integers(1, cfg.eta_max + 1))
            assert val >= objective_metric(y, eta, users, powers, cfg)

    def test_lattice_optimizer_never_exceeds_oracle(self):
        for seed in range(4):
            cfg, users, powers = seeded_instance(seed)
            step = cfg.wavelength / 16
            sol = optimize_multiuser(users, powers, cfg,
                                     grid=GridSpec(step=step, refine_levels=0))
            _, _, oracle, _ = exhaustive_search(users, powers, cfg, step)
            assert sol.objective <= oracle

    @pytest.mark.parametrize("confine", [False, True])
    def test_single_user_oracle_scores_the_scan_lattice(self, confine):
        # the Gram-pair route scores the same (y, eta) points as scan, the
        # upper end of each confined level included
        params = ScenarioParams(K=1, M=16, region=(0.0, 0.06),
                                confine_aperture=confine, seed=3)
        step = params.wavelength / 64
        for trial in range(4):
            sc = sample_scenario(params, trial)
            y, eta, _, evals = exhaustive_search(sc.users, sc.powers, sc.cfg, step)
            [(_, y_s, eta_s, evals_s)] = scan([(sc.cfg.feasible_etas(), sc.cfg)],
                                              step, sc.users, sc.powers)
            assert (y, eta, evals) == (y_s, eta_s, evals_s)

    def test_rejects_bad_step(self, cfg_small, rng):
        users = [random_paths(rng, L=2)]
        with pytest.raises(ValueError):
            exhaustive_search(users, LinkPowers(p_bar=np.array([1.0])),
                              cfg_small, -1.0)


class TestExhaustiveSingleUserPlainForm:
    """The single-user grid search without the pair tables: one path, or
    more pair-table entries than the cap of 4,000,000."""

    @staticmethod
    def search_and_reference(paths, cfg, step, p_bar=1.7):
        """exhaustive_search's result, and the best snr_profile value over
        the same levels and grids, its (y, eta) and the points scored."""
        got = exhaustive_search([paths], LinkPowers(p_bar=np.array([p_bar])),
                                cfg, step)
        best, points = (-np.inf, None, None), 0
        for eta in cfg.feasible_etas():
            grid = position_grid(*cfg.position_bounds(eta), step)
            vals = snr_profile(grid, eta, paths, cfg, p_bar)
            points += grid.size
            i = int(np.argmax(vals))
            if vals[i] > best[0]:
                best = (float(vals[i]), float(grid[i]), eta)
        return got, best, points

    @pytest.mark.parametrize("confine", [False, True])
    def test_one_path_is_flat_at_every_level(self, confine):
        cfg = make_cfg(M=16, N=4, span_wavelengths=3.0, confine_aperture=confine)
        ps = PathSet(gains=np.array([0.8 * np.exp(0.4j)]), aoas=np.array([-0.3]))
        (y, eta, val, evals), (ref, _, _), points = self.search_and_reference(
            ps, cfg, cfg.wavelength / 200)
        np.testing.assert_allclose(val, ref, rtol=1e-9)
        np.testing.assert_allclose(val, 1.7 * 0.64 * cfg.N, rtol=1e-9)
        np.testing.assert_allclose(
            snr_profile([y], eta, ps, cfg, 1.7)[0], ref, rtol=1e-9)
        lo, hi = cfg.position_bounds(eta)
        assert lo <= y <= hi and evals == points

    def test_pair_tables_above_the_cap(self):
        # M = N: eta = 1 is the only level; 10 paths give 45 path pairs
        cfg = make_cfg(M=4, N=4, span_wavelengths=90.0)
        ps = random_paths(np.random.default_rng(5), L=10)
        step = cfg.wavelength / 1000
        size = position_grid(cfg.y_min, cfg.y_max, step).size
        assert size * 45 > 4_000_000
        (y, eta, val, evals), (ref, y_ref, eta_ref), points = (
            self.search_and_reference(ps, cfg, step))
        np.testing.assert_allclose(val, ref, rtol=1e-9)
        assert (y, eta, evals) == (y_ref, eta_ref, points) == (y, 1, size)
