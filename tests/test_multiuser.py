from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from gma import combining, multiuser
from gma.arrays import ArrayConfig, PathSet
from gma.baselines import exhaustive_search
from gma.combining import LinkPowers, metric_profiles, objective_metric
from gma.multiuser import (grid_position_search, optimize_multiuser, scan,
                           sparsity_search)
from gma.optim import GridSpec, OptimizerSettings, position_grid
from gma.sca import optimize_single_user
from gma.scenario import ScenarioParams, sample_scenario

from util import WAVELENGTH, make_cfg, random_paths, sum_rate

SETTINGS = OptimizerSettings()


def seeded_instance(seed, K=5, L=3, span_wavelengths=20.0, M=16):
    rng = np.random.default_rng(seed)
    cfg = make_cfg(M=M, N=4, span_wavelengths=span_wavelengths)
    users = [random_paths(rng, L=L) for _ in range(K)]
    powers = LinkPowers(p_bar=rng.uniform(0.5, 4.0, K))
    return cfg, users, powers


def per_level_scan(etas, step, users, powers, cfg):
    """(value, y, eta, evals) of one configuration, one level at a time."""
    best, evals = (-np.inf, None, None), 0
    for eta in etas:
        pts = position_grid(*cfg.position_bounds(eta), step)
        _, vals = next(metric_profiles(pts, [eta], users, powers, cfg))
        evals += pts.size
        i = int(np.argmax(vals))
        if vals[i] > best[0]:
            best = (float(vals[i]), float(pts[i]), eta)
    return (*best, evals)


class TestScan:
    @pytest.mark.parametrize("confine", [True, False])
    def test_matches_per_level_loop_bitwise(self, confine):
        rng = np.random.default_rng(5)
        cfg = make_cfg(M=16, N=4, span_wavelengths=6.0, confine_aperture=confine)
        users = [random_paths(rng, L=3) for _ in range(3)]
        powers = LinkPowers(p_bar=rng.uniform(0.5, 4.0, 3))
        step = WAVELENGTH / 16
        etas = cfg.feasible_etas()
        assert scan([(etas, cfg)], step, users, powers) == [
            per_level_scan(etas, step, users, powers, cfg)]

    @given(seed=st.integers(0, 10 ** 6), K=st.sampled_from([1, 3]),
           cells=st.lists(st.tuples(st.sampled_from([8, 16, 32]),
                                    st.integers(1, 8)),
                          min_size=2, max_size=4, unique=True),
           confine=st.booleans(), shape=st.sampled_from(["random", "flat", "rising"]),
           step_kind=st.sampled_from(["d/8", "lambda/100", "random"]),
           chunk=st.sampled_from([7, 64]))
    def test_each_configuration_reads_what_it_scans_alone(
            self, seed, K, cells, confine, shape, step_kind, chunk):
        # nested regions of one anchor. A clamped or appended grid end must be
        # scored on its own; "rising" users put each level's maximum at the
        # end of its grid, so a wrong read there shows. "flat" (broadside)
        # users tie every point.
        rng = np.random.default_rng(seed)
        y_min = float(rng.uniform(0.0, 0.1))
        d = WAVELENGTH / 2
        problems = []
        for M, mult in cells:
            cfg = ArrayConfig(M=M, N=4, wavelength=WAVELENGTH, y_min=y_min,
                              y_max=y_min + mult * 4 * d, confine_aperture=confine)
            problems.append((cfg.feasible_etas(), cfg))
        users = [random_paths(rng, L=3) for _ in range(K)]
        if shape == "flat":
            users = [PathSet(gains=[g], aoas=[0.0]) for g in rng.uniform(0.5, 1.5, K)]
        elif shape == "rising":
            # two paths whose beat is in phase pi/2 + 0.5 at y_min and turns
            # less than 2 rad over every region and element, so |h|^2 rises
            beat = np.pi / 2 + 0.5 + 2 * np.pi / WAVELENGTH * y_min * 0.01
            sines = rng.uniform(-0.5, 0.5, K)
            users = [PathSet(gains=[1.0, 0.7 * np.exp(-1j * beat)],
                             aoas=np.arcsin([s, s + 0.01])) for s in sines]
        powers = LinkPowers(p_bar=rng.uniform(0.5, 4.0, K))
        step = {"d/8": d / 8, "lambda/100": WAVELENGTH / 100,
                "random": float(rng.uniform(d / 40, d / 4))}[step_kind]
        with mock.patch.object(combining, "_CHUNK", chunk):
            shared = scan(problems, step, users, powers)
        for (etas, cfg), got in zip(problems, shared):
            assert got == scan([(etas, cfg)], step, users, powers)[0]
            assert got == per_level_scan(etas, step, users, powers, cfg)

    def test_configurations_must_share_the_lattice(self):
        users = [PathSet(gains=[1.0], aoas=[0.3])]
        powers = LinkPowers(p_bar=np.array([1.0]))
        base = make_cfg(M=16, N=4)
        for other in (make_cfg(M=16, N=3), make_cfg(M=16, N=4, y_min=1e-3),
                      ArrayConfig(M=16, N=4, wavelength=2 * WAVELENGTH,
                                  y_min=0.0, y_max=base.y_max)):
            with pytest.raises(ValueError, match="must share"):
                scan([([1], base), ([1], other)], WAVELENGTH / 16, users, powers)

    @pytest.mark.parametrize("confine", [True, False])
    def test_ties_go_to_first_level_then_first_point(self, confine):
        # broadside paths make the lattice flat to the last bit
        cfg = make_cfg(M=16, N=4, span_wavelengths=6.0, confine_aperture=confine)
        users = [PathSet(gains=np.array([g + 0j]), aoas=np.array([0.0]))
                 for g in (1.0, 0.7)]
        powers = LinkPowers(p_bar=np.array([2.0, 1.0]))
        etas = cfg.feasible_etas()
        [(_, y, eta, _)] = scan([(etas, cfg)], WAVELENGTH / 16, users, powers)
        assert (y, eta) == (cfg.y_min, etas[0])
        [(_, y, eta, _)] = scan([(etas[::-1], cfg)], WAVELENGTH / 16, users, powers)
        assert (y, eta) == (cfg.y_min, etas[-1])


class TestPositionGrid:
    def test_last_point_never_exceeds_the_upper_end(self):
        # at eta = 15 the confined upper end lands an ulp below the 41st
        # d/8 step, which the grid once kept and objective_metric refused
        d = WAVELENGTH / 2
        cfg = ArrayConfig(M=16, N=2, wavelength=WAVELENGTH, y_min=0.0,
                          y_max=15 * d + 40 * d / 8, confine_aperture=True)
        lo, hi = cfg.position_bounds(15)
        pts = position_grid(lo, hi, d / 8)
        assert pts.size == 41 and pts[-1] == hi
        assert np.all(np.diff(pts) > 0)
        users = [PathSet(gains=[1.0], aoas=[0.3])] * 2
        powers = LinkPowers(p_bar=np.array([1.0, 2.0]))
        _, vals = next(metric_profiles(pts, [15], users, powers, cfg))
        assert vals[-1] == objective_metric(pts[-1], 15, users, powers, cfg)

    @given(seed=st.integers(0, 10 ** 6), steps=st.integers(0, 40),
           eta=st.integers(1, 15), confine=st.booleans())
    def test_every_point_lies_in_the_interval(self, seed, steps, eta, confine):
        d = WAVELENGTH / 2
        y_min = float(np.random.default_rng(seed).uniform(0.0, 0.1))
        cfg = ArrayConfig(M=16, N=2, wavelength=WAVELENGTH, y_min=y_min,
                          y_max=y_min + 15 * d + steps * d / 8,
                          confine_aperture=confine)
        lo, hi = cfg.position_bounds(eta)
        pts = position_grid(lo, hi, d / 8)
        assert pts[0] == lo and np.all(pts <= hi) and np.all(np.diff(pts) > 0)
        assert hi - pts[-1] <= 1e-12 * max(1.0, abs(hi))
        for y in pts[-2:]:
            cfg.validate_position(y, eta)


class TestConfinedAperture:
    def test_solutions_stay_inside_their_level_bounds(self):
        cfg = make_cfg(M=16, N=4, span_wavelengths=8.0, confine_aperture=True)
        step = WAVELENGTH / 32
        for seed in range(3):
            _, users, powers = seeded_instance(seed, K=3)
            single = LinkPowers(p_bar=powers.p_bar[:1])
            sol = optimize_multiuser(users, powers, cfg)
            sca = optimize_single_user(users[0], SETTINGS, cfg)
            found = [(sol.y_star, sol.eta_star), (sca.y_star, sca.eta_star),
                     exhaustive_search(users, powers, cfg, step)[:2],
                     exhaustive_search(users[:1], single, cfg, step)[:2]]
            for y, eta in found:
                lo, hi = cfg.position_bounds(eta)
                assert lo <= y <= hi, (seed, y, eta)


class TestGridPositionSearch:
    def test_singleton_region(self):
        cfg = ArrayConfig(M=16, N=4, wavelength=WAVELENGTH, y_min=0.01, y_max=0.01)
        users = [random_paths(np.random.default_rng(0), L=2)]
        powers = LinkPowers(p_bar=np.array([1.0]))
        y, val = grid_position_search(2, users, powers, cfg)
        assert y == 0.01
        assert val == objective_metric(0.01, 2, users, powers, cfg)

    def test_flat_objective_returns_first_grid_point(self, cfg_small):
        # broadside path: the landscape is flat to the last bit, so the
        # deterministic tie-break is observable
        users = [PathSet(gains=np.array([1.0 + 0j]), aoas=np.array([0.0]))]
        powers = LinkPowers(p_bar=np.array([2.0]))
        y, val = grid_position_search(1, users, powers, cfg_small,
                                      GridSpec(refine_levels=0))
        assert y == cfg_small.y_min
        np.testing.assert_allclose(val, 2.0 * cfg_small.N, rtol=1e-12)

    def test_beats_ten_times_finer_grid(self):
        cfg, users, powers = seeded_instance(7)
        step = WAVELENGTH / 16
        y, val = grid_position_search(3, users, powers, cfg, GridSpec(step=step))
        fine = position_grid(cfg.y_min, cfg.y_max, step / 10)
        fine_best = max(objective_metric(float(p), 3, users, powers, cfg)
                        for p in fine)
        assert val >= fine_best - 1e-3


class TestSparsitySearch:
    def test_singleton_domain(self):
        cfg = make_cfg(M=4, N=4)
        users = [random_paths(np.random.default_rng(1), L=2)]
        powers = LinkPowers(p_bar=np.array([1.5]))
        eta, val = sparsity_search(0.0, users, powers, cfg)
        assert eta == 1
        assert val == objective_metric(0.0, 1, users, powers, cfg)

    def test_flat_objective_tie_breaks_small(self, cfg_small):
        users = [PathSet(gains=np.array([1.0 + 0j]), aoas=np.array([0.0]))]
        powers = LinkPowers(p_bar=np.array([2.0]))
        assert sparsity_search(0.005, users, powers, cfg_small)[0] == 1

    def test_matches_exhaustive_reevaluation(self):
        cfg, users, powers = seeded_instance(3)
        y = 0.013
        eta, val = sparsity_search(y, users, powers, cfg)
        vals = [sum_rate(y, e, users, powers, cfg)
                for e in cfg.feasible_etas()]
        assert eta == int(np.argmax(vals)) + 1
        np.testing.assert_allclose(val, max(vals), rtol=1e-9)


class TestOptimizeMultiuser:
    def test_single_user_matches_sca_optimizer(self):
        from gma.sca import optimize_single_user
        for seed in range(5):
            cfg, users, powers = seeded_instance(seed, K=1, L=2)
            sol = optimize_multiuser(users, powers, cfg)
            sca = optimize_single_user(users[0], SETTINGS, cfg,
                                       p_bar=float(powers.p_bar[0]))
            assert abs(10 * np.log10(sol.objective / sca.objective)) < 0.01

    def test_evals_count_every_scored_point(self, monkeypatch):
        # with confine_aperture a sparsity search scores only the levels whose
        # interval holds its y: here 7 of the 10 feasible ones. evals counts
        # the points compared: the scan's, and every lookup in the trial's
        # memo, hits included; the memo scores only the points it misses.
        scenario = sample_scenario(
            ScenarioParams(K=3, M=32, confine_aperture=True, seed=5), 5)
        scanned, compared, scored = [], [], []

        def counted(y_values, etas, *args):
            for eta, vals in metric_profiles(y_values, etas, *args):
                scanned.append(vals.size)
                yield eta, vals

        def memo_scored(y_values, etas, *args):
            for eta, vals in metric_profiles(y_values, etas, *args):
                scored.append(vals.size)
                yield eta, vals

        profiles, point = combining.PointScores.profiles, combining.PointScores.point

        def looked_up(self, y_values, etas, cfg):
            vals = profiles(self, y_values, etas, cfg)
            compared.append(vals.size)
            return vals

        def looked_up_point(self, y, eta, cfg):
            compared.append(1)
            return point(self, y, eta, cfg)

        monkeypatch.setattr(multiuser, "metric_profiles", counted)  # the scan
        monkeypatch.setattr(combining, "metric_profiles", memo_scored)
        monkeypatch.setattr(combining, "objective_metric",
                            lambda *a: scored.append(1) or objective_metric(*a))
        monkeypatch.setattr(combining.PointScores, "profiles", looked_up)
        monkeypatch.setattr(combining.PointScores, "point", looked_up_point)
        sol = optimize_multiuser(scenario.users, scenario.powers, scenario.cfg)
        assert sol.rounds >= 1
        assert sol.evals == sum(scanned) + sum(compared)
        assert 0 < sum(scored) < sum(compared)

    def test_rank_one_instance_matches_hand_formula(self, cfg_small):
        # every user rides the same single-path direction: the metric is
        # flat in (y, eta) and each SINR follows the rank-one closed form
        theta = 0.55
        gains = np.array([1.0, 0.8, 1.3])
        p = np.array([2.0, 1.0, 0.5])
        users = [PathSet(gains=np.array([g + 0j]), aoas=np.array([theta]))
                 for g in gains]
        powers = LinkPowers(p_bar=p)
        sol = optimize_multiuser(users, powers, cfg_small)
        n = cfg_small.N
        expected = 0.0
        for k in range(3):
            interf = sum(p[i] * gains[i] ** 2 * n for i in range(3) if i != k)
            expected += np.log2(1.0 + p[k] * gains[k] ** 2 * n / (1.0 + interf))
        np.testing.assert_allclose(sol.objective, expected, rtol=1e-9)
        np.testing.assert_allclose(
            sol.objective,
            sum_rate(sol.y_star, sol.eta_star, users, powers, cfg_small),
            rtol=1e-9)

    def test_zero_power_returns_immediately(self, cfg_small):
        users = [random_paths(np.random.default_rng(0), L=2) for _ in range(2)]
        powers = LinkPowers(p_bar=np.array([0.0, 0.0]))
        sol = optimize_multiuser(users, powers, cfg_small)
        assert sol.objective == 0.0
        assert sol.rounds == 1
        assert sol.eta_star == 1
        assert sol.y_star == cfg_small.y_min

    def test_objective_reevaluates_identically(self):
        cfg, users, powers = seeded_instance(11)
        sol = optimize_multiuser(users, powers, cfg)
        assert sol.objective == objective_metric(sol.y_star, sol.eta_star,
                                                 users, powers, cfg)

    def test_trace_non_decreasing(self):
        for seed in range(5):
            cfg, users, powers = seeded_instance(seed)
            sol = optimize_multiuser(users, powers, cfg)
            trace = np.asarray(sol.trace)
            assert np.all(np.diff(trace) >= -1e-12 * np.abs(trace[:-1]))

    def test_deterministic(self):
        cfg, users, powers = seeded_instance(4)
        a = optimize_multiuser(users, powers, cfg)
        b = optimize_multiuser(users, powers, cfg)
        assert (a.y_star, a.eta_star, a.objective, a.trace, a.evals) == \
               (b.y_star, b.eta_star, b.objective, b.trace, b.evals)

    def test_dominates_compact_baseline(self):
        from gma.baselines import fpa_metric
        for seed in range(5):
            cfg, users, powers = seeded_instance(seed)
            sol = optimize_multiuser(users, powers, cfg)
            assert sol.objective >= fpa_metric(users, powers, cfg)

    @given(seed=st.integers(0, 10 ** 6))
    @hyp_settings(max_examples=10, deadline=None)
    def test_nested_region_monotonicity_on_lattice(self, seed):
        rng = np.random.default_rng(seed)
        users = [random_paths(rng, L=2) for _ in range(2)]
        powers = LinkPowers(p_bar=rng.uniform(0.5, 4.0, 2))
        grid = GridSpec(refine_levels=0)
        objectives = []
        for span in (4.0, 8.0, 16.0):
            cfg = make_cfg(M=8, N=4, span_wavelengths=span)
            objectives.append(
                optimize_multiuser(users, powers, cfg, grid).objective)
        assert objectives[0] <= objectives[1] <= objectives[2]

    @given(seed=st.integers(0, 10 ** 6))
    @hyp_settings(max_examples=10, deadline=None)
    def test_eta_domain_monotonicity_on_lattice(self, seed):
        rng = np.random.default_rng(seed)
        users = [random_paths(rng, L=2) for _ in range(2)]
        powers = LinkPowers(p_bar=rng.uniform(0.5, 4.0, 2))
        grid = GridSpec(refine_levels=0)
        objectives = []
        for m in (8, 16, 32):
            cfg = make_cfg(M=m, N=4, span_wavelengths=10.0)
            objectives.append(
                optimize_multiuser(users, powers, cfg, grid).objective)
        assert objectives[0] <= objectives[1] <= objectives[2]

    def test_injected_candidate_guarantees_monotone_refined_sweep(self):
        # with refinement on, chaining solutions into the larger run keeps
        # the sweep exactly monotone
        rng = np.random.default_rng(99)
        users = [random_paths(rng, L=3) for _ in range(3)]
        powers = LinkPowers(p_bar=rng.uniform(0.5, 4.0, 3))
        prev = None
        prev_obj = -np.inf
        for span in (4.0, 8.0, 16.0):
            cfg = make_cfg(M=16, N=4, span_wavelengths=span)
            extra = [] if prev is None else [prev]
            sol = optimize_multiuser(users, powers, cfg, extra_candidates=extra)
            assert sol.objective >= prev_obj
            prev, prev_obj = (sol.y_star, sol.eta_star), sol.objective

    def test_rejects_infeasible_injection(self, cfg_small):
        users = [random_paths(np.random.default_rng(0), L=2)]
        powers = LinkPowers(p_bar=np.array([1.0]))
        with pytest.raises(ValueError):
            optimize_multiuser(users, powers, cfg_small,
                               extra_candidates=[(cfg_small.y_max + 1.0, 1)])
        with pytest.raises(ValueError):
            optimize_multiuser(users, powers, cfg_small,
                               extra_candidates=[(0.0, cfg_small.eta_max + 1)])

    def test_rejects_mismatched_users_and_powers(self, cfg_small):
        users = [random_paths(np.random.default_rng(0), L=2)]
        with pytest.raises(ValueError):
            optimize_multiuser(users, LinkPowers(p_bar=np.array([1.0, 1.0])),
                               cfg_small)
