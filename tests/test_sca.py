import numpy as np
import pytest
from hypothesis import given, strategies as st

from gma.arrays import PathSet, sparse_steering_matrix
from gma.optim import OptimizerSettings, position_grid
from gma.sca import (ScaState, make_sca_state, optimize_position_sca,
                     optimize_single_user, optimize_sparsity, path_matrix,
                     phase_vector, snr_profile, surrogate_step)

from util import (WAVELENGTH, fd_highprec, g_derivative, g_second_derivative,
                  g_value, loop_channel, make_cfg, random_paths, surrogate_value)

SETTINGS = OptimizerSettings()


def two_path(rng, equal_amplitude=True):
    return random_paths(rng, L=2, equal_amplitude=equal_amplitude)


def objective(y, eta, paths, cfg):
    """Independent re-evaluation of ||A f||^2 through the channel route."""
    return float(np.sum(np.abs(loop_channel(y, eta, paths, cfg)) ** 2))


class TestPathMatrix:
    def test_single_broadside_path(self, cfg_small):
        ps = PathSet(gains=np.array([1.0 + 0j]), aoas=np.array([0.0]))
        np.testing.assert_array_equal(path_matrix(2, ps, cfg_small),
                                      np.ones((cfg_small.N, 1)))

    def test_compact_columns_match_steering(self, cfg_small, rng):
        ps = random_paths(rng, L=2)
        A = path_matrix(1, ps, cfg_small)
        for l in range(2):
            np.testing.assert_allclose(
                A[:, l],
                ps.gains[l] * sparse_steering_matrix(1, [ps.aoas[l]], cfg_small)[0],
                rtol=1e-14)

    def test_column_norms(self, cfg_small, rng):
        ps = random_paths(rng, L=4)
        A = path_matrix(3, ps, cfg_small)
        np.testing.assert_allclose(np.linalg.norm(A, axis=0),
                                   np.abs(ps.gains) * np.sqrt(cfg_small.N),
                                   rtol=1e-12)

    def test_objective_equals_channel_norm(self, cfg_small, rng):
        ps = random_paths(rng, L=3)
        for eta in (1, 2, 5):
            A = path_matrix(eta, ps, cfg_small)
            for y in rng.uniform(0.0, cfg_small.y_max, 100):
                direct = float(np.sum(np.abs(A @ phase_vector(y, ps, cfg_small)) ** 2))
                np.testing.assert_allclose(direct, objective(y, eta, ps, cfg_small),
                                           rtol=1e-9)

    def test_snr_profile_matches_channel_norms(self, cfg_small, rng):
        ps = random_paths(rng, L=3)
        ys = rng.uniform(0.0, cfg_small.y_max, 50)
        prof = snr_profile(ys, 2, ps, cfg_small, p_bar=1.7)
        expected = [1.7 * objective(y, 2, ps, cfg_small) for y in ys]
        np.testing.assert_allclose(prof, expected, rtol=1e-9)


class TestPhaseVector:
    def test_zero_position(self, cfg_small, rng):
        ps = random_paths(rng, L=3)
        np.testing.assert_array_equal(phase_vector(0.0, ps, cfg_small), np.ones(3))

    def test_broadside_path_entry_is_one(self, cfg_small):
        ps = PathSet(gains=np.array([1.0 + 0j]), aoas=np.array([0.0]))
        np.testing.assert_allclose(phase_vector(0.37, ps, cfg_small), [1.0],
                                   rtol=1e-14)

    def test_half_wavelength_endfire(self, cfg_small):
        ps = PathSet(gains=np.array([1.0 + 0j]), aoas=np.array([np.pi / 2]))
        np.testing.assert_allclose(phase_vector(WAVELENGTH / 2, ps, cfg_small),
                                   [-1.0], atol=1e-9)


class TestSurrogate:
    def test_g_matches_objective_at_expansion_point(self, cfg_small, rng):
        for _ in range(10):
            ps = random_paths(rng, L=int(rng.integers(1, 6)))
            eta = int(rng.integers(1, cfg_small.eta_max + 1))
            y_j = rng.uniform(0.0, cfg_small.y_max)
            state = make_sca_state(y_j, path_matrix(eta, ps, cfg_small), ps, cfg_small)
            g_j = g_value(y_j, state.b, ps.aoas, cfg_small.wavelength)
            np.testing.assert_allclose(g_j, state.objective, rtol=1e-9)
            np.testing.assert_allclose(2 * g_j - state.objective, state.objective,
                                       rtol=1e-9)

    def test_derivatives_match_finite_differences(self, cfg_small, rng):
        h = 1e-6 * cfg_small.wavelength
        for _ in range(10):
            ps = random_paths(rng, L=int(rng.integers(2, 6)))
            eta = int(rng.integers(1, cfg_small.eta_max + 1))
            y_j = rng.uniform(0.0, cfg_small.y_max)
            state = make_sca_state(y_j, path_matrix(eta, ps, cfg_small), ps, cfg_small)
            args = (state.b, ps.aoas, cfg_small.wavelength)
            for y in rng.uniform(0.0, cfg_small.y_max, 3):
                fd1, fd2 = fd_highprec(y, h, *args)
                d1 = g_derivative(y, *args)
                d2 = g_second_derivative(y, *args)
                assert abs(fd1 - d1) <= 1e-5 * max(abs(d1), 1e-9 * state.xi)
                assert abs(fd2 - d2) <= 1e-5 * max(abs(d2), 1e-9 * state.xi)
            np.testing.assert_allclose(
                state.g_prime, g_derivative(y_j, *args), rtol=1e-12)

    @given(seed=st.integers(0, 10 ** 6))
    def test_global_bounds(self, seed):
        r = np.random.default_rng(seed)
        cfg = make_cfg()
        ps = random_paths(r, L=int(r.integers(2, 6)))
        eta = int(r.integers(1, cfg.eta_max + 1))
        y_j = r.uniform(0.0, cfg.y_max)
        A = path_matrix(eta, ps, cfg)
        state = make_sca_state(y_j, A, ps, cfg)
        ys = r.uniform(0.0, cfg.y_max, 200)
        g_all = g_value(ys, state.b, ps.aoas, cfg.wavelength)
        tol = 1e-9 * max(state.objective, 1.0)
        # quadratic minorant never exceeds g
        assert np.all(surrogate_value(ys, state, ps, cfg) <= g_all + tol)
        # first-order model never exceeds the true objective
        obj_all = snr_profile(ys, eta, ps, cfg)
        assert np.all(2 * g_all - state.objective <= obj_all + tol)
        # curvature cap dominates the second derivative everywhere
        g2 = g_second_derivative(ys, state.b, ps.aoas, cfg.wavelength)
        assert np.all(g2 <= state.xi * (1 + 1e-12) + 1e-30)

    def test_step_clamps_to_bounds(self):
        state = ScaState(y_j=0.9, b=np.array([1.0 + 0j]), g_prime=5.0, xi=1.0,
                         objective=1.0)
        assert surrogate_step(state, (0.0, 1.0)) == 1.0
        state = ScaState(y_j=0.1, b=np.array([1.0 + 0j]), g_prime=-5.0, xi=1.0,
                         objective=1.0)
        assert surrogate_step(state, (0.0, 1.0)) == 0.0

    def test_interior_step_is_newton_like(self):
        state = ScaState(y_j=0.5, b=np.array([1.0 + 0j]), g_prime=0.25, xi=2.0,
                         objective=1.0)
        assert surrogate_step(state, (0.0, 1.0)) == 0.5 + 0.125

    def test_stationary_point_is_fixed(self, cfg_small):
        ps = PathSet(gains=np.array([1.0 + 0j]), aoas=np.array([0.4]))
        state = make_sca_state(0.02, path_matrix(2, ps, cfg_small), ps, cfg_small)
        assert abs(state.g_prime) < 1e-9 * state.xi
        assert surrogate_step(state, cfg_small.position_bounds(2)) == 0.02

    def test_zero_channel_degenerate(self, cfg_small):
        ps = PathSet(gains=np.array([0.0 + 0j, 0.0 + 0j]), aoas=np.array([0.3, -0.1]))
        state = make_sca_state(0.01, path_matrix(1, ps, cfg_small), ps, cfg_small)
        assert state.xi == 0.0
        assert surrogate_step(state, cfg_small.position_bounds(1)) == 0.01

    def test_cancelling_paths_return_start(self, cfg_small):
        # numerically near-zero b: the step collapses below one ulp and the
        # ascent exits at its starting point
        ps = PathSet(gains=np.array([1.0 + 0j, -1.0 + 0j]), aoas=np.array([0.3, 0.3]))
        y_star, _, trace = optimize_position_sca(1, ps, 0.01, SETTINGS, cfg_small)
        assert y_star == 0.01
        assert len(trace) == 1


class TestOptimizePosition:
    def test_flat_single_path_returns_start(self, cfg_small):
        ps = PathSet(gains=np.array([0.5 + 0.5j]), aoas=np.array([-0.8]))
        y_star, obj, trace = optimize_position_sca(3, ps, 0.04, SETTINGS, cfg_small)
        assert y_star == 0.04
        np.testing.assert_allclose(obj, np.abs(ps.gains[0]) ** 2 * cfg_small.N,
                                   rtol=1e-12)
        assert len(trace) == 1

    def test_two_path_reaches_fine_grid_peak(self, rng):
        cfg = make_cfg(span_wavelengths=10.0)
        coarse = position_grid(0.0, cfg.y_max, WAVELENGTH / 4)
        for _ in range(5):
            theta = rng.uniform(0.2, 1.2)
            ps = PathSet(gains=np.exp(1j * rng.uniform(0, 2 * np.pi, 2)),
                         aoas=np.array([-theta, theta]))
            # the ascent is local, so seed it the way the alternating
            # optimizer does: from the coarse-grid argmax
            y0 = float(coarse[int(np.argmax(snr_profile(coarse, 2, ps, cfg)))])
            y_star, obj, _ = optimize_position_sca(2, ps, y0, SETTINGS, cfg)
            grid = position_grid(0.0, cfg.y_max, WAVELENGTH / 1000)
            best = float(np.max(snr_profile(grid, 2, ps, cfg)))
            assert 10 * np.log10(obj / best) > -0.01

    def test_starting_at_grid_argmax_stays_put(self, rng):
        cfg = make_cfg(span_wavelengths=10.0)
        ps = two_path(rng)
        grid = position_grid(0.0, cfg.y_max, WAVELENGTH / 1000)
        prof = snr_profile(grid, 2, ps, cfg)
        y0 = float(grid[int(np.argmax(prof))])
        y_star, obj, trace = optimize_position_sca(2, ps, y0, SETTINGS, cfg)
        assert obj >= trace[0] - 1e-12 * abs(trace[0])
        assert abs(y_star - y0) <= WAVELENGTH / 1000

    def test_trace_matches_manual_iteration(self, cfg_small, rng):
        ps = two_path(rng)
        y0 = 0.01
        eta = 2
        y_star, obj, trace = optimize_position_sca(eta, ps, y0, SETTINGS, cfg_small)
        # replay the iteration independently and re-evaluate the objective
        # through the channel route at every iterate
        A = path_matrix(eta, ps, cfg_small)
        y = y0
        replay = [objective(y, eta, ps, cfg_small)]
        for _ in range(len(trace) - 1):
            state = make_sca_state(y, A, ps, cfg_small)
            y = surrogate_step(state, cfg_small.position_bounds(eta))
            replay.append(objective(y, eta, ps, cfg_small))
        np.testing.assert_allclose(trace, replay, rtol=1e-9)
        assert y == y_star

    @given(seed=st.integers(0, 10 ** 6))
    def test_monotone_ascent(self, seed):
        r = np.random.default_rng(seed)
        cfg = make_cfg()
        ps = random_paths(r, L=int(r.integers(2, 5)))
        eta = int(r.integers(1, cfg.eta_max + 1))
        y0 = r.uniform(0.0, cfg.y_max)
        _, _, trace = optimize_position_sca(eta, ps, y0, SETTINGS, cfg)
        diffs = np.diff(trace)
        assert np.all(diffs >= -1e-12 * np.abs(trace[:-1]))

    def test_rejects_start_outside_region(self, cfg_small, rng):
        with pytest.raises(ValueError):
            optimize_position_sca(1, two_path(rng), cfg_small.y_max + 1.0,
                                  SETTINGS, cfg_small)


class TestOptimizeSparsity:
    def test_single_path_tie_breaks_small(self, cfg_small):
        # broadside makes the per-eta values bit-equal, so the tie-break
        # toward the smaller eta is exact
        ps = PathSet(gains=np.array([2.0 + 0j]), aoas=np.array([0.0]))
        eta, obj = optimize_sparsity(0.01, ps, cfg_small)
        assert eta == 1
        np.testing.assert_allclose(obj, 4.0 * cfg_small.N, rtol=1e-12)

    def test_singleton_domain(self):
        cfg = make_cfg(M=4, N=4)
        ps = PathSet(gains=np.array([1.0 + 0j]), aoas=np.array([0.2]))
        assert optimize_sparsity(0.0, ps, cfg)[0] == 1

    def test_matches_exhaustive_loop(self, cfg_small, rng):
        for _ in range(10):
            ps = two_path(rng, equal_amplitude=False)
            y = rng.uniform(0.0, cfg_small.y_max)
            eta, obj = optimize_sparsity(y, ps, cfg_small)
            vals = [objective(y, e, ps, cfg_small)
                    for e in range(1, cfg_small.eta_max + 1)]
            assert eta == int(np.argmax(vals)) + 1
            np.testing.assert_allclose(obj, max(vals), rtol=1e-9)


class TestOptimizeSingleUser:
    def test_flat_single_path_converges_in_one_round(self, cfg_small):
        ps = PathSet(gains=np.array([1.5j]), aoas=np.array([0.0]))
        sol = optimize_single_user(ps, SETTINGS, cfg_small, p_bar=2.0)
        assert sol.rounds == 1
        assert sol.eta_star == 1
        np.testing.assert_allclose(sol.objective, 2.0 * 2.25 * cfg_small.N,
                                   rtol=1e-12)

    def test_two_path_matches_exhaustive_oracle(self, rng):
        from gma.baselines import exhaustive_search
        from gma.combining import LinkPowers
        cfg = make_cfg(M=16, N=4, span_wavelengths=30.0)
        hits = 0
        for _ in range(20):
            ps = two_path(rng)
            sol = optimize_single_user(ps, SETTINGS, cfg)
            _, _, ref, _ = exhaustive_search([ps], LinkPowers(p_bar=np.array([1.0])),
                                          cfg, WAVELENGTH / 1000)
            if 10 * np.log10(sol.objective / ref) > -0.01:
                hits += 1
        assert hits >= 19

    def test_loose_threshold_never_beats_tight(self, rng):
        cfg = make_cfg(span_wavelengths=15.0)
        for seed in range(5):
            ps = two_path(np.random.default_rng(seed))
            loose = optimize_single_user(ps, OptimizerSettings(epsilon=1e-4), cfg)
            tight = optimize_single_user(ps, OptimizerSettings(epsilon=1e-8), cfg)
            assert loose.objective <= tight.objective * (1 + 1e-6)

    def test_trace_is_scaled_and_monotone(self, cfg_small, rng):
        ps = random_paths(rng, L=3)
        sol = optimize_single_user(ps, SETTINGS, cfg_small, p_bar=3.0)
        trace = np.asarray(sol.trace)
        assert np.all(np.diff(trace) >= -1e-12 * np.abs(trace[:-1]))
        assert sol.objective == trace[-1]
        assert len(sol.sca_iters) == sol.rounds
