import numpy as np
import pytest
from hypothesis import given, strategies as st

from gma.arrays import (ArrayConfig, PathSet, channel_profile, max_sparsity,
                        path_matrix, path_phases)

from util import WAVELENGTH, loop_channel, make_cfg, random_paths, steering_vector


class TestMaxSparsity:
    def test_paper_array_sizes(self):
        assert max_sparsity(128, 4) == 42
        assert max_sparsity(32, 4) == 10
        assert max_sparsity(64, 4) == 21

    def test_square_array_is_compact_only(self):
        assert max_sparsity(4, 4) == 1
        assert max_sparsity(2, 2) == 1

    @pytest.mark.parametrize("M,N", [(4, 1), (3, 4), (8, 0)])
    def test_rejects_degenerate(self, M, N):
        with pytest.raises(ValueError):
            max_sparsity(M, N)

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            max_sparsity(8.5, 4)

    @given(N=st.integers(2, 16), extra=st.integers(0, 200))
    def test_selected_aperture_fits(self, N, extra):
        M = N + extra
        eta_max = max_sparsity(M, N)
        assert eta_max >= 1
        assert (N - 1) * eta_max <= M - 1
        assert (N - 1) * (eta_max + 1) > M - 1


class TestArrayConfig:
    def test_default_spacing_is_half_wavelength(self):
        cfg = make_cfg()
        assert cfg.d == WAVELENGTH / 2.0
        assert cfg.d_bar == 0.5

    def test_derived_quantities(self):
        cfg = make_cfg(M=16, N=4)
        assert cfg.eta_max == 5
        assert cfg.physical_aperture == 15 * cfg.d
        assert cfg.sparse_aperture(3) == 9 * cfg.d

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            make_cfg(M=3, N=4)
        with pytest.raises(ValueError):
            make_cfg(N=1)
        with pytest.raises(ValueError):
            ArrayConfig(M=8, N=4, wavelength=WAVELENGTH, y_min=1.0, y_max=0.0)
        with pytest.raises(ValueError):
            ArrayConfig(M=8, N=4, wavelength=-1.0, y_min=0.0, y_max=1.0)

    def test_eta_validation(self):
        cfg = make_cfg(M=16, N=4)
        assert cfg.validate_eta(3.0) == 3
        for bad in (0, 6, 2.5, -1):
            with pytest.raises(ValueError):
                cfg.validate_eta(bad)

    def test_confined_bounds_shrink_with_eta(self):
        cfg = make_cfg(M=16, N=4, span_wavelengths=5.0, confine_aperture=True)
        lo1, hi1 = cfg.position_bounds(1)
        lo5, hi5 = cfg.position_bounds(5)
        assert lo1 == lo5 == cfg.y_min
        assert hi1 == cfg.y_max - 3 * cfg.d
        assert hi5 < hi1

    def test_an_array_that_just_fits_keeps_y_min(self):
        # y_max - 15d rounds an ulp below y_min = 0.01, while the array at
        # y_min ends at y_min + 15d = y_max
        d = WAVELENGTH / 2
        cfg = ArrayConfig(M=16, N=2, wavelength=WAVELENGTH, y_min=0.01,
                          y_max=0.01 + 15 * d, confine_aperture=True)
        assert cfg.y_max - 15 * d < cfg.y_min
        assert cfg.position_bounds(15) == (cfg.y_min, cfg.y_min)
        assert cfg.feasible_etas()[-1] == 15
        assert cfg.validate_position(cfg.y_min, 15) == cfg.y_min

    def test_unconfined_bounds_are_the_region(self):
        cfg = make_cfg(M=16, N=4)
        assert cfg.position_bounds(5) == (cfg.y_min, cfg.y_max)

    @given(seed=st.integers(0, 10 ** 6), confine=st.booleans())
    def test_feasible_etas_match_their_definition(self, seed, confine):
        r = np.random.default_rng(seed)
        cfg = make_cfg(M=int(r.integers(4, 40)), N=4,
                       span_wavelengths=r.uniform(0.0, 20.0),
                       confine_aperture=confine)
        bounds = {e: cfg.position_bounds(e) for e in range(1, cfg.eta_max + 1)}
        assert cfg.feasible_etas() == [e for e, (lo, hi) in bounds.items()
                                       if lo <= hi]
        span = cfg.y_max - cfg.y_min
        ys = np.concatenate([r.uniform(cfg.y_min - span, cfg.y_max + span, 20),
                             [cfg.y_min, cfg.y_max]])
        for y in ys:
            assert cfg.feasible_etas(y) == [e for e, (lo, hi) in bounds.items()
                                            if lo <= y <= hi]
        # below and above the region: outside every level's interval
        assert cfg.feasible_etas(cfg.y_min - 1e-3) == []
        assert cfg.feasible_etas(cfg.y_max + 1e-3) == []


def steering_row(eta, theta, cfg):
    """Sparse-array response to one AoA: path_matrix's column for a single
    path of gain 1."""
    ps = PathSet(gains=np.array([1.0 + 0j]), aoas=np.array([theta]))
    return path_matrix(eta, ps, cfg)[:, 0]


def unit_path_channel(y, eta, theta, cfg):
    """channel_profile at one (y, eta) for a single path of gain 1."""
    ps = PathSet(gains=np.array([1.0 + 0j]), aoas=np.array([theta]))
    return channel_profile([y], eta, ps, cfg)[0]


class TestSparseSteering:
    def test_broadside_is_all_ones(self, cfg_small):
        for eta in (1, 3, 5):
            assert np.array_equal(steering_row(eta, 0.0, cfg_small),
                                  np.ones(cfg_small.N))

    def test_endfire_two_elements(self):
        cfg = make_cfg(M=4, N=2)
        out = steering_row(1, np.pi / 2, cfg)
        np.testing.assert_allclose(out, [1.0, -1.0], atol=1e-12)

    def test_stride_two_at_thirty_degrees(self):
        cfg = make_cfg(M=4, N=2)
        out = steering_row(2, np.pi / 6, cfg)
        np.testing.assert_allclose(out, [1.0, -1.0], atol=1e-12)

    def test_first_entry_exactly_one(self, cfg_small, rng):
        for theta in rng.uniform(-np.pi / 2, np.pi / 2, 5):
            assert steering_row(2, theta, cfg_small)[0] == 1.0 + 0.0j

    @given(theta=st.floats(-np.pi / 2, np.pi / 2), eta=st.integers(1, 5))
    def test_unit_modulus_and_norm(self, theta, eta):
        cfg = make_cfg(M=16, N=4)
        a = steering_row(eta, theta, cfg)
        np.testing.assert_allclose(np.abs(a), 1.0, rtol=1e-14)
        assert abs(np.sum(np.abs(a) ** 2) - cfg.N) <= cfg.N * 1e-14

    @given(theta=st.floats(-np.pi / 2, np.pi / 2), eta=st.integers(1, 5))
    def test_negated_angle_conjugates(self, theta, eta):
        cfg = make_cfg(M=16, N=4)
        np.testing.assert_allclose(steering_row(eta, -theta, cfg),
                                   steering_row(eta, theta, cfg).conj(),
                                   atol=1e-15)

    def test_compact_selection_matches_half_wavelength_phases(self, rng):
        cfg = make_cfg(M=16, N=4)
        theta = rng.uniform(-np.pi / 2, np.pi / 2)
        expected = np.exp(1j * 2.0 * np.pi * np.arange(4) * 0.5 * np.sin(theta))
        np.testing.assert_allclose(steering_row(1, theta, cfg), expected,
                                   rtol=1e-14)

    def test_rejects_invalid_eta(self, cfg_small):
        for bad in (0, cfg_small.eta_max + 1, 2.5):
            with pytest.raises(ValueError):
                steering_row(bad, 0.3, cfg_small)


class TestSinglePathChannel:
    def test_broadside_ignores_position(self, cfg_small):
        for y in (0.0, 0.013, cfg_small.y_max):
            np.testing.assert_allclose(unit_path_channel(y, 3, 0.0, cfg_small),
                                       np.ones(cfg_small.N), rtol=1e-14)

    def test_full_wavelength_shift_is_identity_phase(self):
        cfg = make_cfg(M=4, N=2, span_wavelengths=2.0)
        out = unit_path_channel(WAVELENGTH, 1, np.pi / 2, cfg)
        np.testing.assert_allclose(out, [1.0, -1.0], atol=1e-9)

    def test_global_phase_ratio_is_constant_unit_modulus(self, cfg_small, rng):
        for _ in range(10):
            y = rng.uniform(cfg_small.y_min, cfg_small.y_max)
            theta = rng.uniform(-np.pi / 2, np.pi / 2)
            eta = int(rng.integers(1, cfg_small.eta_max + 1))
            ratio = (unit_path_channel(y, eta, theta, cfg_small)
                     / steering_vector(eta, theta, cfg_small))
            np.testing.assert_allclose(ratio, ratio[0], atol=1e-12)
            assert abs(abs(ratio[0]) - 1.0) < 1e-12

    def test_norm_squared_is_element_count(self, cfg_small, rng):
        y = rng.uniform(0.0, cfg_small.y_max)
        a = unit_path_channel(y, 2, -0.7, cfg_small)
        assert abs(np.sum(np.abs(a) ** 2) - cfg_small.N) <= cfg_small.N * 1e-14

    def test_rejects_position_outside_region(self, cfg_small):
        with pytest.raises(ValueError):
            cfg_small.validate_position(cfg_small.y_max + 1e-6, 1)
        with pytest.raises(ValueError):
            cfg_small.validate_position(cfg_small.y_min - 1e-6, 1)


class TestPathTypes:
    def test_path_set_rejects_bad_input(self):
        with pytest.raises(ValueError):
            PathSet(gains=np.array([]), aoas=np.array([]))
        with pytest.raises(ValueError):
            PathSet(gains=np.array([1.0]), aoas=np.array([2.0]))
        with pytest.raises(ValueError):
            PathSet(gains=np.array([np.inf]), aoas=np.array([0.0]))

    def test_path_set_is_immutable(self):
        ps = PathSet(gains=np.array([1.0]), aoas=np.array([0.0]))
        with pytest.raises(ValueError):
            ps.gains[0] = 2.0


class TestPathPhases:
    def test_zero_position(self, cfg_small, rng):
        ps = random_paths(rng, L=3)
        np.testing.assert_array_equal(path_phases([0.0], ps.aoas, cfg_small),
                                      np.ones((1, 3)))

    def test_broadside_path_entry_is_one(self, cfg_small):
        np.testing.assert_allclose(path_phases([0.37], [0.0], cfg_small), [[1.0]],
                                   rtol=1e-14)

    def test_half_wavelength_endfire(self, cfg_small):
        np.testing.assert_allclose(
            path_phases([WAVELENGTH / 2], [np.pi / 2], cfg_small), [[-1.0]],
            atol=1e-9)


class TestChannelProfile:
    def test_opposite_gains_cancel(self, cfg_small):
        ps = PathSet(gains=np.array([0.7 + 0.2j, -(0.7 + 0.2j)]),
                     aoas=np.array([0.3, 0.3]))
        # 0.01 is off the position lattice, 0.0 is on it
        h = channel_profile([0.01, 0.0], 1, ps, cfg_small)
        assert np.array_equal(h, np.zeros((2, cfg_small.N)))

    def test_matches_pure_python_loop(self, cfg_small, rng):
        for _ in range(5):
            ps = random_paths(rng, L=int(rng.integers(1, 6)))
            y = rng.uniform(0.0, cfg_small.y_max)
            eta = int(rng.integers(1, cfg_small.eta_max + 1))
            h = channel_profile([y], eta, ps, cfg_small)[0]
            np.testing.assert_allclose(h, loop_channel(y, eta, ps, cfg_small),
                                       rtol=1e-12, atol=1e-15)

    @given(seed=st.integers(0, 10 ** 6))
    def test_triangle_inequality(self, seed):
        cfg = make_cfg()
        r = np.random.default_rng(seed)
        ps = random_paths(r, L=int(r.integers(1, 6)))
        y = r.uniform(0.0, cfg.y_max)
        eta = int(r.integers(1, cfg.eta_max + 1))
        h = channel_profile([y], eta, ps, cfg)[0]
        bound = np.sum(np.abs(ps.gains)) * np.sqrt(cfg.N)
        assert np.linalg.norm(h) <= bound * (1 + 1e-12)

    def test_aligned_paths_attain_triangle_bound(self, cfg_small):
        ps = PathSet(gains=np.array([0.5, 1.5]), aoas=np.array([0.4, 0.4]))
        h = channel_profile([0.0], 2, ps, cfg_small)[0]
        bound = np.sum(np.abs(ps.gains)) * np.sqrt(cfg_small.N)
        np.testing.assert_allclose(np.linalg.norm(h), bound, rtol=1e-12)

    def test_profile_matches_single_point_synthesis(self, cfg_small, rng):
        ps = random_paths(rng, L=3)
        ys = rng.uniform(0.0, cfg_small.y_max, 7)
        prof = channel_profile(ys, 4, ps, cfg_small)
        for b, y in enumerate(ys):
            np.testing.assert_allclose(prof[b], loop_channel(y, 4, ps, cfg_small),
                                       rtol=1e-12, atol=1e-15)
