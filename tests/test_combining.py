from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from gma import arrays, combining
from gma.arrays import LATTICE_STEPS, ArrayConfig, PathSet, lattice_index
from gma.combining import (LinkPowers, PointScores, batch_objective,
                           batch_sinr, batch_sum_rate, channel_stack,
                           metric_profiles, noise_power_dbm, objective_metric)
from gma.multiuser import scan
from gma.optim import position_grid
from gma.scenario import ScenarioParams, sample_scenario

from util import (WAVELENGTH, Combiner, combiner_sinr, interference_covariance,
                  loop_channel, make_cfg, mmse_combiner, random_paths,
                  sherman_morrison_sinr, sinr, sum_rate)


def random_channels(rng, K, N=4, scale=1.0):
    return scale * (rng.standard_normal((K, N)) + 1j * rng.standard_normal((K, N)))


class TestPowers:
    def test_noise_power_over_default_bandwidth(self):
        assert noise_power_dbm(-174.0, 1e6) == -114.0

    def test_from_dbm_matches_hand_computation(self):
        powers = LinkPowers.from_dbm([10.0, 10.0])
        np.testing.assert_allclose(powers.p_bar, 10 ** 12.4, rtol=1e-12)

    def test_rejects_negative_or_non_finite(self):
        with pytest.raises(ValueError):
            LinkPowers(p_bar=np.array([-1.0]))
        with pytest.raises(ValueError):
            LinkPowers(p_bar=np.array([np.inf]))

    def test_zero_power_is_allowed(self):
        assert LinkPowers(p_bar=np.array([0.0])).K == 1


class TestSingleUserSnr:
    """batch_sinr with K = 1 is the maximal-ratio SNR p * sum |h|^2."""

    def test_all_ones_channel(self):
        H = np.ones((1, 1, 4), dtype=complex)
        assert batch_sinr(H, LinkPowers(p_bar=np.array([1.0])))[0, 0] == 4.0

    def test_zero_channel(self):
        H = np.zeros((1, 1, 4), dtype=complex)
        assert batch_sinr(H, LinkPowers(p_bar=np.array([5.0])))[0, 0] == 0.0

    def test_single_unit_path_is_flat_in_position_and_sparsity(self, cfg_small, rng):
        ps = PathSet(gains=np.array([np.exp(0.3j)]), aoas=np.array([-0.4]))
        p_bar = 2.5
        for _ in range(10):
            y = rng.uniform(0.0, cfg_small.y_max)
            eta = int(rng.integers(1, cfg_small.eta_max + 1))
            H = channel_stack(np.array([y]), eta, [ps], cfg_small)
            snr = batch_sinr(H, LinkPowers(p_bar=np.array([p_bar])))[0, 0]
            np.testing.assert_allclose(snr, p_bar * cfg_small.N, rtol=1e-12)


class TestInterferenceCovariance:
    def test_single_user_is_identity(self, rng):
        h = random_channels(rng, 1)
        C = interference_covariance(0, h, LinkPowers(p_bar=np.array([3.0])))
        assert np.array_equal(C, np.eye(4))

    def test_zero_interferer_is_identity(self, rng):
        hs = [random_channels(rng, 1)[0], np.zeros(4, dtype=complex)]
        C = interference_covariance(0, hs, LinkPowers(p_bar=np.array([1.0, 9.0])))
        assert np.array_equal(C, np.eye(4))

    def test_matches_naive_triple_loop(self, rng):
        K, N = 3, 4
        hs = random_channels(rng, K, N)
        p = np.array([0.5, 2.0, 1.5])
        C = interference_covariance(1, hs, LinkPowers(p_bar=p))
        expected = np.zeros((N, N), dtype=complex)
        for a in range(N):
            for b in range(N):
                expected[a, b] = 1.0 if a == b else 0.0
                for i in range(K):
                    if i != 1:
                        expected[a, b] += p[i] * hs[i][a] * np.conj(hs[i][b])
        np.testing.assert_allclose(C, expected, rtol=1e-12)

    @given(seed=st.integers(0, 10 ** 6))
    def test_hermitian_with_unit_eigenvalue_floor(self, seed):
        r = np.random.default_rng(seed)
        K = int(r.integers(1, 6))
        hs = random_channels(r, K)
        C = interference_covariance(0, hs, LinkPowers(p_bar=r.uniform(0.1, 5.0, K)))
        assert np.max(np.abs(C - C.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(C).min() >= 1.0 - 1e-9

    def test_rejects_mismatched_lengths(self, rng):
        hs = [np.ones(4, dtype=complex), np.ones(3, dtype=complex)]
        with pytest.raises(ValueError):
            interference_covariance(0, hs, LinkPowers(p_bar=np.array([1.0, 1.0])))


class TestMmseCombiner:
    def test_identity_covariance_gives_mrc_direction(self, rng):
        h = random_channels(rng, 1)[0]
        v = mmse_combiner(h, np.eye(4, dtype=complex))
        np.testing.assert_allclose(v.weights, h / np.linalg.norm(h), rtol=1e-12)

    def test_scaled_identity_keeps_direction(self, rng):
        h = random_channels(rng, 1)[0]
        v = mmse_combiner(h, 4.0 * np.eye(4, dtype=complex))
        np.testing.assert_allclose(np.abs(np.vdot(v.weights, h / np.linalg.norm(h))),
                                   1.0, rtol=1e-12)

    def test_unit_norm(self, rng):
        hs = random_channels(rng, 3)
        powers = LinkPowers(p_bar=np.array([1.0, 2.0, 0.5]))
        C = interference_covariance(0, hs, powers)
        v = mmse_combiner(hs[0], C)
        assert abs(np.linalg.norm(v.weights) - 1.0) <= 1e-12

    def test_beats_random_combiners(self, rng):
        hs = random_channels(rng, 3)
        powers = LinkPowers(p_bar=np.array([2.0, 1.0, 3.0]))
        C = interference_covariance(0, hs, powers)
        v_star = mmse_combiner(hs[0], C)
        best = combiner_sinr(v_star, hs[0], C, powers.p_bar[0])
        V = rng.standard_normal((1000, 4)) + 1j * rng.standard_normal((1000, 4))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        nums = powers.p_bar[0] * np.abs(V.conj() @ hs[0]) ** 2
        dens = np.einsum("vn,nm,vm->v", V.conj(), C, V).real
        assert np.all(best >= nums / dens - 1e-9 * best)

    def test_rejects_zero_channel(self):
        with pytest.raises(ValueError):
            mmse_combiner(np.zeros(4, dtype=complex), np.eye(4, dtype=complex))

    def test_combiner_requires_unit_norm(self):
        with pytest.raises(ValueError):
            Combiner(weights=np.array([1.0, 1.0], dtype=complex))


class TestSinr:
    def test_single_user_equals_mrc(self, cfg_small, rng):
        ps = random_paths(rng, L=3)
        powers = LinkPowers(p_bar=np.array([2.0]))
        h = loop_channel(0.01, 2, ps, cfg_small)
        assert (sinr(0, 0.01, 2, [ps], powers, cfg_small)
                == batch_sinr(h[None, None], powers)[0, 0])

    def test_orthogonal_interferer_costs_nothing(self, cfg_small):
        # eta=1, y=0, half-wavelength spacing: AoAs 0 and arcsin(1/2) give
        # exactly orthogonal steering vectors for N=4
        users = [PathSet(gains=np.array([1.0 + 0j]), aoas=np.array([0.0])),
                 PathSet(gains=np.array([1.0 + 0j]), aoas=np.array([np.arcsin(0.5)]))]
        powers = LinkPowers(p_bar=np.array([3.0, 3.0]))
        h1 = loop_channel(0.0, 1, users[0], cfg_small)
        h2 = loop_channel(0.0, 1, users[1], cfg_small)
        assert abs(np.vdot(h2, h1)) < 1e-12
        got = sinr(0, 0.0, 1, users, powers, cfg_small)
        expected = sherman_morrison_sinr(3.0, h1, 3.0, h2)
        np.testing.assert_allclose(got, expected, rtol=1e-12)
        np.testing.assert_allclose(got, 3.0 * cfg_small.N, rtol=1e-12)

    def test_identical_interferer_saturates(self, cfg_small, rng):
        ps = random_paths(rng, L=2)
        users = [ps, ps]
        powers = LinkPowers(p_bar=np.array([2.0, 5.0]))
        h = loop_channel(0.003, 2, ps, cfg_small)
        got = sinr(0, 0.003, 2, users, powers, cfg_small)
        h2 = np.sum(np.abs(h) ** 2)
        np.testing.assert_allclose(got, 2.0 * h2 / (1.0 + 5.0 * h2), rtol=1e-9)
        np.testing.assert_allclose(got, sherman_morrison_sinr(2.0, h, 5.0, h),
                                   rtol=1e-9)

    @given(seed=st.integers(0, 10 ** 6))
    def test_equals_rayleigh_quotient_at_mmse_combiner(self, seed):
        r = np.random.default_rng(seed)
        cfg = make_cfg()
        K = int(r.integers(2, 5))
        users = [random_paths(r, L=2) for _ in range(K)]
        powers = LinkPowers(p_bar=r.uniform(0.5, 4.0, K))
        y = r.uniform(0.0, cfg.y_max)
        eta = int(r.integers(1, cfg.eta_max + 1))
        hs = [loop_channel(y, eta, u, cfg) for u in users]
        C = interference_covariance(0, hs, powers)
        v = mmse_combiner(hs[0], C)
        quotient = combiner_sinr(v, hs[0], C, powers.p_bar[0])
        direct = sinr(0, y, eta, users, powers, cfg)
        np.testing.assert_allclose(direct, quotient, rtol=1e-9)


class TestSumRate:
    def test_unit_sinr_gives_one_bit(self, cfg_small):
        ps = PathSet(gains=np.array([1.0 + 0j]), aoas=np.array([0.2]))
        powers = LinkPowers(p_bar=np.array([1.0 / cfg_small.N]))
        np.testing.assert_allclose(sum_rate(0.0, 1, [ps], powers, cfg_small),
                                   1.0, rtol=1e-12)

    def test_zero_channels_give_zero_rate(self, cfg_small):
        ps = PathSet(gains=np.array([0.0 + 0j]), aoas=np.array([0.2]))
        powers = LinkPowers(p_bar=np.array([2.0, 2.0]))
        assert sum_rate(0.01, 1, [ps, ps], powers, cfg_small) == 0.0

    def test_matches_per_user_sinr_calls(self, cfg_small, rng):
        users = [random_paths(rng, L=3) for _ in range(5)]
        powers = LinkPowers(p_bar=rng.uniform(0.5, 3.0, 5))
        total = sum_rate(0.02, 3, users, powers, cfg_small)
        per_user = [sinr(k, 0.02, 3, users, powers, cfg_small) for k in range(5)]
        np.testing.assert_allclose(total, np.sum(np.log2(1.0 + np.array(per_user))),
                                   rtol=1e-12)

    @given(seed=st.integers(0, 10 ** 6))
    def test_invariant_under_user_permutation(self, seed):
        r = np.random.default_rng(seed)
        cfg = make_cfg()
        K = int(r.integers(2, 6))
        users = [random_paths(r, L=2) for _ in range(K)]
        p = r.uniform(0.5, 3.0, K)
        perm = r.permutation(K)
        a = sum_rate(0.01, 2, users, LinkPowers(p_bar=p), cfg)
        b = sum_rate(0.01, 2, [users[i] for i in perm],
                     LinkPowers(p_bar=p[perm]), cfg)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_single_user_power_scaling_is_exact(self, cfg_small, rng):
        ps = random_paths(rng, L=4)
        p0 = 1.7
        g1 = sinr(0, 0.01, 2, [ps], LinkPowers(p_bar=np.array([p0])), cfg_small)
        g4 = sinr(0, 0.01, 2, [ps], LinkPowers(p_bar=np.array([4 * p0])), cfg_small)
        assert g4 == 4.0 * g1


class TestBatchedEvaluation:
    def test_matches_reference_per_point_path(self, cfg_small, rng):
        users = [random_paths(rng, L=3) for _ in range(4)]
        powers = LinkPowers(p_bar=rng.uniform(0.5, 3.0, 4))
        ys = rng.uniform(0.0, cfg_small.y_max, 20)
        H = channel_stack(ys, 2, users, cfg_small)
        gammas = batch_sinr(H, powers)
        rates = batch_sum_rate(H, powers)
        for b in (0, 7, 19):
            for k in range(4):
                np.testing.assert_allclose(
                    gammas[b, k], sinr(k, ys[b], 2, users, powers, cfg_small),
                    rtol=1e-9)
            np.testing.assert_allclose(
                rates[b], sum_rate(ys[b], 2, users, powers, cfg_small), rtol=1e-9)

    @pytest.mark.parametrize("dbm", [10.0, 40.0])
    @pytest.mark.parametrize("K, N", [(2, 4), (4, 4), (5, 4), (9, 4), (3, 8),
                                      (8, 8), (11, 8), (5, 12), (12, 12),
                                      (13, 12)])
    def test_factorization_matches_reference_for_every_shape(self, K, N, dbm):
        # K < N, K = N and K > N; at 40 dBm the pivots d_j reach about 1e6
        params = ScenarioParams(K=K, N=N, M=4 * N, p_tx_dbm=dbm, seed=K * N)
        sc = sample_scenario(params, 0)
        cfg, users, powers = sc.cfg, sc.users, sc.powers
        r = np.random.default_rng(N)
        for eta in (1, cfg.eta_max):
            ys = r.uniform(cfg.y_min, cfg.y_max, 6)
            gammas = batch_sinr(channel_stack(ys, eta, users, cfg), powers)
            ref = np.array([[sinr(k, y, eta, users, powers, cfg)
                             for k in range(K)] for y in ys])
            # the factorization computes p_k u_k = gamma_k / (1 + gamma_k)
            np.testing.assert_allclose(gammas / (1.0 + gammas),
                                       ref / (1.0 + ref), rtol=1e-11)
            if dbm == 10.0:
                # gamma = p u / (1 - p u) multiplies the rounding of p u by
                # 1 + gamma, which reaches 1e6 at 40 dBm (old kernel alike)
                np.testing.assert_allclose(gammas, ref, rtol=1e-9)

    def test_single_user_fast_path(self, cfg_small, rng):
        ps = random_paths(rng, L=2)
        powers = LinkPowers(p_bar=np.array([2.0]))
        ys = rng.uniform(0.0, cfg_small.y_max, 8)
        H = channel_stack(ys, 1, [ps], cfg_small)
        expected = 2.0 * np.sum(np.abs(H[:, 0, :]) ** 2, axis=1)
        np.testing.assert_array_equal(batch_sinr(H, powers)[:, 0], expected)
        np.testing.assert_array_equal(batch_objective(H, powers), expected)

    def test_objective_metric_units(self, cfg_small, rng):
        ps = random_paths(rng, L=2)
        one = LinkPowers(p_bar=np.array([2.0]))
        h = loop_channel(0.01, 2, ps, cfg_small)
        np.testing.assert_allclose(objective_metric(0.01, 2, [ps], one, cfg_small),
                                   2.0 * np.sum(np.abs(h) ** 2), rtol=1e-12)
        users = [random_paths(rng, L=2) for _ in range(3)]
        many = LinkPowers(p_bar=np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(
            objective_metric(0.01, 2, users, many, cfg_small),
            sum_rate(0.01, 2, users, many, cfg_small), rtol=1e-9)

    def test_metric_profiles_match_single_point(self, cfg_small, rng):
        users = [random_paths(rng, L=3) for _ in range(3)]
        powers = LinkPowers(p_bar=rng.uniform(0.5, 3.0, 3))
        ys = rng.uniform(0.0, cfg_small.y_max, 11)
        for eta, vals in metric_profiles(ys, [1, 3, 5], users, powers, cfg_small):
            for b in (0, 5, 10):
                assert vals[b] == objective_metric(ys[b], eta, users, powers,
                                                   cfg_small)

    @given(seed=st.integers(0, 10 ** 6), K=st.integers(1, 10),
           L=st.integers(1, 4), N=st.integers(2, 12), B=st.integers(1, 64),
           confine=st.booleans())
    def test_value_does_not_depend_on_the_batch(self, seed, K, L, N, B, confine):
        r = np.random.default_rng(seed)
        cfg = make_cfg(M=16, N=N, span_wavelengths=r.uniform(6.0, 20.0),
                       confine_aperture=confine)
        users = [random_paths(r, L=L) for _ in range(K)]
        powers = LinkPowers(p_bar=r.uniform(0.5, 3.0, K))
        eta = int(r.choice(cfg.feasible_etas()))
        ys = r.uniform(*cfg.position_bounds(eta), B)
        _, vals = next(metric_profiles(ys, [eta], users, powers, cfg))
        for b in range(B):
            assert vals[b] == objective_metric(ys[b], eta, users, powers, cfg)
        start = int(r.integers(0, B))
        stop = int(r.integers(start + 1, B + 1))
        _, part = next(metric_profiles(ys[start:stop], [eta], users, powers, cfg))
        assert np.array_equal(part, vals[start:stop])

    @given(seed=st.integers(0, 10 ** 6), K=st.integers(1, 6),
           chunk=st.integers(1, 40), B=st.integers(1, 12),
           levels=st.integers(1, 6), confine=st.booleans())
    def test_levels_sharing_a_call_match_single_point(self, seed, K, chunk, B,
                                                      levels, confine):
        # a small _CHUNK puts call boundaries inside levels and across them
        r = np.random.default_rng(seed)
        cfg = make_cfg(M=16, N=4, span_wavelengths=20.0, confine_aperture=confine)
        users = [random_paths(r, L=3) for _ in range(K)]
        powers = LinkPowers(p_bar=r.uniform(0.5, 3.0, K))
        etas = [int(e) for e in r.choice(cfg.feasible_etas(), levels)]
        ys = r.uniform(*cfg.position_bounds(max(etas)), B)
        with mock.patch.object(combining, "_CHUNK", chunk):
            profiles = list(metric_profiles(ys, etas, users, powers, cfg))
        assert [eta for eta, _ in profiles] == etas
        for eta, vals in profiles:
            for b in range(B):
                assert vals[b] == objective_metric(ys[b], eta, users, powers, cfg)

    def test_single_point_reevaluates_bit_identically(self, cfg_small, rng):
        users = [random_paths(rng, L=3) for _ in range(3)]
        powers = LinkPowers(p_bar=rng.uniform(0.5, 3.0, 3))
        first = objective_metric(0.017, 4, users, powers, cfg_small)
        assert first == objective_metric(0.017, 4, users, powers, cfg_small)

    def test_rejects_wrong_stack_shape(self, rng):
        with pytest.raises(ValueError):
            batch_sinr(np.zeros((3, 2, 4), dtype=complex),
                       LinkPowers(p_bar=np.array([1.0])))


class TestLatticeTable:
    """Scans read lattice channels off one table per user (arrays' lattice
    rule); the values must stay those of objective_metric."""

    @given(seed=st.integers(0, 10 ** 6),
           anchor=st.sampled_from(["zero", "lattice", "off"]),
           step_name=st.sampled_from(["d/8", "d/64", "d/512", "wavelength/100",
                                      "random"]),
           points=st.integers(0, 40), end=st.booleans(), confine=st.booleans(),
           chunk=st.integers(1, 40), K=st.integers(1, 4), L=st.integers(1, 4),
           N=st.integers(2, 4))
    def test_grids_match_single_point_and_sub_batches(
            self, seed, anchor, step_name, points, end, confine, chunk, K, L, N):
        r = np.random.default_rng(seed)
        d = WAVELENGTH / 2.0
        y_min = {"zero": 0.0, "off": float(r.uniform(0.0, 1.0)),
                 "lattice": int(r.integers(1, 10 ** 6)) * d / LATTICE_STEPS}[anchor]
        step = {"d/8": d / 8, "d/64": d / 64, "d/512": d / 512,
                "wavelength/100": WAVELENGTH / 100,
                "random": float(r.uniform(0.1, 2.0)) * d / 64}[step_name]
        eta_top = int(r.integers(1, 15 // (N - 1) + 1))
        # with `end`, the region's upper end is off the grid and gets appended
        span = (points + (float(r.uniform(0.05, 0.95)) if end else 0.0)) * step
        aperture = (N - 1) * eta_top * d if confine else 0.0
        cfg = ArrayConfig(M=16, N=N, wavelength=WAVELENGTH, y_min=y_min,
                          y_max=y_min + aperture + span, confine_aperture=confine)
        lo, hi = cfg.position_bounds(eta_top)
        assume(lo <= hi)
        pts = position_grid(lo, hi, step)
        if step_name.startswith("d/"):
            # a grid anchored at y_min with step d/2**k is on the lattice,
            # except where its last step overshoots hi by an ulp and the
            # point becomes hi
            on = lattice_index(pts, cfg)[1]
            assert on[:points].all() and (on[points] or pts[points] == hi)
        levels = sorted({int(e) for e in r.integers(1, eta_top + 1, 3)})
        users = [random_paths(r, L=L) for _ in range(K)]
        powers = LinkPowers(p_bar=r.uniform(0.5, 3.0, K))
        a = int(r.integers(0, pts.size))
        b = int(r.integers(a + 1, pts.size + 1))
        with mock.patch.object(combining, "_CHUNK", chunk):
            profiles = list(metric_profiles(pts, levels, users, powers, cfg))
            parts = list(metric_profiles(pts[a:b], levels, users, powers, cfg))
        assert [eta for eta, _ in profiles] == levels
        for (eta, vals), (_, part) in zip(profiles, parts):
            for i, y in enumerate(pts):
                assert vals[i] == objective_metric(y, eta, users, powers, cfg)
            assert np.array_equal(part, vals[a:b])

    def test_default_scan_builds_one_table_per_user(self):
        # 8,129 grid positions plus the (N-1)*eta_max*d/step = 3*42*8 that
        # the top element of the sparsest level reaches beyond them
        sc = sample_scenario(ScenarioParams(), 0)
        cfg = sc.cfg
        wrap = arrays.gain_weighted_shifts
        with mock.patch.object(arrays, "gain_weighted_shifts", wraps=wrap) as a, \
                mock.patch.object(combining, "gain_weighted_shifts", wraps=wrap) as c:
            [(_, _, _, evals)] = scan([(cfg.feasible_etas(), cfg)],
                                      cfg.wavelength / 16.0, sc.users, sc.powers)
        rows = [call.args[0].size for call in a.call_args_list + c.call_args_list]
        assert evals == 8129 * 42
        assert len(rows) == sc.K
        assert sum(rows) <= sc.K * (8129 + 3 * 42 * 8)


class TestLagRows:
    """Runs of consecutive lattice rows of one level build S from lag rows
    (combining's lag rule); the values must stay those of objective_metric."""

    @given(seed=st.integers(0, 10 ** 6), K=st.integers(2, 6), N=st.integers(2, 6),
           L=st.integers(1, 4), anchor=st.sampled_from(["zero", "lattice", "off"]),
           points=st.integers(0, 96), end=st.booleans(), confine=st.booleans(),
           chunk=st.sampled_from([None, 12, 33, 64]))
    def test_lag_runs_match_single_point_and_sub_batches(
            self, seed, K, N, L, anchor, points, end, confine, chunk):
        r = np.random.default_rng(seed)
        d = WAVELENGTH / 2.0
        y_min = {"zero": 0.0, "off": float(r.uniform(0.0, 1.0)),
                 "lattice": int(r.integers(1, 10 ** 6)) * d / LATTICE_STEPS}[anchor]
        # a d/8 grid is on the lattice with stride s = 64, so a run of one
        # level takes the lag rows when longer than e = 8*eta table steps
        step, eta_top = d / 8, int(r.integers(1, 15 // (N - 1) + 1))
        span = (points + (float(r.uniform(0.05, 0.95)) if end else 0.0)) * step
        aperture = (N - 1) * eta_top * d if confine else 0.0
        cfg = ArrayConfig(M=16, N=N, wavelength=WAVELENGTH, y_min=y_min,
                          y_max=y_min + aperture + span, confine_aperture=confine)
        pts = position_grid(*cfg.position_bounds(eta_top), step)
        levels = sorted({int(e) for e in r.integers(1, eta_top + 1, 3)})
        users = [random_paths(r, L=L) for _ in range(K)]
        powers = LinkPowers(p_bar=r.uniform(0.5, 3.0, K))
        a = int(r.integers(0, pts.size))
        b = int(r.integers(a + 1, pts.size + 1))
        with mock.patch.object(combining, "_CHUNK", chunk or combining._CHUNK), \
                mock.patch.object(combining, "_lag_lower",
                                  wraps=combining._lag_lower) as lag, \
                mock.patch.object(combining, "_covariance_lower",
                                  wraps=combining._covariance_lower) as rows:
            profiles = list(metric_profiles(pts, levels, users, powers, cfg))
            runs = [call.args[4:6] for call in lag.call_args_list]
            by_rows = sum(call.args[0][0].shape[1] for call in rows.call_args_list)
            parts = list(metric_profiles(pts[a:b], levels, users, powers, cfg))
        # every row is scored once, from lag rows or row by row, and only
        # runs longer than e take the lag rows
        assert sum(w for w, _ in runs) + by_rows == pts.size * len(levels)
        assert all(w > e for w, e in runs)
        assert N > 2 or not runs
        assert [eta for eta, _ in profiles] == levels
        for (eta, vals), (_, part) in zip(profiles, parts):
            for i, y in enumerate(pts):
                assert vals[i] == objective_metric(y, eta, users, powers, cfg)
            assert np.array_equal(part, vals[a:b])

    def test_default_scan_takes_the_lag_path(self):
        sc = sample_scenario(ScenarioParams(), 0)
        cfg, etas = sc.cfg, sc.cfg.feasible_etas()
        with mock.patch.object(combining, "_lag_lower",
                               wraps=combining._lag_lower) as lag, \
                mock.patch.object(combining, "_covariance_lower",
                                  wraps=combining._covariance_lower) as rows, \
                mock.patch.object(combining, "batch_sinr",
                                  wraps=combining.batch_sinr) as sinr:
            [(_, _, _, evals)] = scan([(etas, cfg)], cfg.wavelength / 16.0,
                                      sc.users, sc.powers)
        lag_rows = sum(call.args[4] for call in lag.call_args_list)
        by_rows = sum(call.args[0][0].shape[1] for call in rows.call_args_list)
        assert evals == 8129 * 42
        # every scored row reaches batch_sinr, with S built one way or the other
        assert sum(call.args[0].shape[0] for call in sinr.call_args_list) == evals
        assert lag_rows + by_rows == evals
        # the grid is all lattice rows, so S is built row by row only where a
        # chunk boundary leaves at most e = 8*eta rows of a level, at either
        # end of the level
        assert by_rows <= sum(2 * 8 * eta for eta in etas)


class TestPointScores:
    @given(seed=st.integers(0, 10 ** 6), K=st.sampled_from([1, 3]),
           cells=st.lists(st.tuples(st.sampled_from([8, 16, 32]), st.integers(1, 8),
                                    st.booleans()),
                          min_size=1, max_size=4),
           calls=st.lists(st.tuples(st.integers(0, 3),
                                    st.sampled_from(["window", "levels", "point"])),
                          min_size=1, max_size=12))
    def test_every_value_is_the_asking_configurations(self, seed, K, cells, calls):
        # configurations on one anchor with random M, region and
        # confine_aperture ask interleaved lookups of one memo; positions come
        # from a shared set (a d/8 grid and a few off-lattice points), so
        # later lookups hit points that others stored
        rng = np.random.default_rng(seed)
        y_min, d = float(rng.uniform(0.0, 0.1)), WAVELENGTH / 2
        cfgs = [ArrayConfig(M=M, N=4, wavelength=WAVELENGTH, y_min=y_min,
                            y_max=y_min + mult * 4 * d, confine_aperture=confine)
                for M, mult, confine in cells]
        users = [random_paths(rng, L=3) for _ in range(K)]
        powers = LinkPowers(p_bar=rng.uniform(0.5, 4.0, K))
        shared = np.sort(np.append(position_grid(y_min, y_min + 32 * d, d / 8),
                                   rng.uniform(y_min, y_min + 32 * d, 6)))
        scores = PointScores(users, powers)
        for c, kind in calls:
            cfg = cfgs[c % len(cfgs)]
            if kind == "levels":
                ys = shared[shared <= cfg.y_max]
                y = float(ys[rng.integers(ys.size)])
                etas = cfg.feasible_etas(y)
                if not etas:
                    continue
                got = scores.profiles([y], etas, cfg)
                assert got.shape == (len(etas), 1)
                for eta, v in zip(etas, got[:, 0]):
                    assert v == objective_metric(y, eta, users, powers, cfg)
                continue
            eta = int(rng.choice(cfg.feasible_etas()))
            lo, hi = cfg.position_bounds(eta)
            ys = shared[(shared >= lo) & (shared <= hi)]
            if kind == "point" or ys.size < 2:
                y = float(ys[rng.integers(ys.size)]) if ys.size else lo
                assert scores.point(y, eta, cfg) == objective_metric(
                    y, eta, users, powers, cfg)
                continue
            a, b = sorted(rng.choice(ys.size, 2, replace=False))
            window = ys[a:b + 1]
            got = scores.profiles(window, [eta], cfg)
            assert got.shape == (1, window.size)
            for y, v in zip(window, got[0]):
                assert v == objective_metric(y, eta, users, powers, cfg)

    def test_serves_one_lattice_only(self):
        users = [PathSet(gains=[1.0], aoas=[0.3]), PathSet(gains=[0.5], aoas=[-0.2])]
        powers = LinkPowers(p_bar=np.array([1.0, 2.0]))
        base = make_cfg(M=16, N=4)
        for other in (make_cfg(M=16, N=3), make_cfg(M=16, N=4, y_min=1e-3),
                      ArrayConfig(M=16, N=4, wavelength=2 * WAVELENGTH,
                                  y_min=0.0, y_max=base.y_max)):
            scores = PointScores(users, powers)
            scores.point(base.y_min, 1, base)
            with pytest.raises(ValueError, match="must share"):
                scores.point(other.y_min, 1, other)
            with pytest.raises(ValueError, match="must share"):
                scores.profiles([other.y_min], [1], other)
        # a larger M or region on the same lattice is served
        scores.point(base.y_min, 1, make_cfg(M=32, N=4, span_wavelengths=40.0))

    def test_refuses_what_the_asking_configuration_refuses(self):
        users = [random_paths(np.random.default_rng(3), L=2) for _ in range(2)]
        powers = LinkPowers(p_bar=np.array([1.0, 2.0]))
        large = make_cfg(M=32, N=4, span_wavelengths=16.0, confine_aperture=True)
        small = make_cfg(M=16, N=4, span_wavelengths=4.0, confine_aperture=True)
        scores = PointScores(users, powers)
        # stored under the large region: beyond the small one's y_max, and
        # inside it at a level whose aperture no longer fits
        y_far = small.y_max + WAVELENGTH / 8
        eta = 2
        y_top = small.position_bounds(eta)[1] + WAVELENGTH / 16
        for y, e in ((y_far, 1), (y_top, eta)):
            scores.point(y, e, large)
            scores.profiles([small.y_min, y], [e], large)
            with pytest.raises(ValueError) as today:
                objective_metric(y, e, users, powers, small)
            with pytest.raises(ValueError, match="outside movable region") as memo:
                scores.point(y, e, small)
            assert str(memo.value) == str(today.value)
            with pytest.raises(ValueError) as memo:
                scores.profiles([small.y_min, y], [e], small)
            assert str(memo.value) == str(today.value)
        # a level above the small array's eta_max
        scores.point(large.y_min, small.eta_max + 1, large)
        with pytest.raises(ValueError, match="sparsity level"):
            scores.point(large.y_min, small.eta_max + 1, small)
        with pytest.raises(ValueError, match="sparsity level"):
            scores.profiles([large.y_min], [small.eta_max + 1], small)

    def test_holds_one_set_of_users_and_powers(self):
        rng = np.random.default_rng(4)
        users = [random_paths(rng, L=2) for _ in range(2)]
        powers = LinkPowers(p_bar=np.array([1.0, 2.0]))
        scores = PointScores(users, powers)
        copies = [PathSet(gains=u.gains.copy(), aoas=u.aoas.copy()) for u in users]
        assert PointScores.over(copies, LinkPowers(p_bar=[1.0, 2.0]), scores) is scores
        assert PointScores.over(users, powers) is not scores
        for others in ((users[::-1], powers),
                       (users, LinkPowers(p_bar=np.array([1.0, 3.0])))):
            with pytest.raises(ValueError, match="other users or powers"):
                PointScores.over(*others, scores)

    def test_scores_each_point_once(self, cfg_small, monkeypatch):
        users = [random_paths(np.random.default_rng(6), L=3) for _ in range(3)]
        powers = LinkPowers(p_bar=np.array([1.0, 2.0, 0.5]))
        rows, points = [], []

        def counted(y_values, etas, *args):
            for eta, vals in metric_profiles(y_values, etas, *args):
                rows.append((eta, np.asarray(y_values).tolist()))
                yield eta, vals

        monkeypatch.setattr(combining, "metric_profiles", counted)
        monkeypatch.setattr(combining, "objective_metric",
                            lambda *a: points.append(a[:2]) or objective_metric(*a))
        scores = PointScores(users, powers)
        ys = position_grid(0.0, 0.002, WAVELENGTH / 64)
        first = scores.profiles(ys[:5], [2], cfg_small)
        again = scores.profiles(ys[2:8], [2], cfg_small)
        assert rows == [(2, ys[:5].tolist()), (2, ys[5:8].tolist())]
        assert again[0, :3].tolist() == first[0, 2:].tolist()
        rows.clear()
        scores.profiles([ys[3]], [1, 2, 3], cfg_small)
        assert rows == [(1, [ys[3]]), (3, [ys[3]])]
        scores.point(ys[3], 3, cfg_small)
        scores.point(ys[4], 2, cfg_small)
        assert points == []  # both were stored by profiles
        scores.point(ys[9], 1, cfg_small)
        scores.point(ys[9], 1, cfg_small)
        assert points == [(float(ys[9]), 1)]
