import dataclasses

import numpy as np
import pytest
from scipy import stats

from gma.scenario import Scenario, ScenarioParams, sample_scenario, trial_rng


class TestScenarioParams:
    def test_defaults_match_reference_setup(self):
        p = ScenarioParams()
        assert p.f_carrier == 28e9
        assert p.K == 5
        assert p.center == (100.0, 0.0)
        assert p.radius == 50.0
        assert p.paths_per_user == 5
        assert p.r_range == (0.0, 75.0)
        assert p.theta_range == (-np.pi / 2, np.pi / 2)
        assert p.p_tx_dbm == 10.0
        assert p.n0_dbm_hz == -174.0
        assert p.bandwidth_hz == 1e6
        assert p.N == 4
        assert p.M == 128

    def test_default_region_is_eight_apertures(self):
        p = ScenarioParams(M=128)
        lo, hi = p.resolved_region()
        assert lo == 0.0
        np.testing.assert_allclose(hi, 8 * 127 * p.d, rtol=1e-12)

    def test_power_ratio_value(self):
        p = ScenarioParams()
        np.testing.assert_allclose(p.link_powers().p_bar, 10 ** 12.4, rtol=1e-12)

    @pytest.mark.parametrize("kwargs", [
        dict(K=0),
        dict(paths_per_user=0),
        dict(radius=-1.0),
        dict(center=(10.0, 0.0), radius=20.0),  # disk covers the origin
        dict(r_range=(5.0, 1.0)),
        dict(theta_range=(-2.0, 2.0)),
        dict(region=(1.0, 0.0)),
        dict(seed=-1),
        dict(p_tx_dbm=(10.0, 12.0)),  # wrong length for K=5
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ScenarioParams(**kwargs)

    def test_digest_is_stable_and_sensitive(self):
        a, b = ScenarioParams(), ScenarioParams()
        assert a.digest() == b.digest()
        assert a.digest() != ScenarioParams(K=4).digest()


class TestSampleScenario:
    def test_reproducible_bit_exactly(self):
        p = ScenarioParams(K=3, M=16, region=(0.0, 0.1))
        a = sample_scenario(p, trial=4)
        b = sample_scenario(p, trial=4)
        assert np.array_equal(a.user_positions, b.user_positions)
        for ua, ub in zip(a.users, b.users):
            assert np.array_equal(ua.gains, ub.gains)
            assert np.array_equal(ua.aoas, ub.aoas)
        assert a.params_digest == b.params_digest

    def test_trials_differ(self):
        p = ScenarioParams(K=3)
        a = sample_scenario(p, trial=0)
        b = sample_scenario(p, trial=1)
        assert not np.array_equal(a.user_positions, b.user_positions)

    def test_streams_are_order_insensitive(self):
        draws_direct = trial_rng(42, 9).random(8)
        for t in range(9):
            trial_rng(42, t).random(8)
        draws_after_others = trial_rng(42, 9).random(8)
        assert np.array_equal(draws_direct, draws_after_others)

    def test_degenerate_disk_pins_users_to_center(self):
        p = ScenarioParams(K=4, radius=0.0)
        scn = sample_scenario(p)
        np.testing.assert_allclose(scn.user_positions,
                                   np.tile([100.0, 0.0], (4, 1)), atol=1e-12)

    def test_geometry_independent_of_array_size_and_region(self):
        # bit for bit: run_sweep scores every problem of a trial with one
        # problem's users and powers
        base = ScenarioParams(K=3, M=32, region=(0.0, 0.5))
        a = sample_scenario(base, trial=3)
        for other in (dataclasses.replace(base, M=128, region=(0.0, 2.0)),
                      dataclasses.replace(base, confine_aperture=True),
                      dataclasses.replace(base, M=64, region=(0.0, 0.0),
                                          confine_aperture=True)):
            b = sample_scenario(other, trial=3)
            for ua, ub in zip(a.users, b.users, strict=True):
                assert ua.gains.tobytes() == ub.gains.tobytes()
                assert ua.aoas.tobytes() == ub.aoas.tobytes()
            assert a.powers.p_bar.tobytes() == b.powers.p_bar.tobytes()
            assert a.user_positions.tobytes() == b.user_positions.tobytes()

    def test_gain_model_uses_user_distance(self):
        p = ScenarioParams(K=2, paths_per_user=4)
        scn = sample_scenario(p, trial=1)
        lam = p.wavelength
        for k, user in enumerate(scn.users):
            r = np.hypot(*scn.user_positions[k])
            beta = (lam / (4 * np.pi * r)) ** 2
            np.testing.assert_allclose(np.abs(user.gains),
                                       np.sqrt(beta / 4) * np.ones(4), rtol=1e-12)

    def test_aoa_distribution_is_uniform(self):
        p = ScenarioParams(K=1, paths_per_user=5)
        aoas = np.concatenate([sample_scenario(p, trial=t).users[0].aoas
                               for t in range(2000)])
        assert aoas.size == 10_000
        stat = stats.kstest(aoas, stats.uniform(loc=-np.pi / 2, scale=np.pi).cdf)
        assert stat.pvalue > 0.01

    def test_disk_sampling_is_area_uniform(self):
        p = ScenarioParams(K=10, radius=50.0)
        offsets = np.concatenate([
            sample_scenario(p, trial=t).user_positions - [100.0, 0.0]
            for t in range(1000)])
        mean_sq = np.mean(np.sum(offsets ** 2, axis=1))
        np.testing.assert_allclose(mean_sq, 50.0 ** 2 / 2, rtol=0.05)

    def test_scatterer_radii_within_range(self):
        scn = sample_scenario(ScenarioParams(), trial=2)
        assert np.all(scn.scatterer_r >= 0.0)
        assert np.all(scn.scatterer_r <= 75.0)

    def test_scenario_arrays_read_only(self):
        scn = sample_scenario(ScenarioParams(K=2), trial=0)
        with pytest.raises(ValueError):
            scn.user_positions[0, 0] = 1.0

    def test_rejects_negative_trial(self):
        with pytest.raises(ValueError):
            sample_scenario(ScenarioParams(), trial=-1)
