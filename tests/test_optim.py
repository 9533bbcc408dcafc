import numpy as np
from hypothesis import given, strategies as st

from gma.optim import (GridSpec, OptimizerSettings, alternate, grid_end,
                        level_grids, position_grid, refine)

from util import WAVELENGTH, make_cfg

D = WAVELENGTH / 2


def upper_end(lo, step, k, kind, frac):
    on = lo + step * k
    return {"on": on, "clamped": np.nextafter(on, -np.inf),
            "above": np.nextafter(on, np.inf), "appended": on + frac * step}[kind]


class TestLevelGrids:
    @given(seed=st.integers(0, 10 ** 6),
           step_kind=st.sampled_from(["d/8", "lambda/100", "random"]),
           ends=st.lists(st.tuples(st.integers(1, 60),
                                   st.sampled_from(["on", "clamped", "above",
                                                    "appended"]),
                                   st.floats(0.01, 0.99)),
                         min_size=1, max_size=6))
    def test_parts_rebuild_each_grid_bit_for_bit(self, seed, step_kind, ends):
        rng = np.random.default_rng(seed)
        lo = float(rng.uniform(0.0, 0.1))
        step = {"d/8": D / 8, "lambda/100": WAVELENGTH / 100,
                "random": float(rng.uniform(D / 40, D / 4))}[step_kind]
        his = [upper_end(lo, step, *e) for e in ends] + [lo]
        grid, parts = level_grids(lo, his, step)
        assert grid.tobytes() == position_grid(lo, max(his), step).tobytes()
        assert len(parts) == len(his)
        for hi, (n, end) in zip(his, parts):
            assert end.size <= 1 and end.base is None
            rebuilt = np.concatenate([grid[:n], end])
            assert rebuilt.tobytes() == position_grid(lo, hi, step).tobytes()

    @given(seed=st.integers(0, 10 ** 6),
           step_kind=st.sampled_from(["d/8", "lambda/100", "random"]),
           k=st.integers(0, 60),
           kind=st.sampled_from(["on", "clamped", "above", "appended"]),
           frac=st.floats(0.01, 0.99))
    def test_grid_end_is_position_grids_size_and_last_point(
            self, seed, step_kind, k, kind, frac):
        rng = np.random.default_rng(seed)
        lo = float(rng.uniform(0.0, 0.1))
        step = {"d/8": D / 8, "lambda/100": WAVELENGTH / 100,
                "random": float(rng.uniform(D / 40, D / 4))}[step_kind]
        hi = max(lo, upper_end(lo, step, k, kind, frac))
        count, last = grid_end(lo, hi, step)
        pts = position_grid(lo, hi, step)
        assert count == pts.size
        assert np.float64(last).tobytes() == pts[-1].tobytes()
        assert (lo + step * np.arange(count - 1)).tobytes() == pts[:-1].tobytes()

    def test_clamped_and_appended_ends_are_their_upper_ends(self):
        lo, step = 0.03, D / 8
        clamped, appended = np.nextafter(lo + step * 40, 0.0), lo + 30.5 * step
        grid, [(n1, e1), (n2, e2), (n3, e3)] = level_grids(
            lo, [clamped, appended, lo + 48 * step], step)
        assert (n1, e1.tolist()) == (40, [clamped])
        assert (n2, e2.tolist()) == (31, [appended])
        assert (n3, e3.size) == (grid.size, 0)


class TestRefine:
    @given(seed=st.integers(0, 10 ** 6), levels=st.integers(0, 3),
           factor=st.integers(2, 9), at=st.floats(0.0, 1.0))
    def test_scores_inside_the_interval_and_counts_what_it_scored(
            self, seed, levels, factor, at):
        rng = np.random.default_rng(seed)
        lo, hi, step = 0.02, 0.02 + 40 * D / 8, D / 8
        y0 = lo + at * (hi - lo)
        peak = float(rng.uniform(lo, hi))
        scored = []

        def score(pts):
            scored.append(pts)
            return -np.abs(pts - peak)

        y, val, evals = refine(y0, -abs(y0 - peak), lo, hi, step,
                               GridSpec(refine_levels=levels, refine_factor=factor),
                               score)
        assert len(scored) == levels
        assert evals == sum(p.size for p in scored)
        assert all(np.all((lo <= p) & (p <= hi)) for p in scored)
        assert val == -abs(y - peak) and val >= -abs(y0 - peak)
        seen = np.concatenate([[y0], *scored])
        assert val == max(-np.abs(seen - peak))

    def test_ties_keep_the_incumbent(self):
        scored = []

        def flat(pts):
            scored.append(pts.size)
            return np.ones(pts.size)

        y, val, evals = refine(0.0123, 1.0, 0.0, 0.1, D / 8, GridSpec(), flat)
        assert (y, val) == (0.0123, 1.0)
        assert evals == sum(scored) > 0


class TestAlternate:
    def test_ties_keep_the_start_and_every_point_counts(self):
        cfg = make_cfg(M=16, N=4, span_wavelengths=4.0)
        scored, polished = [], []

        def flat(pts, eta):
            scored.append(pts.size)
            return np.ones(pts.size)

        def polish(y, val, eta):
            polished.append((y, eta))
            return y + D / 64, val, 3  # moves to a point of equal value

        sol = alternate((1.0, cfg.y_min, 1, 10), cfg, D / 8, GridSpec(),
                        OptimizerSettings(), flat, lambda y: (2, 1.0), polish)
        assert (sol.y_star, sol.eta_star, sol.objective) == (cfg.y_min, 1, 1.0)
        assert (sol.rounds, sol.trace, polished) == (1, (1.0, 1.0), [(cfg.y_min, 1)])
        sparsity_points = len(cfg.feasible_etas(cfg.y_min + D / 64))
        assert sol.evals == 10 + sum(scored) + 3 + sparsity_points

    def test_rounds_run_until_the_objective_stalls_or_the_cap(self):
        # the third round rises by 1e-5 of the best, under epsilon: the last
        cfg = make_cfg(M=16, N=4, span_wavelengths=4.0)
        values = (2.0, 3.0, 3.0 * (1 + 1e-5))
        for cap, rounds in ((50, 3), (2, 2)):
            rises = iter(values)
            sol = alternate((1.0, cfg.y_min, 1, 0), cfg, D / 8, GridSpec(),
                            OptimizerSettings(epsilon=1e-4, max_alt_iters=cap),
                            lambda pts, eta: np.zeros(pts.size),
                            lambda y: (1, next(rises)))
            assert sol.rounds == rounds
            assert sol.trace == (1.0, *values[:rounds]) and sol.objective == sol.trace[-1]
