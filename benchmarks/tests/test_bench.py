"""Tests of the benchmark itself: tracing, span arithmetic and output checks.

    python3 -m pytest -q benchmarks/tests

The traced-run tests execute one trial of every workload twice (about 8 s
on two cores).
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

import run as bench_run
import workloads as wl
from gma import combining, experiments, multiuser
from gma.optim import GridSpec, OptimizerSettings
from tracing import COUNTERS, NAME, TARGETS, Tracer, layer_metrics, self_times

ROOT = Path(__file__).resolve().parents[2]

# the workload on which each wrapped function must be called
CALLED_ON = {
    "scenario.sample_scenario": "compare",
    "arrays.gain_weighted_shifts": "compare",
    "arrays.channel_profile": "compare",
    "combining.batch_sinr": "compare",
    "combining.batch_objective": "compare",
    "combining.metric_profiles": "compare",
    "combining.objective_metric": "compare",
    "multiuser.optimize_multiuser": "compare",
    "multiuser.sparsity_search": "compare",
    "sca.optimize_single_user": "single-user",
    "sca.optimize_position_sca": "single-user",
    "sca.snr_profile": "single-user",
    "sca.optimize_sparsity": "single-user",
    "baselines.ma_optimize": "compare-ma",
    "baselines.layout_channel_stack": "compare-ma",
    "baselines.exhaustive_search": "single-user",
    "baselines.fpa_metric": "compare",
    "experiments.run_trial_schemes": "compare",
    "experiments.run_sweep": "sweep",
    "experiments.write_records_csv": "compare",
    "experiments.write_metadata": "compare",
}


def span(name, start, end, parent=None, counters=None):
    return [name, start, end, parent, counters]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, 0),
        span("a.child", 2.0, 3.0, 1),
        span("b", 3.0, 6.0, 0),       # overlaps a: [3, 4] counts once
        span("late", 8.0, 12.0, 0),   # overhangs root: only [8, 10] counts
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 2, 2.0, 1.0, 3.0, 4.0])


def test_layer_metrics_divide_by_traced_trials():
    spans = [
        span("setup", 0.0, 1.0),
        span("scenario.sample_scenario", 0.2, 0.4, 0),
        span("trial", 1.0, 3.0),
        span("combining.batch_sinr", 1.5, 2.0, 2, {"rows": 10, "mmse_rows": 10, "bytes": 100}),
        span("trial", 3.0, 5.0),
        span("combining.batch_sinr", 3.0, 4.5, 4, {"rows": 30, "mmse_rows": 30, "bytes": 300}),
        span("experiments.write_records_csv", 5.0, 5.25, None, {"bytes": 64}),
    ]
    m = layer_metrics(spans)
    assert m["combining.batch_sinr.calls"] == 1.0
    assert m["combining.batch_sinr.rows"] == 20.0
    assert m["combining.batch_sinr.self_s"] == pytest.approx(1.0)
    assert m["combining.batch_sinr.self_frac"] == pytest.approx(0.5)
    assert m["combining.batch_sinr.rows_per_s"] == pytest.approx(20.0)
    assert m["combining.batch_sinr.rows_per_call"] == pytest.approx(20.0)
    assert m["combining.batch_sinr.bytes_computed"] == 200.0
    assert m["trace.uncovered_frac"] == pytest.approx(0.5)
    # outside-trial spans are summarized per call
    assert m["scenario.sample_scenario.self_s"] == pytest.approx(0.2)
    assert m["experiments.write_records_csv.self_s"] == pytest.approx(0.25)
    assert m["experiments.write_records_csv.bytes"] == 64


def test_install_patches_every_binding_and_restores_it():
    originals = (combining.metric_profiles, multiuser.metric_profiles,
                 experiments.metric_profiles, experiments.optimize_multiuser)
    tracer = Tracer()
    with tracer.installed():
        assert multiuser.metric_profiles is not originals[1]
        assert multiuser.metric_profiles.__wrapped__ is originals[0]
        assert experiments.optimize_multiuser.__wrapped__ is originals[3]
    assert (combining.metric_profiles, multiuser.metric_profiles,
            experiments.metric_profiles, experiments.optimize_multiuser) == originals


def test_generator_spans_cover_each_next_only():
    tracer = Tracer()
    scenario = wl.WORKLOADS["compare"].build_pool(3)[0].scenario
    cfg = scenario.cfg
    with tracer.installed():
        gen = multiuser.metric_profiles([cfg.y_min, cfg.y_max], [1, 2, 3],
                                        scenario.users, scenario.powers, cfg)
        first = next(gen)
        rest = list(gen)
    assert [e for e, _ in [first] + rest] == [1, 2, 3]
    profile = [s for s in tracer.spans if s[NAME] == "combining.metric_profiles"]
    assert len(profile) == 3  # one per yielded eta; exhaustion is not a span
    assert all(s[COUNTERS] == {"rows": 2} for s in profile)


@pytest.fixture(scope="module")
def one_trial_each(tmp_path_factory):
    """For every workload: a Run after one untraced and one traced trial of
    its first input, and the tracer that recorded the traced one."""
    settings, grid = OptimizerSettings(), GridSpec()
    out = {}
    for name, workload in wl.WORKLOADS.items():
        tracer = Tracer()
        with tracer.installed(), tracer.span("setup"):
            pool = workload.build_pool(5)
        run = bench_run.Run(workload, pool, tmp_path_factory.mktemp(name),
                            settings, grid)
        _, plain = run.trial(0)
        _, traced = run.trial(0, tracer)
        out[name] = (run, tracer, plain, traced)
    return out


def test_traced_and_untraced_trials_write_identical_rows(one_trial_each):
    for name, (run, _, plain, traced) in one_trial_each.items():
        assert run.errors == [], name
        assert run.attempted == 2 * run.workload.records_per_trial
        assert run.failed == 0
        strip = lambda recs: [r[:wl.WALL_MS] + r[wl.WALL_MS + 1:]
                              for r in (x.csv_row() for x in recs)]
        assert strip(plain) == strip(traced), name


def test_every_wrapped_function_is_called_where_expected(one_trial_each):
    assert set(CALLED_ON) == {t.span_name for t in TARGETS}
    for fn, workload in CALLED_ON.items():
        spans = one_trial_each[workload][1].spans
        assert any(s[NAME] == fn for s in spans), f"{fn} not traced on {workload}"


def test_single_user_has_only_single_point_batch_sinr_rows(one_trial_each):
    spans = one_trial_each["single-user"][1].spans
    sinr = [s for s in spans if s[NAME] == "combining.batch_sinr"]
    assert sinr, "the stored SNRs go through batch_sinr once each"
    assert all(s[COUNTERS]["rows"] == 1 for s in sinr)
    assert all(s[COUNTERS]["mmse_rows"] == 0 for s in sinr)


def test_compare_trace_reproduces_the_search_size(one_trial_each):
    run, tracer, plain, _ = one_trial_each["compare"]
    m = layer_metrics(tracer.spans)
    gma = next(r for r in plain if r.scheme == "gma")
    assert m["multiuser.evals"] == gma.evals
    layer_self = {k: v for k, v in m.items() if k.endswith(".self_s")}
    assert max(layer_self, key=layer_self.get) == "combining.batch_sinr.self_s"


def test_checks_catch_broken_invariants(one_trial_each):
    run, _, plain, _ = one_trial_each["compare-ma"]
    entry = run.pool[0]
    assert wl.check_records(run.workload, entry, plain) == [None] * 3
    by = {r.scheme: r for r in plain}
    low_ma = replace(by["ma"], metric=by["gma"].metric * (1 - 1e-9))
    verdicts = wl.check_records(run.workload, entry, [by["gma"], by["fpa"], low_ma])
    assert verdicts[2] is not None and "below gma" in verdicts[2]
    drifted = replace(by["gma"], metric=by["gma"].metric * (1 + 1e-9))
    verdicts = wl.check_records(run.workload, entry, [drifted, by["fpa"], by["ma"]])
    assert "re-evaluates" in verdicts[0]
    assert wl.check_records(run.workload, entry, plain[:2]) == [
        "expected 3 records, got 2"] * 3


def test_sweep_check_catches_a_decrease(one_trial_each):
    run, _, plain, _ = one_trial_each["sweep"]
    entry = run.pool[0]
    assert wl.check_records(run.workload, entry, plain) == [None] * len(plain)
    # push the GMA value of the largest region at M = 128 below the next one
    recs = list(plain)
    lower, top = len(recs) - 4, len(recs) - 2
    assert recs[lower].scheme == recs[top].scheme == "gma"
    recs[top] = replace(recs[top], metric=recs[lower].metric * (1 - 1e-9))
    verdicts = wl.check_records(run.workload, entry, recs)
    assert verdicts[top] == "gma decreased along the region axis"

def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # compare-ma is run by hand only; see workloads.py
    assert [w["name"] for w in spec["workloads"]] + ["compare-ma"] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench_run.PER_LAYER_UNITS


def _result(workload, seed, trial_s, rate):
    return {"workload": workload, "seed": seed, "correct": True,
            "attempted": 3, "failed": 0,
            "metrics": {"trial_s.p50": {"value": trial_s, "unit": "s"},
                        "rate_gma": {"value": rate, "unit": "bits/s/Hz"}}}


def test_compare_gates_on_the_median_of_paired_changes():
    import suite
    # seeds differ far more than the change does; pairing cancels that
    base = [_result("compare", 1, 1.0, 30.0), _result("compare", 2, 3.0, 31.0),
            _result("compare", 3, 2.0, 29.0)]
    faster = [_result("compare", s, t * 0.9, r)
              for s, t, r in [(1, 1.0, 30.0), (2, 3.0, 31.0), (3, 2.0, 29.0)]]
    assert suite.compare(base, faster) == 0
    slower = [dict(r, metrics=dict(r["metrics"], **{"trial_s.p50": {
        "value": r["metrics"]["trial_s.p50"]["value"] / 0.7, "unit": "s"}}))
        for r in base]
    assert suite.compare(base, slower) == 1
    worse_rate = [dict(r, metrics=dict(r["metrics"], rate_gma={
        "value": r["metrics"]["rate_gma"]["value"] * 0.8, "unit": "bits/s/Hz"}))
        for r in base]
    assert suite.compare(base, worse_rate) == 1
    # a seed on one side only is left out; no seed in common is an error
    assert suite.compare(base, faster[:1] + [_result("compare", 9, 9.0, 1.0)]) == 0
    assert suite.compare(base, [_result("compare", 9, 1.0, 30.0)]) == 2
