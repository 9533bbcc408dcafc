"""Spans around the public functions of each `gma` module, recorded from outside.

The benchmark never edits the package: `Tracer.installed()` swaps each listed
function for a timing wrapper in its defining module and in every `gma`
module that imported it by name (a `from .x import f` binding would
otherwise bypass the wrapper), and puts the originals back on exit.

A span is `[name, start, end, parent, counters]`, kept in memory until the
run ends. `self_times` subtracts the part of each span that its children
cover, and `layer_metrics` turns the spans of the traced trials into the
per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

NAME, START, END, PARENT, COUNTERS = range(5)
TRIAL = "trial"  # the span the runner opens around each traced trial
COMPLEX_BYTES = 16


def _batch_sinr_counters(args, kwargs, result):
    B, K, N = args[0].shape
    # H, plus S = I + sum p h h^H and X = S^-1 H^T on the K > 1 MMSE path
    elements = B * K * N + (B * N * N + B * N * K if K > 1 else 0)
    return {"rows": B, "mmse_rows": B if K > 1 else 0,
            "bytes": COMPLEX_BYTES * elements}


def _rows_of_first_arg(args, kwargs, result):
    return {"rows": int(np.atleast_1d(args[0]).shape[0])}


def _layout_rows(args, kwargs, result):
    return {"rows": int(result.shape[0])}


def _profile_rows(args, kwargs, item):
    return {"rows": int(item[1].size)}


def _csv_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _solution_stats(args, kwargs, sol):
    rose = sum(b > a for a, b in zip(sol.trace, sol.trace[1:]))
    return {"evals": sol.evals, "rounds": sol.rounds,
            "steps": max(len(sol.trace) - 1, 0), "rose": rose,
            "sca_iters": sum(sol.sca_iters)}


@dataclass(frozen=True)
class Target:
    """One wrapped function; `counters` reads work counts off its call."""

    module: str
    name: str
    counters: Callable | None = None
    generator: bool = False

    @property
    def span_name(self) -> str:
        return f"{self.module}.{self.name}"


TARGETS = (
    Target("scenario", "sample_scenario"),
    Target("arrays", "gain_weighted_shifts"),
    Target("arrays", "channel_profile"),
    Target("combining", "batch_sinr", _batch_sinr_counters),
    Target("combining", "batch_objective"),
    Target("combining", "metric_profiles", _profile_rows, generator=True),
    Target("combining", "objective_metric"),
    Target("multiuser", "optimize_multiuser", _solution_stats),
    Target("multiuser", "sparsity_search"),
    Target("sca", "optimize_single_user", _solution_stats),
    Target("sca", "optimize_position_sca"),
    Target("sca", "snr_profile", _rows_of_first_arg),
    Target("sca", "optimize_sparsity"),
    Target("baselines", "ma_optimize"),
    Target("baselines", "layout_channel_stack", _layout_rows),
    Target("baselines", "exhaustive_search"),
    Target("baselines", "fpa_metric"),
    Target("experiments", "run_trial_schemes"),
    Target("experiments", "run_sweep"),
    Target("experiments", "write_records_csv", _csv_bytes),
    Target("experiments", "write_metadata"),
)


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, counters: dict | None = None) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[COUNTERS] = counters
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span[NAME]} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def discard(self, idx: int) -> None:
        """Drop the newest span, which must be the open one at idx."""
        if self._stack.pop() != idx or idx != len(self.spans) - 1:
            raise RuntimeError("only the newest open span can be discarded")
        self.spans.pop()

    def _wrap(self, fn, target: Target):
        tracer, name, count = self, target.span_name, target.counters

        if target.generator:
            def wrapped_gen(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        idx = tracer.open(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            tracer.discard(idx)
                            return
                        except BaseException:
                            tracer.close(idx)
                            raise
                        tracer.close(idx, count(args, kwargs, item) if count else None)
                        yield item
                finally:
                    inner.close()
            wrapped_gen.__wrapped__ = fn
            return wrapped_gen

        def wrapped(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx)
                raise
            tracer.close(idx, count(args, kwargs, result) if count else None)
            return result
        wrapped.__wrapped__ = fn
        return wrapped

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of every target; restore them all on exit."""
        patched = []
        try:
            for target in TARGETS:
                home = sys.modules[f"gma.{target.module}"]
                original = getattr(home, target.name)
                wrapper = self._wrap(original, target)
                for mod_name, module in list(sys.modules.items()):
                    if mod_name != "gma" and not mod_name.startswith("gma."):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, so overlapping or
    overhanging child spans are never subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def _in_trial(spans) -> list[bool]:
    """Whether each span is, or descends from, a trial span."""
    inside: list[bool] = []
    for span in spans:
        parent = span[PARENT]
        inside.append(span[NAME] == TRIAL
                      or (parent is not None and inside[parent]))
    return inside


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer figures per traced trial, from the spans of one run.

    Counts, rows, bytes and self seconds are summed over the spans inside
    "trial" spans and divided by the number of such trials. Spans
    outside any trial (set-up sampling, CSV writing) are summarized by their
    own calls. `trace.uncovered_frac` is the part of trial time that no
    layer span covers.
    """
    selfs = self_times(spans)
    in_trial = _in_trial(spans)
    trials = [i for i, s in enumerate(spans) if s[NAME] == TRIAL]
    n = max(len(trials), 1)
    trial_total = sum(spans[i][END] - spans[i][START] for i in trials)

    calls: dict[str, int] = {}
    selfsum: dict[str, float] = {}
    counts: dict[str, float] = {}
    all_calls: dict[str, int] = {}
    all_self: dict[str, float] = {}
    for i, span in enumerate(spans):
        name = span[NAME]
        all_calls[name] = all_calls.get(name, 0) + 1
        all_self[name] = all_self.get(name, 0.0) + selfs[i]
        if not in_trial[i]:
            continue
        calls[name] = calls.get(name, 0) + 1
        selfsum[name] = selfsum.get(name, 0.0) + selfs[i]
        for key, value in (span[COUNTERS] or {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value

    def per_trial(key, table):
        return table.get(key, 0) / n

    def mean_per_call(name):
        c = all_calls.get(name, 0)
        return all_self.get(name, 0.0) / c if c else 0.0

    sinr_rows = counts.get("combining.batch_sinr.rows", 0)
    sinr_calls = calls.get("combining.batch_sinr", 0)
    sinr_self = selfsum.get("combining.batch_sinr", 0.0)
    mu_steps = counts.get("multiuser.optimize_multiuser.steps", 0)
    sca_steps = counts.get("sca.optimize_single_user.steps", 0)
    csv_calls = all_calls.get("experiments.write_records_csv", 0)
    csv_bytes = sum((s[COUNTERS] or {}).get("bytes", 0) for s in spans
                    if s[NAME] == "experiments.write_records_csv")
    out = {
        "combining.batch_sinr.calls": per_trial("combining.batch_sinr", calls),
        "combining.batch_sinr.rows": per_trial("combining.batch_sinr.rows", counts),
        "combining.batch_sinr.mmse_rows":
            per_trial("combining.batch_sinr.mmse_rows", counts),
        "combining.batch_sinr.self_s": per_trial("combining.batch_sinr", selfsum),
        "combining.batch_sinr.self_frac":
            sinr_self / trial_total if trial_total else 0.0,
        "combining.batch_sinr.rows_per_s": sinr_rows / sinr_self if sinr_self else 0.0,
        "combining.batch_sinr.rows_per_call": sinr_rows / sinr_calls if sinr_calls else 0.0,
        "combining.batch_sinr.bytes_computed": per_trial("combining.batch_sinr.bytes", counts),
        "combining.metric_profiles.rows": per_trial("combining.metric_profiles.rows", counts),
        "combining.metric_profiles.self_s": per_trial("combining.metric_profiles", selfsum),
        "combining.objective_metric.calls": per_trial("combining.objective_metric", calls),
        "combining.objective_metric.self_s": per_trial("combining.objective_metric", selfsum),
        "arrays.gain_weighted_shifts.self_s": per_trial("arrays.gain_weighted_shifts", selfsum),
        "arrays.channel_profile.self_s": per_trial("arrays.channel_profile", selfsum),
        "multiuser.optimize_multiuser.calls": per_trial("multiuser.optimize_multiuser", calls),
        "multiuser.optimize_multiuser.self_s": per_trial("multiuser.optimize_multiuser", selfsum),
        "multiuser.sparsity_search.calls": per_trial("multiuser.sparsity_search", calls),
        "multiuser.sparsity_search.self_s": per_trial("multiuser.sparsity_search", selfsum),
        "multiuser.evals": per_trial("multiuser.optimize_multiuser.evals", counts),
        "multiuser.rounds": per_trial("multiuser.optimize_multiuser.rounds", counts),
        "multiuser.useful_round_frac":
            counts.get("multiuser.optimize_multiuser.rose", 0) / mu_steps if mu_steps else 0.0,
        "sca.optimize_position_sca.calls": per_trial("sca.optimize_position_sca", calls),
        "sca.optimize_position_sca.self_s": per_trial("sca.optimize_position_sca", selfsum),
        "sca.snr_profile.calls": per_trial("sca.snr_profile", calls),
        "sca.snr_profile.rows": per_trial("sca.snr_profile.rows", counts),
        "sca.snr_profile.self_s": per_trial("sca.snr_profile", selfsum),
        "sca.optimize_sparsity.self_s": per_trial("sca.optimize_sparsity", selfsum),
        "sca.iters": per_trial("sca.optimize_single_user.sca_iters", counts),
        "sca.evals": per_trial("sca.optimize_single_user.evals", counts),
        "sca.useful_round_frac":
            counts.get("sca.optimize_single_user.rose", 0) / sca_steps if sca_steps else 0.0,
        "baselines.ma_optimize.self_s": per_trial("baselines.ma_optimize", selfsum),
        "baselines.layout_channel_stack.calls": per_trial("baselines.layout_channel_stack", calls),
        "baselines.layout_channel_stack.rows": per_trial("baselines.layout_channel_stack.rows", counts),
        "baselines.layout_channel_stack.self_s": per_trial("baselines.layout_channel_stack", selfsum),
        "baselines.exhaustive_search.calls": per_trial("baselines.exhaustive_search", calls),
        "baselines.exhaustive_search.self_s": per_trial("baselines.exhaustive_search", selfsum),
        "baselines.fpa_metric.self_s": per_trial("baselines.fpa_metric", selfsum),
        "experiments.run_trial_schemes.self_s": per_trial("experiments.run_trial_schemes", selfsum),
        "experiments.write_records_csv.self_s": mean_per_call("experiments.write_records_csv"),
        "experiments.write_records_csv.bytes": csv_bytes / csv_calls if csv_calls else 0.0,
        "scenario.sample_scenario.self_s": mean_per_call("scenario.sample_scenario"),
        "trace.uncovered_frac":
            sum(selfs[i] for i in trials) / trial_total if trial_total else 0.0,
    }
    return out
