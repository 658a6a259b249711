"""Trace fidelity and consistency of the benchmark definition.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from dipa.graph import gen_random_graph  # noqa: E402
from dipa.outer import DipaParams  # noqa: E402

# Tiny instances that between them reach every wrapped lookup site:
# (n, graph seed, solver parameters, sites it is there for)
TINY = (
    (14, 1, dict(mode="ds", restore="lp"), "surgery with LP restoration"),
    (14, 1, dict(mode="ds", restore="qp"), "surgery with QP restoration"),
    (10, 24, dict(mode="ds"), "forced-zero arcs deleted before the start"),
    (10, 3, dict(mode="s"), "row-mode deflation and restore_S"),
    (10, 0, dict(mode="s", mu_initial=1.0, grad_tol=1e-9), "newton_polish in the main loop"),
)


def _solve_all(tracer=None) -> str:
    outcomes = []
    for n, seed, kw, _ in TINY:
        g = gen_random_graph(n, 3, 6, seed=seed, plant=True)
        params = DipaParams(seed=seed, **kw)
        if tracer is None:
            outcome, _ = harness.solve(g, params)
        else:
            with tracer.installed():
                tracer.instance = seed
                outcome, _ = harness.solve(g, params)
        assert not outcome.wrong, outcome
        outcomes.append(outcome)
    return "".join(harness.digest_text([o]) for o in outcomes)


@pytest.fixture(scope="module")
def traced():
    tracer = tracing.Tracer()
    return tracer, _solve_all(tracer)


def test_every_site_fires(traced):
    tracer, _ = traced
    silent = [site for site, calls in tracer.site_calls.items() if calls == 0]
    assert silent == []


def test_tracing_keeps_the_digest(traced):
    _, digest = traced
    assert _solve_all() == digest


def test_call_counts_repeat(traced):
    tracer, _ = traced
    again = tracing.Tracer()
    _solve_all(again)
    counts = lambda t: {k: (v[0], v[2]) for k, v in t.stats.items()}
    assert counts(again) == counts(tracer)
    assert again.linesearch_trials == tracer.linesearch_trials
    assert again.round_hits == tracer.round_hits


def test_spans_nest_and_self_time_adds_up(traced):
    tracer, _ = traced
    by_id = {s[0]: s for s in tracer.spans}
    roots = [s for s in tracer.spans if s[4] == -1]
    assert {s[1] for s in roots} == {"outer.dipa_solve"}
    for sid, _, start, end, parent, inst in tracer.spans:
        if parent != -1:
            p = by_id[parent]
            assert p[2] <= start <= end <= p[3] and p[5] == inst
    total_self = sum(v[1] for v in tracer.stats.values())
    total_root = sum(s[3] - s[2] for s in roots)
    assert total_self == pytest.approx(total_root, rel=1e-9)


def test_install_restores_every_site():
    def current():
        return [getattr(tracing._owner(t), a) for _, t, a in tracing.SITES]

    before = current()
    with tracing.Tracer().installed():
        assert all(x is not y for x, y in zip(before, current()))
    assert all(x is y for x, y in zip(before, current()))


def test_tail_index():
    assert harness.tail_index(30) == 19  # ten instances beyond it
    assert harness.tail_index(21) == 10
    assert harness.tail_index(18) == 17  # too few: the slowest instance
    assert harness.tail_index(1) == 0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()


def test_reference_digests_cover_each_family():
    for name, wl in harness.WORKLOADS.items():
        ref = harness.read_digest(ROOT / "perfbench" / "reference" / f"{name}.csv")
        assert sorted(ref) == sorted(wl.seeds)


def test_speed_probe_samples_and_restores():
    import signal
    import time

    import speed

    before = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe(period=0.05)
    with probe.running():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.4:
            pass
    assert len(probe.samples) >= 3
    assert probe.spent >= sum(d for _, d in probe.samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probe.factor() > 0.0
