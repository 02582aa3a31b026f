"""Tests for the benchmark's own code: span arithmetic, failure counting
and output digests. Run with `python3 -m pytest perfbench/tests`."""

import pytest

import run
import spans
import workloads
from semcomm import Dmc, coding
from semcomm.errors import ConvergenceError


def _span(id, parent, name, start, end):
    return spans.Span(id=id, parent=parent, op=1, name=name, start=start, end=end)


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    tree = [
        _span(0, None, "root", 0.0, 10.0),
        _span(1, 0, "a", 1.0, 4.0),
        _span(2, 1, "a.leaf", 2.0, 3.0),
        _span(3, 0, "b", 3.0, 6.0),   # overlaps a: [1, 6] is covered once
        _span(4, 0, "c", 8.0, 12.0),  # runs past root: only [8, 10] counts
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 4.0})


def test_busy_counts_nested_same_name_spans_once():
    tree = [
        _span(0, None, "f", 0.0, 5.0),
        _span(1, 0, "g", 1.0, 4.0),
        _span(2, 1, "f", 2.0, 3.0),
        _span(3, None, "f", 6.0, 7.0),
    ]
    assert spans.busy(tree, "f") == pytest.approx(6.0)
    assert spans.busy(tree, "g") == pytest.approx(3.0)


def test_raising_op_is_counted_and_the_campaign_carries_on(monkeypatch):
    real = coding.check_fano

    def flaky(inst):
        if inst.label == "campaign-2":
            raise RuntimeError("injected")
        return real(inst)

    monkeypatch.setattr(coding, "check_fano", flaky)
    job = workloads.campaign(seed=0, instances=4)
    assert (job.attempted, job.failed) == (4, 1)
    assert job.outputs[2] == "RuntimeError"
    assert all(isinstance(job.outputs[i], list) for i in (0, 1, 3))
    metrics = run.end_to_end([job], setup_s=1.0)
    assert metrics["ok_ratio"] == pytest.approx(0.75)


def test_failing_cli_call_fails_all_its_trials():
    job = workloads.Job()
    workloads._cli_simulate(job, ["--channel", "nosuch:1"], "8,12", 50, seed=1)
    assert (job.attempted, job.failed) == (100, 100)
    assert job.outputs == [None]


def test_digests_repeat_across_in_process_runs():
    tiny = {
        "sweep": lambda: workloads.sweep(5, grid="64", trials=200),
        "short-block": lambda: workloads.short_block(
            5, mpsk_grid="2", typicality_grid="8", cli_trials=200,
            shared_n=8, shared_bits=4, shared_trials=200),
        "campaign": lambda: workloads.campaign(5, instances=6),
    }
    for name, job in tiny.items():
        first, second = job(), job()
        assert first.failed == 0 and not first.problems, name
        assert first.digest == second.digest, name
    # The campaign seed only orders the pinned instances.
    assert workloads.campaign(6, instances=6).digest == tiny["campaign"]().digest
    assert workloads.sweep(6, grid="64", trials=200).digest != tiny["sweep"]().digest
    assert workloads.sweep(5, grid="64", trials=200, threads=1).digest == tiny["sweep"]().digest


def test_tracer_wraps_the_lookup_the_caller_uses_and_restores_it():
    original = coding.blahut_arimoto
    tracer = spans.Tracer()
    with tracer.installed():
        workloads.campaign(0, instances=2, tracer=tracer)
    assert coding.blahut_arimoto is original
    by_id = {s.id: s for s in tracer.spans}
    ba = [s for s in tracer.spans if s.name == "capacity.blahut_arimoto"]
    assert len(ba) == 2
    assert all(by_id[s.parent].name == "coding.converse_chain" for s in ba)
    assert {s.op for s in tracer.spans} == {1, 2}
    layer = spans.layer_metrics(tracer.spans)
    assert layer["capacity.blahut_arimoto.calls"] == 2
    assert layer["coding.exact_evaluate.calls"] == 2


def test_tracer_counts_a_stalled_blahut_arimoto_call():
    z_channel = Dmc(("0", "1"), ("0", "1"), [[1.0, 0.0], [0.5, 0.5]])
    tracer = spans.Tracer()
    with tracer.installed(), pytest.raises(ConvergenceError):
        coding.blahut_arimoto(z_channel, max_iter=3)
    layer = spans.layer_metrics(tracer.spans)
    assert layer["capacity.blahut_arimoto.stalls"] == 1
    assert layer["capacity.blahut_arimoto.iterations"] == 3
    assert layer["capacity.blahut_arimoto.iterations_max"] == 0


def test_bsc_ensemble_oracle_matches_brute_force():
    import itertools

    n, p, bits = 4, 0.1, 2
    total = 0.0
    for noise in itertools.product((0, 1), repeat=n):
        d = sum(noise)
        # A uniform competitor's distance to y is the weight of a uniform word.
        farther = sum(sum(c) > d for c in itertools.product((0, 1), repeat=n)) / 2**n
        total += p**d * (1 - p) ** (n - d) * farther ** (2**bits - 1)
    assert workloads.bsc_ensemble_p_sem(n, p, bits) == pytest.approx(1 - total, rel=1e-12)


def test_harrell_davis_is_a_weighted_mean_of_order_statistics():
    assert run.harrell_davis([7.0], 0.99) == 7.0
    values = [float(v) for v in range(1, 102)]
    assert run.harrell_davis(values, 0.5) == pytest.approx(51.0)
    high = run.harrell_davis(values, 0.99)
    assert 98.0 < high < 101.0
