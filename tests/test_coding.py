import hashlib
import itertools
import json
import math
import multiprocessing
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import semcomm.cli as cli
import semcomm.coding as coding
from semcomm import (
    BudgetError,
    ChannelRng,
    CodeConfig,
    Codebook,
    ConfigError,
    ConvergenceError,
    Dmc,
    ERASURE,
    FanoInstance,
    JointDist,
    KnowledgeBase,
    ProbVector,
    PskConfig,
    Sequence,
    SemanticPartition,
    ValidationError,
    blahut_arimoto,
    bsc,
    check_fano,
    converse_chain,
    decode_ml,
    decode_typicality,
    encode,
    exact_evaluate,
    fano_bound,
    generate_codebook,
    generate_full_codebook,
    is_jointly_typical,
    make_partition,
    mpsk_hard_dmc,
    partition_from_counts,
    random_fano_instance,
    run_fano_campaign,
    semantic_map,
    simulate,
    simulate_full_codebook,
    wilson_interval,
)
from semcomm.info import NEG, entropy_bits

UNIFORM2 = ProbVector(("0", "1"), [0.5, 0.5])


def _remake_pool():
    coding._pool.shutdown()
    coding._reset_pool()


@pytest.fixture
def cpus():
    """cpus(k) makes the batch pool see k CPUs: it patches _cpu_count, then
    remakes the pool (k threads). At teardown the patch is undone first and
    the pool remade after it, so no test's pool outlives the test."""
    with pytest.MonkeyPatch.context() as patch:
        def see(count):
            patch.setattr(coding, "_cpu_count", lambda: count)
            _remake_pool()

        yield see
    _remake_pool()


def _per_worker_count(cpus, run) -> list:
    """run() once for each CPU count the batch pool may see."""
    out = []
    for workers in (1, 2, 3, 8):
        cpus(workers)
        out.append(run())
    return out


# --- configuration ------------------------------------------------------------


def test_code_config_ceilings():
    cfg = CodeConfig(n=4, rate=0.75, alpha=0.5)
    assert cfg.message_bits == 3
    assert cfg.semantic_bits == 2
    assert cfg.message_count == 8
    assert cfg.semantic_count == 4
    assert cfg.realized_rate == 0.75
    assert cfg.realized_semantic_rate == 0.5


def test_code_config_snaps_float_noise():
    # 3 * 0.1 * 10 = 3.0000000000000004 must not round up to 4 bits
    cfg = CodeConfig(n=10, rate=0.1 * 3, alpha=1.0)
    assert cfg.message_bits == 3


def test_code_config_minimum_one_bit():
    cfg = CodeConfig(n=2, rate=0.1, alpha=0.5)
    assert cfg.message_bits == 1
    assert cfg.semantic_bits == 1


def test_code_config_huge_counts_are_exact():
    cfg = CodeConfig(n=128, rate=0.8, alpha=1.0)
    assert cfg.message_bits == 103
    assert cfg.message_count == 2**103


def test_code_config_validation():
    for bad in (dict(n=0, rate=1.0, alpha=1.0),
                dict(n=2, rate=0.0, alpha=1.0),
                dict(n=2, rate=-1.0, alpha=1.0),
                dict(n=2, rate=1.0, alpha=0.0),
                dict(n=2, rate=1.0, alpha=1.5)):
        with pytest.raises(ValidationError):
            CodeConfig(**bad)


# --- partitions ----------------------------------------------------------------


def test_contiguous_partition():
    p = partition_from_counts(8, 4)
    assert [list(c) for c in p.classes] == [[0, 1], [2, 3], [4, 5], [6, 7]]
    assert p.is_equal_sized
    assert p.beta == 0.25
    np.testing.assert_array_equal(p.representatives, [0, 2, 4, 6])


def test_partition_remainder_goes_to_last_class():
    p = partition_from_counts(10, 3)
    assert [c.size for c in p.classes] == [3, 3, 4]
    assert not p.is_equal_sized
    assert p.beta == 0.4


def test_partition_errors():
    with pytest.raises(ConfigError):
        partition_from_counts(4, 8)
    with pytest.raises(BudgetError):
        partition_from_counts(2**21, 2)
    for classes in (1, 0):
        with pytest.raises(ConfigError, match="message_count must be >= 1, got 0"):
            partition_from_counts(0, classes)


def test_uint64_class_ids_are_range_checked_before_the_cast():
    # An int64 cast wraps 2^63 to -2^63: the id is past the message count,
    # so a class is empty, whatever the cast would make of it.
    for ids in ([0, 2**63], [0, 2**64 - 1], [1, 2**63 + 1]):
        with pytest.raises(ValidationError, match="empty class"):
            SemanticPartition(np.array(ids, dtype=np.uint64))
    p = SemanticPartition(np.array([1, 0, 1], dtype=np.uint64))
    assert p.class_of.dtype == np.int64
    np.testing.assert_array_equal(p.sizes, [1, 2])


def test_semantic_partition_axioms_enforced():
    for bad in (
        [0, 0, 2, 2],  # class 1 unused
        [0, -1, 1],
        [0, 2**40],  # refused before any table of 2^40 counts is allocated
        np.array([0.0, 1.0]),
        np.array([False, True]),
        np.zeros((2, 2), dtype=np.int64),
        np.array([], dtype=np.int64),
    ):
        with pytest.raises(ValidationError):
            SemanticPartition(np.asarray(bad))
    source = np.array([1, 0, 1])
    p = SemanticPartition(source)
    source[0] = 0  # the partition holds its own read-only copy
    np.testing.assert_array_equal(p.class_of, [1, 0, 1])
    assert not p.class_of.flags.writeable
    assert [list(c) for c in p.classes] == [[1], [0, 2]]
    np.testing.assert_array_equal(p.representatives, [1, 0])


# Message layouts of the slice reference: partition_from_counts builds the
# contiguous one; the other two are built as SemanticPartition(class_of).
LAYOUTS = ("contiguous", "interleaved", "seeded-random")


def _slice_partition(mcount: int, kcount: int, layout: str, seed: int):
    """Reference: the slice-by-slice construction, classes first, then
    class_of. seeded-random gives message order[i] the contiguous class of
    i, for a Philox permutation order (the campaign's shuffle)."""
    if layout == "interleaved":
        classes = [np.arange(m, mcount, kcount) for m in range(kcount)]
    else:
        order = np.arange(mcount)
        if layout == "seeded-random":
            order = ChannelRng(seed, coding.PARTITION_STREAM).generator().permutation(mcount)
        bounds = [m * (mcount // kcount) for m in range(kcount)] + [mcount]
        classes = [np.sort(order[bounds[m]:bounds[m + 1]]) for m in range(kcount)]
    class_of = np.empty(mcount, dtype=np.int64)
    for m, members in enumerate(classes):
        class_of[members] = m
    return class_of, classes


def _assert_matches_slices(mcount: int, kcount: int, layout: str, seed: int):
    class_of, classes = _slice_partition(mcount, kcount, layout, seed)
    p = (partition_from_counts(mcount, kcount) if layout == "contiguous"
         else SemanticPartition(class_of))
    np.testing.assert_array_equal(p.class_of, class_of)
    np.testing.assert_array_equal(p.sizes, [c.size for c in classes])
    np.testing.assert_array_equal(p.representatives, [c[0] for c in classes])
    # Equal sizes and equal concatenations mean equal classes.
    assert len(p.classes) == kcount
    np.testing.assert_array_equal(np.concatenate(p.classes), np.concatenate(classes))


def test_partition_matches_slice_construction():
    rng = np.random.default_rng(18)
    for layout in LAYOUTS:
        for mcount in (1, 2, 7, 16, 100, 1000):
            for kcount in sorted({1, 2, 3, mcount // 3 + 1, mcount - 1, mcount}):
                if 1 <= kcount <= mcount:
                    _assert_matches_slices(mcount, kcount, layout, int(rng.integers(2**32)))
    for _ in range(60):
        mcount = int(rng.integers(1, 5000))
        layout = LAYOUTS[int(rng.integers(3))]
        _assert_matches_slices(mcount, int(rng.integers(1, mcount + 1)), layout,
                               int(rng.integers(2**32)))


@pytest.mark.parametrize("layout", LAYOUTS)
def test_largest_partition_matches_slice_construction(layout):
    _assert_matches_slices(2**20, 2**19, layout, 7)


def test_make_partition_matches_config():
    cfg = CodeConfig(n=4, rate=1.0, alpha=0.5)
    p = make_partition(cfg)
    assert p.message_count == 16
    assert p.class_count == 4
    assert p.is_equal_sized


def test_semantic_map():
    p = SemanticPartition(np.arange(8) % 4)
    assert semantic_map(5, p) == 1
    assert semantic_map(0, p) == 0
    with pytest.raises(ValidationError):
        semantic_map(8, p)
    with pytest.raises(ValidationError):
        semantic_map(-1, p)


# --- codebooks and encoding -----------------------------------------------------


def test_generate_codebook_is_seed_deterministic():
    cfg = CodeConfig(n=6, rate=0.5, alpha=1.0)
    a = generate_codebook(cfg, UNIFORM2, ChannelRng(11, 0))
    b = generate_codebook(cfg, UNIFORM2, ChannelRng(11, 0))
    np.testing.assert_array_equal(a.codewords, b.codewords)
    c = generate_codebook(cfg, UNIFORM2, ChannelRng(12, 0))
    assert not np.array_equal(a.codewords, c.codewords)
    assert a.count == cfg.semantic_count
    assert a.n == 6


def test_codebook_symbol_frequencies_follow_px():
    cfg = CodeConfig(n=64, rate=0.125, alpha=1.0)
    px = ProbVector(("0", "1"), [0.8, 0.2])
    draws = [
        generate_codebook(cfg, px, ChannelRng(100 + i, 0)).codewords for i in range(60)
    ]
    ones = np.concatenate(draws).mean()
    total = sum(d.size for d in draws)
    assert abs(ones - 0.2) <= 4 * math.sqrt(0.2 * 0.8 / total)


def test_codebook_budget_errors():
    with pytest.raises(BudgetError):
        generate_codebook(CodeConfig(n=2, rate=30.0, alpha=1.0), UNIFORM2, ChannelRng(1))
    with pytest.raises(BudgetError):
        generate_full_codebook(CodeConfig(n=2, rate=11.0, alpha=1.0), UNIFORM2, ChannelRng(1))


def test_codebook_budget_edge_is_the_channel_element_budget():
    # 32 * 2^20 symbols fill the budget exactly; 33 * 2^20 are just over it
    # and are refused before a symbol is drawn.
    coding.check_channel_elements(32, "edge", 20)
    cfg = CodeConfig(n=33, rate=20 / 33, alpha=1.0)
    assert cfg.semantic_bits == 20
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match=r"2\^20 codewords of length 33 needs 33 \* 2\^20"):
            generate_codebook(cfg, UNIFORM2, ChannelRng(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_huge_bit_counts_raise_with_counts_named_as_powers():
    # 2^20000 has 6021 digits, past what int-to-str converts; 2^(10^9)
    # would take 125 MB to form.
    for rate, bits in ((20000.0, "20000"), (1e9, "1000000000")):
        cfg = CodeConfig(n=1, rate=rate, alpha=1.0)
        with pytest.raises(BudgetError, match=rf"2\^{bits} codewords"):
            simulate(cfg, "contiguous", bsc(0.1), UNIFORM2, "ml", 10, 1, fresh_codebook=False)
        with pytest.raises(BudgetError, match=rf"2\^{bits} messages"):
            generate_full_codebook(cfg, UNIFORM2, ChannelRng(1))
        with pytest.raises(ConfigError, match=rf"2\^{bits} messages"):
            simulate_full_codebook(cfg, partition_from_counts(4, 2),
                                   bsc(0.1), UNIFORM2, 10, 1)
        with pytest.raises(BudgetError, match="semantic_bits <= 1022"):
            simulate(cfg, "contiguous", bsc(0.1), UNIFORM2, "ml", 10, 1)
    for messages, classes in ((2**20000, 2), (2**20000 + 1, 2**20001)):
        with pytest.raises(BudgetError, match="partition of over 1048576 messages"):
            partition_from_counts(messages, classes)
    with pytest.raises(ConfigError, match="split 4 messages into more than 4 classes"):
        partition_from_counts(4, 2**20000)
    cb = Codebook(np.zeros((2, 20000), dtype=np.int64), 2)
    with pytest.raises(BudgetError, match=r"2\^20000 \* 2 exceeds"):
        exact_evaluate(cb, partition_from_counts(2, 2), bsc(0.1))


def test_codebook_validation():
    with pytest.raises(ValidationError):
        Codebook(np.array([[0.5, 1.0]]), 2)
    with pytest.raises(ValidationError):
        Codebook(np.array([[0, 2]]), 2)
    with pytest.raises(ValidationError):
        Codebook(np.empty((0, 4), dtype=np.int64), 2)


def test_encode_sends_class_codeword():
    p = partition_from_counts(8, 4)
    cb = Codebook(np.array([[0, 0], [0, 1], [1, 0], [1, 1]]), 2)
    for w in range(8):
        np.testing.assert_array_equal(encode(w, p, cb).symbols, cb.codewords[w // 2])
    with pytest.raises(ValidationError):
        encode(0, p, Codebook(np.array([[0], [1]]), 2))


# --- decoders -------------------------------------------------------------------


def test_decode_ml_picks_likeliest():
    ch = bsc(0.1)
    cb = Codebook(np.array([[0, 0], [1, 1]]), 2)
    out = decode_ml(Sequence(np.array([0, 0]), 2), cb, ch)
    assert out.index == 0 and not out.is_erasure
    assert decode_ml(Sequence(np.array([1, 1]), 2), cb, ch).index == 1


def test_decode_ml_exact_tie_erases():
    # equidistant received word: both codewords score identically
    ch = bsc(0.1)
    cb = Codebook(np.array([[0, 0], [1, 1]]), 2)
    assert decode_ml(Sequence(np.array([0, 1]), 2), cb, ch) is ERASURE
    # a completely useless channel ties every pair
    assert decode_ml(Sequence(np.array([0, 0]), 2), cb, bsc(0.5)) is ERASURE


def test_decode_ml_impossible_word_erases():
    ch = Dmc.identity(["0", "1"])
    cb = Codebook(np.array([[0, 0]]), 2)
    assert decode_ml(Sequence(np.array([0, 1]), 2), cb, ch).is_erasure
    assert decode_ml(Sequence(np.array([0, 0]), 2), cb, ch).index == 0


def test_decode_ml_validation():
    ch = bsc(0.1)
    cb = Codebook(np.array([[0, 0], [1, 1]]), 2)
    with pytest.raises(ValidationError):
        decode_ml(Sequence(np.array([0]), 2), cb, ch)
    with pytest.raises(ValidationError):
        decode_ml(Sequence(np.array([0, 1, 2]), 3), cb, ch)


def _bsc_joint(p: float) -> JointDist:
    ch = bsc(p)
    return JointDist.from_input_and_kernel(UNIFORM2, ch.matrix, ch.output_labels)


def test_decode_typicality_unique_hit():
    joint = _bsc_joint(0.1)
    n = 10
    cb = Codebook(np.stack([np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64)]), 2)
    y = np.zeros(n, dtype=np.int64)
    y[3] = 1  # exactly 10% flips: jointly typical with the all-zero codeword
    out = decode_typicality(Sequence(y, 2), cb, joint, eps=0.2)
    assert out.index == 0


def test_decode_typicality_none_typical_erases():
    joint = _bsc_joint(0.1)
    n = 10
    cb = Codebook(np.stack([np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64)]), 2)
    out = decode_typicality(Sequence(np.ones(n, dtype=np.int64), 2), cb, joint, eps=0.2)
    assert out.is_erasure


def test_decode_typicality_ambiguous_erases():
    joint = _bsc_joint(0.1)
    n = 10
    row = np.zeros(n, dtype=np.int64)
    cb = Codebook(np.stack([row, row]), 2)  # duplicates: both or neither typical
    y = np.zeros(n, dtype=np.int64)
    y[3] = 1
    assert decode_typicality(Sequence(y, 2), cb, joint, eps=0.2).is_erasure


def test_decode_typicality_validation():
    joint = _bsc_joint(0.1)
    cb = Codebook(np.array([[0, 0]]), 2)
    with pytest.raises(ValidationError):
        decode_typicality(Sequence(np.array([0, 0]), 2), cb, joint, eps=0.0)
    with pytest.raises(ValidationError):
        decode_typicality(Sequence(np.array([0]), 2), cb, joint, eps=0.1)


# --- interval and report plumbing ------------------------------------------------


def test_wilson_interval_brackets_the_estimate():
    for errors, trials in ((0, 50), (1, 50), (25, 50), (49, 50), (50, 50)):
        lo, hi = wilson_interval(errors, trials)
        assert 0.0 <= lo <= errors / trials <= hi <= 1.0


def test_wilson_interval_edge_cases():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.05
    lo, hi = wilson_interval(100, 100)
    assert 0.95 < lo < 1.0 and hi == 1.0
    # z = 0 collapses to the point estimate
    lo, hi = wilson_interval(30, 100, z=0.0)
    assert lo == pytest.approx(0.3) and hi == pytest.approx(0.3)
    with pytest.raises(ValidationError):
        wilson_interval(5, 0)
    with pytest.raises(ValidationError):
        wilson_interval(6, 5)


def test_wilson_interval_known_value():
    # 10/50 at 95%: standard worked example of the score interval
    lo, hi = wilson_interval(10, 50)
    assert lo == pytest.approx(0.1124, abs=5e-4)
    assert hi == pytest.approx(0.3304, abs=5e-4)


def test_simulation_report_rejects_impossible_counts():
    from semcomm import SimulationReport

    with pytest.raises(AssertionError, match="impossible"):
        SimulationReport.from_counts(
            trials=100, semantic_errors=10, message_errors=5, seed=0, config={}
        )
    with pytest.raises(AssertionError):
        SimulationReport(
            trials=100, semantic_errors=10, message_errors=20,
            p_sem=1.2, p_sem_lo=0.0, p_sem_hi=1.0,
            p_msg=0.2, p_msg_lo=0.0, p_msg_hi=1.0,
            seed=0, config={},
        )


# --- simulation ------------------------------------------------------------------


def _hand_system():
    """n=1 code over bsc(0.1): 4 messages, 2 classes, codewords 0 and 1.

    Exact rates: p_sem = 0.1 (one crossover kills the class); a message
    survives only when the class is right and w is its representative,
    so p_msg = 1 - 0.9/2 = 0.55.
    """
    cfg = CodeConfig(n=1, rate=2.0, alpha=0.5)
    part = make_partition(cfg)
    cb = Codebook(np.array([[0], [1]]), 2)
    return cfg, part, cb, bsc(0.1)


def test_simulate_matches_hand_exact_values():
    cfg, part, cb, ch = _hand_system()
    trials = 80_000
    rep = simulate(
        cfg, "contiguous", ch, UNIFORM2, "ml", trials, seed=909,
        fresh_codebook=False, codebook=cb, partition=part,
    )
    se_sem = math.sqrt(0.1 * 0.9 / trials)
    se_msg = math.sqrt(0.55 * 0.45 / trials)
    assert abs(rep.p_sem - 0.1) <= 4 * se_sem
    assert abs(rep.p_msg - 0.55) <= 4 * se_msg
    assert rep.p_sem_lo <= rep.p_sem <= rep.p_sem_hi
    assert rep.config["regime"] == "materialized-shared"


def test_exact_evaluate_matches_hand_values():
    _, part, cb, ch = _hand_system()
    ev = exact_evaluate(cb, part, ch)
    assert ev.p_sem == pytest.approx(0.1, abs=1e-15)
    assert ev.p_msg == pytest.approx(0.55, abs=1e-15)
    assert ev.regime == "per-class"
    assert ev.h_w == 2.0


def test_simulate_fresh_is_deterministic_across_threads_and_reruns(cpus):
    cfg = CodeConfig(n=6, rate=0.5, alpha=1.0)
    args = (cfg, "contiguous", bsc(0.05), UNIFORM2, "ml", 3 * 4096 + 100, 31337)
    a, *rest = _per_worker_count(cpus, lambda: simulate(*args).to_dict())
    assert all(r == a for r in rest)
    assert a["config"]["regime"] == "materialized-fresh"


def test_virtual_regime_is_deterministic_across_threads(cpus):
    cfg = CodeConfig(n=64, rate=0.5, alpha=1.0)  # 2^32 codewords: never materialized
    args = (cfg, "contiguous", bsc(0.05), UNIFORM2, "ml", 2 * 4096, 2718)
    a, *rest = _per_worker_count(cpus, lambda: simulate(*args).to_dict())
    assert all(r == a for r in rest)
    assert a["config"]["regime"] == "virtual-fresh"


@pytest.mark.parametrize("decoder, shared, full", [
    ("ml", (2377, 9794), (4609, 4884)),
    ("typicality", (8793, 11416), (8681, 9522)),
])
def test_fixed_codebooks_are_deterministic_across_threads(cpus, decoder, shared, full):
    # Fixed codebooks' batches run on the pool as fresh ones' do; the
    # counts are those of the in-order runs before they did, re-pinned at
    # 0.7.0, whose codebooks come from raw Philox bytes. The shared message
    # counts follow 0.6.0's model, whose 1/size draw follows the channel's.
    cfg = CodeConfig(n=8, rate=0.5, alpha=0.5)
    part = make_partition(cfg)
    trials = 3 * 4096 + 1
    runs = {
        "materialized-shared": (shared, lambda: simulate(
            cfg, "contiguous", bsc(0.1), UNIFORM2, decoder, trials, 27, eps=0.3,
            fresh_codebook=False).to_dict()),
        "full-codebook": (full, lambda: simulate_full_codebook(
            cfg, part, bsc(0.1), UNIFORM2, trials, 27, decoder=decoder, eps=0.3).to_dict()),
    }
    for regime, (counts, run) in runs.items():
        a, *rest = _per_worker_count(cpus, run)
        assert all(r == a for r in rest)
        assert a["config"]["regime"] == regime
        assert (a["semantic_errors"], a["message_errors"]) == counts


def test_one_batch_pool_serves_every_regime(monkeypatch, cpus):
    # The pool is made with the module (here by cpus) and no run makes one.
    # A run of more than one batch decides on it, whatever its regime; a
    # one-batch run, or any run on one CPU, stays inline.
    off_thread = []
    decide, caller = coding._decisions, threading.get_ident()

    def spy(*args):
        off_thread.append(threading.get_ident() != caller)
        return decide(*args)

    def refuse(max_workers):
        pytest.fail("a run made an executor")

    def threads(run):
        off_thread.clear()
        run()
        return set(off_thread)

    monkeypatch.setattr(coding, "_decisions", spy)
    cfg = CodeConfig(n=6, rate=0.5, alpha=1.0)
    args = (cfg, "contiguous", bsc(0.05), UNIFORM2, "ml")
    trials = 3 * 4096 + 1
    runs = [
        lambda: simulate(*args, trials, 5),
        lambda: simulate(*args, trials, 5, fresh_codebook=False),
        lambda: simulate_full_codebook(cfg, make_partition(cfg), bsc(0.05),
                                       UNIFORM2, trials, 5),
    ]
    for count in (8, 1):
        cpus(count)
        pool = coding._pool
        with monkeypatch.context() as patch:
            patch.setattr(coding, "ThreadPoolExecutor", refuse)
            assert threads(lambda: simulate(*args, 4096, 5)) == {False}
            assert threads(lambda: simulate(*args, 4096, 5, fresh_codebook=False)) == {False}
            for run in runs:
                assert threads(run) == {count > 1}
        assert coding._pool is pool


def _report_in_child(conn, args):
    conn.send(simulate(*args).to_dict())


def test_forked_child_runs_batches_on_its_own_pool(cpus):
    # The parent's pool threads do not exist in a forked child; on that
    # pool a multi-batch run would wait forever.
    cpus(2)
    args = (CodeConfig(n=6, rate=0.5, alpha=1.0), "contiguous", bsc(0.05), UNIFORM2, "ml",
            3 * 4096 + 1, 5)
    expected = simulate(*args).to_dict()
    assert coding._pool is not None
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_report_in_child, args=(send, args))
    child.start()
    try:
        assert receive.poll(10), "the forked child did not report within 10 s"
        assert receive.recv() == expected
    finally:
        child.kill()
        child.join(10)
    assert not child.is_alive()


def test_cpu_count_falls_back_without_affinity(monkeypatch):
    monkeypatch.delattr(coding.os, "sched_getaffinity", raising=False)
    assert coding._cpu_count() == (coding.os.cpu_count() or 1)


def test_virtual_agrees_with_materialized(monkeypatch):
    # identical statistical setting, independent engines: estimates must agree.
    # The asymmetric DMC with skewed px makes px(a) W(b|a) asymmetric, so a
    # joint-type draw over misordered cells would disagree.
    dmc3 = Dmc(("0", "1"), ("0", "1", "2"), np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]]))
    cases = [
        (CodeConfig(n=8, rate=1.0, alpha=1.0), bsc(0.05), UNIFORM2),
        (CodeConfig(n=8, rate=0.5, alpha=1.0), dmc3, ProbVector(dmc3.input_labels, [0.8, 0.2])),
    ]
    trials = 24_576
    for cfg, ch, px in cases:
        mat = simulate(cfg, "contiguous", ch, px, "ml", trials, 555)
        assert mat.config["regime"] == "materialized-fresh"
        with monkeypatch.context() as m:
            m.setattr(coding, "MATERIALIZE_LIMIT", 0)
            vir = simulate(cfg, "contiguous", ch, px, "ml", trials, 777)
        assert vir.config["regime"] == "virtual-fresh"
        se = math.sqrt(2 * mat.p_sem * (1 - mat.p_sem) / trials)
        assert abs(mat.p_sem - vir.p_sem) <= 4 * se + 1e-9


def test_virtual_accepts_masses_just_above_one():
    # ProbVector and Dmc accept masses up to MASS_TOL above 1; the joint-type
    # probabilities and the competitor's input-0 probability must stay valid.
    px = ProbVector(("0", "1"), [1 + 9e-13, 0.0])
    ch = Dmc(("0", "1"), ("0", "1"), np.array([[0.5 + 9e-13, 0.5], [0.3, 0.7 + 9e-13]]))
    rep = simulate(CodeConfig(n=64, rate=0.5, alpha=1.0), "contiguous", ch, px, "ml", 100, 1)
    assert rep.config["regime"] == "virtual-fresh"
    # Every codeword is all zeros, so every competitor ties: all trials erase.
    assert (rep.semantic_errors, rep.message_errors) == (100, 100)


@pytest.mark.parametrize("n", [1, 64, 1024])
def test_log_choose_matches_gammaln(n):
    from scipy.special import gammaln

    k = np.arange(n + 1)
    ref = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
    assert np.abs(coding._log_choose(n) - ref).max() <= 1e-11


def test_alpha_one_counts_coincide_bitwise(monkeypatch):
    cfg = CodeConfig(n=6, rate=0.5, alpha=1.0)
    ch = bsc(0.1)
    trials = 8192

    fresh = simulate(cfg, "contiguous", ch, UNIFORM2, "ml", trials, 42)
    assert fresh.semantic_errors == fresh.message_errors

    shared = simulate(
        cfg, "contiguous", ch, UNIFORM2, "ml", trials, 42, fresh_codebook=False
    )
    assert shared.semantic_errors == shared.message_errors

    monkeypatch.setattr(coding, "MATERIALIZE_LIMIT", 0)
    virt = simulate(cfg, "contiguous", ch, UNIFORM2, "ml", trials, 42)
    assert virt.config["regime"] == "virtual-fresh"
    assert virt.semantic_errors == virt.message_errors

    part = make_partition(cfg)
    full = simulate_full_codebook(cfg, part, ch, UNIFORM2, trials, 42)
    assert full.semantic_errors == full.message_errors


@pytest.mark.parametrize("n", [4, 64], ids=["materialized", "virtual"])
def test_simulate_checks_an_explicit_partition_in_every_regime(n):
    # 8 messages in 3 classes fit neither config (2^(n/2) messages in
    # 2^(n/4) classes), whichever engine the blocklength selects.
    cfg = CodeConfig(n=n, rate=0.5, alpha=0.5)
    part = partition_from_counts(8, 3)
    with pytest.raises(ValidationError, match="does not match the config"):
        simulate(cfg, "contiguous", bsc(0.1), UNIFORM2, "ml", 10, 1, partition=part)


@pytest.mark.parametrize("n", [8, 64], ids=["materialized", "virtual"])
def test_unequal_partition_is_noted_in_every_regime(n):
    # 193 of 256 messages in class 0 and one in each of the other 63. With a
    # fresh i.i.d. codebook per trial the classes are exchangeable, so the
    # virtual counts are those of an equal partition; the report still says
    # the partition was unequal.
    cfg = CodeConfig(n=n, rate=8 / n, alpha=0.75)
    part = SemanticPartition(np.concatenate([np.zeros(193, dtype=int), np.arange(1, 64)]))
    rep = simulate(cfg, "contiguous", bsc(0.05), UNIFORM2, "ml", 4000, 1, partition=part)
    assert rep.config["notes"] == ["unequal-partition"]
    if n == 64:
        assert rep.config["regime"] == "virtual-fresh"
        equal = simulate(cfg, "contiguous", bsc(0.05), UNIFORM2, "ml", 4000, 1)
        assert "notes" not in equal.config
        assert (rep.semantic_errors, rep.message_errors) == (
            equal.semantic_errors, equal.message_errors)


@pytest.mark.parametrize("decoder", coding.DECODERS)
@pytest.mark.parametrize("fresh", [True, False], ids=["fresh", "shared"])
def test_per_class_counts_do_not_depend_on_the_layout(decoder, fresh):
    # A per-class code's errors depend on the class sent and the class
    # decoded, not on which messages share a class: equal partitions of
    # every layout, and none at all, give one pair of counts.
    cfg = CodeConfig(n=8, rate=0.5, alpha=0.5)
    m, k = cfg.message_count, cfg.semantic_count
    runs = [dict(partition=SemanticPartition(_slice_partition(m, k, layout, 7)[0]))
            for layout in LAYOUTS]
    counts = {
        (r.semantic_errors, r.message_errors)
        for r in (simulate(cfg, "contiguous", bsc(0.1), UNIFORM2, decoder, 5000, 3, eps=0.3,
                           fresh_codebook=fresh, **kw) for kw in runs + [{}])
    }
    assert len(counts) == 1


@pytest.mark.parametrize("n, fresh, regime", [
    (64, True, "virtual-fresh"), (8, True, "materialized-fresh"),
    (8, False, "materialized-shared"),
])
def test_simulate_ignores_its_second_argument(n, fresh, regime):
    # No layout of the messages changes a per-class result, so simulate
    # ignores the layout name it is still passed, in every regime.
    cfg = CodeConfig(n=n, rate=0.5, alpha=0.5)
    reports = [simulate(cfg, name, bsc(0.1), UNIFORM2, "ml", 3000, 5,
                        fresh_codebook=fresh).to_dict()
               for name in ("contiguous", "spiral", None)]
    assert reports[0]["config"]["regime"] == regime
    assert "scheme" not in reports[0]["config"]
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_unequal_partition_shared_run_matches_exact_evaluate():
    # Classes of 10, 3, 2 and 1 of 16 messages, members scattered: a class
    # is sent with its mass, and a correct class is a correct message with
    # probability 1/size, the law exact_evaluate computes in closed form.
    cfg = CodeConfig(n=6, rate=4 / 6, alpha=0.5)
    class_of = np.repeat([0, 1, 2, 3], [10, 3, 2, 1])
    part = SemanticPartition(np.random.default_rng(5).permutation(class_of))
    ch, trials = bsc(0.1), 200_000
    cb = generate_codebook(cfg, UNIFORM2, ChannelRng(5, coding.CODEBOOK_STREAM))
    rep = simulate(cfg, "contiguous", ch, UNIFORM2, "ml", trials, 11,
                   fresh_codebook=False, codebook=cb, partition=part)
    ev = exact_evaluate(cb, part, ch)
    assert rep.config["notes"] == ["unequal-partition"]
    for sim, exact in ((rep.p_sem, ev.p_sem), (rep.p_msg, ev.p_msg)):
        assert abs(sim - exact) <= 4 * math.sqrt(exact * (1 - exact) / trials)


def _input_errors():
    """One pytest.param(run, error, match) for each input error of simulate
    and simulate_full_codebook, one wrong argument at a time."""
    small = CodeConfig(n=2, rate=1.0, alpha=1.0)  # 4 codewords of length 2
    virtual = CodeConfig(n=64, rate=0.5, alpha=1.0)  # 2^32 fresh codewords
    ch, px3 = bsc(0.1), ProbVector(("a", "b", "c"), [0.3, 0.3, 0.4])
    ch3 = Dmc.identity(["a", "b", "c"])
    part = make_partition(small)
    cb = Codebook(np.array([[0, 0], [0, 1], [1, 0], [1, 1]]), 2)

    def sim(cfg=small, ch=ch, px=UNIFORM2, decoder="ml", trials=10, **kw):
        return lambda: simulate(cfg, "contiguous", ch, px, decoder, trials, 1, **kw)

    def full(cfg=small, part=part, px=UNIFORM2, trials=10, **kw):
        return lambda: simulate_full_codebook(cfg, part, ch, px, trials, 1, **kw)

    cases = {
        "px": (sim(px=px3), ValidationError, "simulate: px alphabet"),
        "full-px": (full(px=px3), ValidationError, "simulate_full_codebook: px alphabet"),
        "decoder": (sim(decoder="guess"), ValidationError, "unknown decoder"),
        "full-decoder": (full(decoder="guess"), ValidationError, "unknown decoder"),
        "trials": (sim(trials=0), ValidationError, "trials must be >= 1"),
        "full-trials": (full(trials=0), ValidationError, "trials must be >= 1"),
        "partition": (sim(partition=partition_from_counts(8, 4)),
                      ValidationError, "does not match the config"),
        "full-partition": (full(part=partition_from_counts(8, 4)),
                           ValidationError, "does not match the config"),
        "fresh-codebook": (sim(codebook=cb), ValidationError, "fresh_codebook"),
        "codebook-shape": (sim(codebook=Codebook(cb.codewords[:2], 2), fresh_codebook=False),
                           ValidationError, "codebook shape"),
        "full-codebook-shape": (full(codebook=Codebook(cb.codewords[:, :1], 2)),
                                ValidationError, "codebook shape"),
        # 2^20000 has more digits than int-to-str allows.
        "huge-codebook-shape": (sim(cfg=CodeConfig(n=1, rate=20000.0, alpha=1.0),
                                    codebook=Codebook(np.zeros((2, 1), dtype=int), 2),
                                    fresh_codebook=False),
                                ValidationError, r"codebook shape \(2, 1\) .* \(2\^20000, 1\)"),
        "codebook-alphabet": (sim(codebook=Codebook(cb.codewords, 3), fresh_codebook=False),
                              ValidationError, "codebook alphabet"),
        "full-codebook-alphabet": (full(codebook=Codebook(cb.codewords, 3)),
                                   ValidationError, "codebook alphabet"),
        "virtual-typicality": (sim(cfg=virtual, decoder="typicality"), ConfigError,
                               "virtual-regime simulation supports the ml decoder only"),
        "virtual-qary": (sim(cfg=virtual, ch=ch3, px=ProbVector.uniform(ch3.input_labels)),
                         ConfigError, "binary channel input"),
        "semantic-bits": (sim(cfg=CodeConfig(n=1, rate=20000.0, alpha=1.0)), BudgetError,
                          "semantic_bits <= 1022"),
        "full-message-cap": (full(cfg=CodeConfig(n=1, rate=30.0, alpha=1.0)), ConfigError,
                             "2\\^30 messages exceed the 1048576 cap"),
    }
    for eps in (0.0, -1.0, math.nan):
        cases[f"eps-{eps}"] = (sim(decoder="typicality", eps=eps), ValidationError,
                               "eps must be > 0")
        cases[f"full-eps-{eps}"] = (full(decoder="typicality", eps=eps), ValidationError,
                                    "eps must be > 0")
    return [pytest.param(*case, id=name) for name, case in cases.items()]


@pytest.mark.parametrize("run, error, match", _input_errors())
def test_input_errors_are_raised_before_anything_is_drawn(monkeypatch, run, error, match):
    def refuse(name):
        def called(*args, **kwargs):
            pytest.fail(f"{name} ran before the input error was raised")
        return called

    for name in ("_run_batches", "generate_codebook", "generate_full_codebook",
                 "make_partition", "_codeword_symbols"):
        monkeypatch.setattr(coding, name, refuse(name))
    with pytest.raises(error, match=match):
        run()


def test_samplers_match_searchsorted_and_broadcast_references():
    gen = np.random.default_rng(5)
    for probs in ([0.5, 0.5], [0.0, 0.3, 0.7], [0.25, 0.0, 0.5, 0.25], [1.0, 0.0]):
        cdf = np.cumsum(probs)
        cdf[-1] = 1.0
        got = coding._sample_symbols(ChannelRng(9, 1).generator(), (50, 40), probs)
        u = ChannelRng(9, 1).generator().random((50, 40))
        assert np.array_equal(got, np.searchsorted(cdf, u, side="right"))
        matrix = gen.dirichlet(np.ones(3), size=len(probs))
        matrix[0] = [0.0, 1.0, 0.0]
        ch_cdf = coding._row_cdfs(matrix)
        y = coding._draw_outputs(ch_cdf, got, u)
        ref = np.minimum((u[..., None] >= ch_cdf[got]).sum(axis=2), 2)
        assert y.dtype == np.int64
        assert np.array_equal(y, ref)


def _by_weight(cells, weights) -> list:
    """The canonical sums, written apart from the engines: cells holds each
    (a, b) cell's count in row-major order and weights each cell's weight
    (or row of weights). Per weight column, sum over the distinct weight
    rows, in order of first appearance, of the row's entry times the total
    count of its cells, accumulated from 0.0."""
    rows = [tuple(np.atleast_1d(w)) for w in weights]
    sums = [0.0] * len(rows[0])
    for w in dict.fromkeys(rows):
        total = sum(cnt for cnt, row in zip(cells, rows) if row == w)
        sums = [acc + total * v for acc, v in zip(sums, w)]
    return sums


def _binary_grid_values(logmat, ks, y_counts):
    """A binary-input competitor's scores, k[b] of its c_b positions where
    y = b holding input 0: cells k[b] (a = 0) and c_b - k[b] (a = 1)."""
    cells = [*ks, *(float(c) - k for c, k in zip(y_counts, ks))]
    return _by_weight(cells, logmat.ravel())[0] + np.zeros(np.broadcast(*ks).shape)


def _full_grid_tail(p0, logmat, y_counts, s):
    """Reference: sort and sum the whole competitor score grid of a y type.

    It normalizes by the correctly rounded total of the grid probabilities.
    A running sum over the sorted grid (its last partial sum) moves the
    tails by up to 70 ulp on the grids below, which would swamp the few-ulp
    agreement checked here.
    """
    grids = np.meshgrid(*[np.arange(c + 1, dtype=float) for c in y_counts], indexing="ij")
    values = _binary_grid_values(logmat, grids, y_counts)
    probs = np.ones(grids[0].shape)
    for b, c in enumerate(y_counts):
        probs = probs * coding._binomial_pmf(c, p0)[grids[b].astype(int)]
    flat_v = values.ravel()
    order = np.argsort(flat_v, kind="stable")
    flat_v = flat_v[order]
    tail = np.cumsum(probs.ravel()[order][::-1])[::-1]
    tail = np.minimum(tail / math.fsum(probs.ravel()), 1.0)
    idx = np.searchsorted(flat_v, s, side="left")
    return flat_v, np.where(idx < flat_v.size, tail[np.minimum(idx, flat_v.size - 1)], 0.0)


_TAIL_GEN = np.random.default_rng(20261018)


@pytest.mark.parametrize(
    "matrix, types",
    [
        (_TAIL_GEN.dirichlet(np.ones(2), size=2), [(20, 13), (0, 17), (31, 1)]),
        (_TAIL_GEN.dirichlet(np.ones(3), size=2), [(5, 9, 7), (0, 4, 12), (11, 0, 1)]),
        (np.array([[1.0, 0.0], [0.3, 0.7]]), [(14, 19), (25, 0)]),  # Z: NEG scores
        (bsc(0.05).matrix, [(40, 24), (32, 32)]),  # many tied scores
    ],
    ids=["dmc2", "dmc3", "z", "bsc"],
)
@pytest.mark.parametrize("p0", [0.5, 0.3])
def test_truncated_competitor_tail_matches_full_grid(matrix, types, p0):
    logmat = coding._log_matrix(np.asarray(matrix))
    gen = np.random.default_rng(7)
    lowest = 0.0
    for y_counts in types:
        values, _ = _full_grid_tail(p0, logmat, y_counts, np.zeros(0))
        lowest = min(lowest, values[0])
        distinct = np.unique(values)
        between = (distinct[:-1] + distinct[1:]) / 2
        for start in (0.0, 0.5, 0.9, 0.99):
            lo = values[int(start * (values.size - 1))]
            s = np.concatenate([
                [lo, values[-1], values[-1] + 1.0],
                gen.choice(values[values >= lo], size=40),
                between[between >= lo][:20],
            ])
            _, ref = _full_grid_tail(p0, logmat, y_counts, s)
            got = coding._competitor_tail(p0, _ml(matrix), np.array(y_counts), s)
            assert np.array_equal(got == 0.0, ref == 0.0)
            nz = ref != 0.0
            assert np.all(np.abs(got[nz] - ref[nz]) <= 4 * np.spacing(ref[nz]))
    if np.any(np.asarray(matrix) == 0.0):
        assert lowest <= coding.NEG_THRESHOLD


def _parent_competitor_tail(p0, logmat, y_counts, s):
    """Reference: the competitor tail as it was before the candidate-only
    build, with the grid scored by weight class. It builds the score of every
    grid point and keeps flatnonzero(values >= min(s))."""
    shape = tuple(int(c) + 1 for c in y_counts)
    support = math.prod(shape)
    if support > coding.DIST_BUDGET:
        raise BudgetError(
            f"virtual score distribution support {support} exceeds "
            f"{coding.DIST_BUDGET}; reduce the blocklength or output alphabet"
        )
    ks = [
        np.arange(m, dtype=float).reshape([-1 if i == b else 1 for i in range(len(shape))])
        for b, m in enumerate(shape)
    ]
    # Summed by weight class so these values are bit-comparable with the
    # scorers' outputs.
    values = _binary_grid_values(logmat, ks, y_counts)
    flat = np.flatnonzero(values >= s.min())
    kept = values.ravel()[flat]
    pmfs = [coding._binomial_pmf(int(c), p0) for c in y_counts]
    probs = np.ones(flat.size)
    for pmf, k in zip(pmfs, np.unravel_index(flat, shape)):
        probs = probs * pmf[k]
    order = np.argsort(kept, kind="stable")
    tail = np.cumsum(probs[order][::-1])[::-1]
    tail = np.minimum(tail / math.prod(float(pmf.sum()) for pmf in pmfs), 1.0)
    idx = np.searchsorted(kept[order], s, side="left")
    return np.append(tail, 0.0)[idx]


_EXACT_GEN = np.random.default_rng(20261019)
_DMC2_ZERO = _EXACT_GEN.dirichlet(np.ones(2), size=2)
_DMC2_ZERO[1] = [0.0, 1.0]
_DMC3_ZERO = _EXACT_GEN.dirichlet(np.ones(3), size=2)
_DMC3_ZERO[0] = [0.4, 0.0, 0.6]


@pytest.mark.parametrize(
    "matrix, types",
    [
        (bsc(0.05).matrix, [(40, 24), (32, 32), (0, 57), (61, 0)]),  # many tied scores
        (np.array([[1.0, 0.0], [0.3, 0.7]]), [(14, 19), (25, 0), (0, 9)]),  # Z: NEG scores
        (_EXACT_GEN.dirichlet(np.ones(2), size=2), [(20, 13), (0, 17), (31, 1)]),
        (_DMC2_ZERO, [(12, 30), (0, 8)]),
        (_EXACT_GEN.dirichlet(np.ones(3), size=2), [(5, 9, 7), (0, 4, 12), (11, 0, 1), (6, 3, 0)]),
        (_DMC3_ZERO, [(7, 8, 9), (0, 5, 6), (4, 0, 3)]),
        (np.array([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]]), [(6, 7, 8), (9, 4, 0), (0, 0, 13)]),
    ],
    ids=["bsc", "z", "dmc2", "dmc2-zero", "dmc3", "dmc3-zero", "zero-slope"],
)
@pytest.mark.parametrize("p0", [0.5, 0.3])
def test_competitor_tail_equals_full_grid_build(matrix, types, p0):
    # Bit-for-bit, not within ulps: the candidate build keeps the same grid
    # points in the same order and scores them with the same operations.
    logmat = coding._log_matrix(np.asarray(matrix))
    gen = np.random.default_rng(11)
    for y_counts in types:
        values, _ = _full_grid_tail(p0, logmat, y_counts, np.zeros(0))
        distinct, seen = np.unique(values, return_counts=True)
        tied = distinct[seen > 1]
        between = (distinct[:-1] + distinct[1:]) / 2
        queries = [
            values[:1], values[-1:], values[-1:] + 1.0, values[-1:] + [0.0, 1.0],
            tied[:5], tied[-5:], between[:5], between[-5:],
        ]
        for start in (0.0, 0.3, 0.7, 0.95):
            lo = values[int(start * (values.size - 1))]
            queries.append(np.concatenate([
                [lo], gen.choice(values[values >= lo], size=25),
                tied[tied >= lo][:10], between[between >= lo][-10:],
            ]))
        for s in queries:
            if s.size:
                got = coding._competitor_tail(p0, _ml(matrix), np.array(y_counts), s)
                assert np.array_equal(got, _parent_competitor_tail(p0, logmat, y_counts, s))


BEC3 = Dmc(("0", "1"), ("0", "e", "1"), np.array([[0.7, 0.3, 0.0], [0.0, 0.3, 0.7]]))


@pytest.mark.parametrize(
    "ch, y_counts, folded",
    [
        (bsc(0.05), (300, 724), (1024, 0)),
        (bsc(0.05), (512, 512), (1024, 0)),
        (BEC3, (100, 60, 96), (196, 60, 0)),
        (BEC3, (128, 0, 128), (256, 0, 0)),
    ],
    ids=["bsc-300-724", "bsc-512-512", "bec-100-60-96", "bec-128-0-128"],
)
def test_folded_competitor_tail_matches_unfolded(ch, y_counts, folded):
    # With uniform input, outputs 0 and 1 give a competitor the same class
    # law, so the folded type has the same score law. The two tails sum the
    # same masses over different grids: they differ by rounding only, and
    # both are zero exactly above the best score, one float on both grids.
    score = coding._decoder_score("ml", ch)
    assert tuple(np.array(y_counts) @ coding._output_fold(score, 0.5)) == folded
    values, _ = _full_grid_tail(0.5, coding._log_matrix(ch.matrix), y_counts, np.zeros(0))
    distinct = np.unique(values)
    s = np.concatenate([distinct, (distinct[:-1] + distinct[1:]) / 2, distinct[-1:] + 1.0])
    got = coding._competitor_tail(0.5, score, np.array(folded), s)
    ref = coding._competitor_tail(0.5, score, np.array(y_counts), s)
    assert np.array_equal(got == 0.0, ref == 0.0)
    assert np.count_nonzero(ref == 0.0) == 1
    nz = ref != 0.0
    assert np.all(np.abs(got[nz] - ref[nz]) <= 1e-10 * ref[nz])


@pytest.mark.parametrize(
    "matrix, probs",
    [
        (np.array([[1.0, 0.0], [0.3, 0.7]]), [0.5, 0.5]),
        (bsc(0.05).matrix, [0.8, 0.2]),
        (np.random.default_rng(5).dirichlet(np.ones(3), size=2), [0.5, 0.5]),
    ],
    ids=["z", "bsc-skewed-px", "dmc3"],
)
def test_virtual_engine_without_interchangeable_outputs_keeps_every_y_type(
    monkeypatch, matrix, probs
):
    # No two outputs share a competitor class law here, so the fold is the
    # identity and the engine builds one tail per drawn y type, as unfolded.
    ch = _dmc(matrix)
    px = ProbVector(ch.input_labels, probs)
    assert np.array_equal(coding._output_fold(_ml(matrix), probs[0]), np.eye(ch.num_outputs))
    seen = []
    tail = coding._competitor_tail

    def spy(p0, score, y_counts, s):
        seen.append(tuple(y_counts.tolist()))
        return tail(p0, score, y_counts, s)

    monkeypatch.setattr(coding, "_competitor_tail", spy)
    cfg, trials, seed = CodeConfig(n=48, rate=0.25, alpha=1.0), 2000, 3
    rep = simulate(cfg, "contiguous", ch, px, "ml", trials, seed)
    assert rep.config["regime"] == "virtual-fresh"
    # The y types of the run's one batch: its joint-type draw from stream 0.
    cell_probs = (px.probs[:, None] * ch.matrix).ravel()
    cells = ChannelRng(seed, 0).generator().multinomial(
        cfg.n, cell_probs / cell_probs.sum(), size=trials)
    types = set(map(tuple, cells.reshape(trials, 2, -1).sum(axis=1).tolist()))
    assert sorted(seen) == sorted(types)


def test_output_fold_pools_outputs_with_one_competitor_law():
    # BSC: outputs 0 and 1 swap the two classes, one law only when p0 is 1/2.
    # BEC: the erasure is its own class; 0 and 1 pool likewise.
    bsc_score = coding._decoder_score("ml", bsc(0.05))
    assert coding._output_fold(bsc_score, 0.5).tolist() == [[1, 0], [1, 0]]
    assert coding._output_fold(bsc_score, 0.3).tolist() == [[1, 0], [0, 1]]
    bec_score = coding._decoder_score("ml", BEC3)
    assert coding._output_fold(bec_score, 0.5).tolist() == [[1, 0, 0], [0, 1, 0], [1, 0, 0]]
    assert coding._output_fold(bec_score, 0.3).tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


BEC = Dmc(("0", "1"), ("0", "e", "1"), np.array([[0.1, 0.9, 0.0], [0.0, 0.9, 0.1]]))


def test_virtual_certain_loss_raises_no_warning():
    # An all-erased y (0.9^32 = 3.4% of trials here) ties every competitor
    # with the own codeword: T = 1, so the win probability is exactly 0.
    cfg = CodeConfig(n=32, rate=0.5, alpha=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = simulate(cfg, "contiguous", BEC, UNIFORM2, "ml", 1000, 1)
    assert rep.config["regime"] == "virtual-fresh"
    assert (rep.semantic_errors, rep.message_errors) == (1000, 1000)


# Counts recorded from the joint-type draw: 2 * 4096 + 777 trials in three
# batches, seed 2026, alpha 0.95; BSC's re-recorded under tie-exact scores
# (0.5.0), where a competitor at the own codeword's distance ties.
_VIRTUAL_PINS = [
    (bsc(0.05), [0.5, 0.5], 96, 0.55, (112, 6726)),
    (Dmc(("0", "1"), ("0", "1"), np.array([[1.0, 0.0], [0.3, 0.7]])), [0.5, 0.5], 64, 0.4,
     (542, 4749)),
    (Dmc(("0", "1"), ("0", "1", "2"), np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])),
     [0.5, 0.5], 48, 0.3, (1957, 5413)),
    (bsc(0.1), [0.8, 0.2], 100, 0.3, (1356, 5174)),
]


@pytest.mark.parametrize("block_elements", [None, 1001])
@pytest.mark.parametrize(
    "ch, probs, n, rate, counts", _VIRTUAL_PINS, ids=["bsc", "z", "dmc3", "skewed-px"]
)
def test_blocked_virtual_draw_pinned(monkeypatch, cpus, block_elements, ch, probs, n, rate, counts):
    if block_elements is not None:
        # The joint-type draw holds no per-row arrays, so an odd block size
        # must leave its counts as they are.
        monkeypatch.setattr(coding, "BLOCK_ELEMENTS", block_elements)
    cfg = CodeConfig(n=n, rate=rate, alpha=0.95)
    px = ProbVector(ch.input_labels, probs)
    reps = _per_worker_count(
        cpus, lambda: simulate(cfg, "contiguous", ch, px, "ml", 2 * 4096 + 777, 2026)
    )
    for rep in reps:
        assert rep.config["regime"] == "virtual-fresh"
        assert (rep.semantic_errors, rep.message_errors) == counts


def test_virtual_simulation_memory_stays_bounded():
    # A whole-batch draw holds (4096, 1024) uniforms, outputs and
    # thresholds at once: about 104 MiB.
    cfg = CodeConfig(n=1024, rate=0.6, alpha=0.5)
    tracemalloc.start()
    try:
        rep = simulate(cfg, "contiguous", bsc(0.05), UNIFORM2, "ml", 4096, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.config["regime"] == "virtual-fresh"
    assert peak < 16 * 2**20


def test_typicality_simulation_runs():
    cfg = CodeConfig(n=8, rate=0.25, alpha=1.0)
    rep = simulate(cfg, "contiguous", bsc(0.05), UNIFORM2, "typicality", 4096, 7, eps=0.3)
    assert 0.0 <= rep.p_sem <= 1.0
    assert rep.config["decoder"] == "typicality"


def test_simulate_full_codebook_cap():
    cfg = CodeConfig(n=4, rate=6.0, alpha=1.0)  # 2^24 messages
    part = partition_from_counts(16, 4)
    with pytest.raises(ConfigError):
        simulate_full_codebook(cfg, part, bsc(0.1), UNIFORM2, 10, 1)


def _decided_rows(monkeypatch) -> list:
    """Spy on coding._decisions: the list receives each call's output rows."""
    seen = []
    decide = coding._decisions

    def spy(cw, ys, score):
        seen.append(ys)
        return decide(cw, ys, score)

    monkeypatch.setattr(coding, "_decisions", spy)
    return seen


def test_simulate_full_codebook_deterministic_and_fast_path(monkeypatch, cpus):
    # BSC at n=4 has 16 output words, so every 4096-trial batch repeats
    # them and a fixed codebook decides each of them once.
    cfg = CodeConfig(n=4, rate=1.0, alpha=0.5)
    part = make_partition(cfg)
    ch = bsc(0.1)
    trials = 9 * 4096
    # Both fixed codebooks run their 9 batches on a pool of 4 threads.
    cpus(4)
    runs = [
        lambda: simulate_full_codebook(cfg, part, ch, UNIFORM2, trials, 99),
        lambda: simulate(cfg, "contiguous", ch, UNIFORM2, "ml", trials, 99,
                         fresh_codebook=False),
    ]
    seen = _decided_rows(monkeypatch)
    a = [run() for run in runs]
    assert len(seen) == 2 * 9 and max(ys.shape[0] for ys in seen) <= 2**4
    # the loop reference's decisions must not change a single count
    _use_reference_decisions(monkeypatch, ch.matrix)
    b = [run() for run in runs]
    for x, y in zip(a, b):
        assert x.semantic_errors == y.semantic_errors
        assert x.message_errors == y.message_errors


def test_codebook_indexing_pinned():
    # Literal counts of both codebook indexings. A shuffled (seeded-random)
    # partition scrambles which message owns which codeword, so indexing the
    # codebook by message where it is indexed by class (or the reverse)
    # moves them.
    # A per-class run reads only class sizes: at alpha = 1 it draws the
    # full run's codebook and codewords sent, and gives its counts.
    # Recorded under tie-exact scores (0.5.0): codewords at one distance tie;
    # the shared counts under 0.6.0's per-class message model; re-pinned at
    # 0.7.0, whose codebooks come from raw Philox bytes.
    ch = bsc(0.05)
    got = {}
    for alpha in (0.5, 1.0):
        cfg = CodeConfig(n=8, rate=0.5, alpha=alpha)
        class_of, _ = _slice_partition(cfg.message_count, cfg.semantic_count,
                                       "seeded-random", 7)
        full = simulate_full_codebook(cfg, SemanticPartition(class_of), ch, UNIFORM2, 4096, 7)
        shared = simulate(cfg, "seeded-random", ch, UNIFORM2, "ml", 4096, 7,
                          fresh_codebook=False)
        got[alpha] = [(r.semantic_errors, r.message_errors) for r in (full, shared)]
    assert got == {0.5: [(541, 596), (78, 3109)], 1.0: [(596, 596), (596, 596)]}


# --- materialized kernels against the loop references -----------------------------
#
# The _ref_* functions are the loop forms the block kernels replaced, kept
# as oracles, with their cell counts summed by weight (_by_weight). The
# kernels keep the counts exact and the canonical class order, so the floats
# must agree bit for bit.


def _ref_scores_for_one(cw: np.ndarray, y: np.ndarray, logmat: np.ndarray) -> np.ndarray:
    """Canonical scores of each codeword row against a single y."""
    a_count, b_count = logmat.shape
    cells = [((cw == a) & (y == b)).sum(axis=1) for a in range(a_count) for b in range(b_count)]
    return _by_weight(cells, logmat.ravel())[0] + np.zeros(cw.shape[0])


def _ref_scores_shared(cw: np.ndarray, ys: np.ndarray, logmat: np.ndarray) -> np.ndarray:
    """Canonical scores, (trials, count), one shared codebook against many y."""
    a_count, b_count = logmat.shape
    cells = [
        (ys == b).astype(float) @ (cw == a).astype(float).T
        for a in range(a_count) for b in range(b_count)
    ]
    return _by_weight(cells, logmat.ravel())[0] + np.zeros((ys.shape[0], cw.shape[0]))


def _ref_scores_per_trial(cws: np.ndarray, ys: np.ndarray, logmat: np.ndarray) -> np.ndarray:
    """Canonical scores, (trials, count), one codebook per trial."""
    a_count, b_count = logmat.shape
    cells = [
        ((cws == a) & (ys == b)[:, None, :]).sum(axis=2)
        for a in range(a_count) for b in range(b_count)
    ]
    return _by_weight(cells, logmat.ravel())[0] + np.zeros(cws.shape[:2])


def _ref_decide(scores: np.ndarray) -> np.ndarray:
    """Row-wise ML decision with erasures: -1 on ties or all-impossible."""
    best = scores.max(axis=1)
    is_best = scores == best[:, None]
    picks = np.argmax(is_best, axis=1).astype(np.int64)
    picks[(is_best.sum(axis=1) != 1) | (best <= coding.NEG_THRESHOLD)] = -1
    return picks


def _ref_typicality_rates(cw_rows, y, joint):
    """Per-row empirical surprisal rates (x-rate, y-rate, joint-rate), each
    summed over the distinct (log2 p(a), log2 p(b), log2 p(a, b)) cells."""
    n = y.size
    lpx = coding._log_matrix(joint.marginal_table((0,))[None, :])[0]
    lpy = coding._log_matrix(joint.marginal_table((1,))[None, :])[0]
    lpxy = coding._log_matrix(joint.table)
    a_count, b_count = lpxy.shape
    cells = [((cw_rows == a) & (y == b)).sum(axis=1) for a in range(a_count) for b in range(b_count)]
    triples = np.stack(np.broadcast_arrays(lpx[:, None], lpy, lpxy), axis=-1).reshape(-1, 3)
    rx, ry, rxy = (-total / n for total in _by_weight(cells, triples))
    return rx, ry[0], rxy


def _ref_typical_mask(cw_rows, y, joint, eps):
    hx = entropy_bits(joint.marginal_table((0,)))
    hy = entropy_bits(joint.marginal_table((1,)))
    hxy = entropy_bits(joint.table)
    rx, ry, rxy = _ref_typicality_rates(cw_rows, y, joint)
    if abs(ry - hy) > eps:
        return np.zeros(cw_rows.shape[0], dtype=bool)
    return (np.abs(rx - hx) <= eps) & (np.abs(rxy - hxy) <= eps)


def _ref_typicality_picks(cw, ys, joint, eps):
    """The per-row typicality loop over shared or per-trial codewords."""
    picks = np.empty(ys.shape[0], dtype=np.int64)
    for t in range(ys.shape[0]):
        cw_t = cw[t] if cw.ndim == 3 else cw
        mask = _ref_typical_mask(cw_t, ys[t], joint, eps)
        picks[t] = int(np.argmax(mask)) if mask.sum() == 1 else -1
    return picks


def _dmc(matrix) -> Dmc:
    return Dmc(tuple(map(str, range(matrix.shape[0]))), tuple(map(str, range(matrix.shape[1]))), matrix)


def _ml(matrix):
    """ML's likelihood score under matrix, as the kernels and
    coding._decisions take it."""
    return coding._decoder_score("ml", _dmc(np.asarray(matrix)))


def _ref_ml_decisions(cw, ys, logmat):
    scorer = _ref_scores_per_trial if cw.ndim == 3 else _ref_scores_shared
    return _ref_decide(scorer(cw, ys, logmat))


def _use_reference_decisions(monkeypatch, matrix):
    """Route every decision of the engines through the loop references: ML
    under matrix, and typicality at whatever joint and eps the engine
    builds its score for."""
    typical = {}
    make = coding._typical_score

    def spy(joint, eps, n):
        score = make(joint, eps, n)
        typical[score.of] = (joint, eps)
        return score

    def reference(cw, ys, score):
        if score.of in typical:
            return _ref_typicality_picks(cw, ys, *typical[score.of])
        return _ref_ml_decisions(cw, ys, coding._log_matrix(matrix))

    monkeypatch.setattr(coding, "_typical_score", spy)
    monkeypatch.setattr(coding, "_decisions", reference)


def _dmc3x2_with_zero() -> np.ndarray:
    matrix = np.random.default_rng(60).dirichlet(np.ones(2), size=3)
    matrix[1] = [0.0, 1.0]
    return matrix


KERNEL_CHANNELS = {
    "bsc": bsc(0.05).matrix,
    "z": np.array([[1.0, 0.0], [0.3, 0.7]]),  # NEG entries
    "mpsk": mpsk_hard_dmc(PskConfig(order=4, snr=9.0)).matrix,
    "dmc3x2": _dmc3x2_with_zero(),
}


def _channel_outputs(matrix: np.ndarray, x: np.ndarray, gen) -> np.ndarray:
    return coding._draw_outputs(coding._row_cdfs(matrix), x, gen.random(x.shape))


def _fresh_inputs(matrix, trials, count, n, seed):
    """uint8 per-trial codebooks as the engine draws them, with duplicated
    codewords (exact ties) in some trials; half the outputs are codeword 0
    sent through the channel, the rest are uniform."""
    gen = np.random.default_rng(seed)
    a_count, b_count = matrix.shape
    cws = gen.integers(0, a_count, size=(trials, count, n)).astype(np.uint8)
    if count > 1:
        cws[::3, -1] = cws[::3, 0]
    ys = gen.integers(0, b_count, size=(trials, n))
    ys[::2] = _channel_outputs(matrix, cws[::2, 0], gen)
    cws[1, 0] = 0  # every position in cell (0, 0): the count reaches n
    ys[1] = 0
    return cws, ys


def _shared_inputs(matrix, trials, count, n, seed):
    gen = np.random.default_rng(seed)
    a_count, b_count = matrix.shape
    cw = gen.integers(0, a_count, size=(count, n))
    if count > 1:
        cw[-1] = cw[0]
    ys = gen.integers(0, b_count, size=(trials, n))
    sent = gen.integers(0, min(count, 3), size=trials // 2)
    ys[::2][: sent.size] = _channel_outputs(matrix, cw[sent], gen)
    return cw, ys


def _tiled_scores(scorer, cw, ys, score, count):
    """Assemble a kernel's tiles; also return how many tiles it yielded."""
    out = np.full((ys.shape[0], count), np.nan)
    tiles = 0
    for rows, cols, scores in scorer(cw, ys, score):
        assert np.all(np.isnan(out[rows, cols]))
        out[rows, cols] = scores
        tiles += 1
    assert not np.any(np.isnan(out))
    return out, tiles


@pytest.mark.parametrize("name", list(KERNEL_CHANNELS))
@pytest.mark.parametrize("n, count", [(1, 3), (200, 4), (6, 1), (5, 40)])
def test_per_trial_kernel_matches_loop_reference(name, n, count):
    matrix = KERNEL_CHANNELS[name]
    logmat = coding._log_matrix(matrix)
    step = coding.BLOCK_ELEMENTS // (count * n)
    trials = 2 * step + 3  # two full trial blocks and a short one
    cws, ys = _fresh_inputs(matrix, trials, count, n, seed=n * 100 + count)
    got, tiles = _tiled_scores(coding._scores_per_trial, cws, ys, _ml(matrix), count)
    ref = _ref_scores_per_trial(cws, ys, logmat)
    assert tiles == 3
    assert np.array_equal(got, ref)
    assert np.array_equal(coding._decisions(cws, ys, _ml(matrix)), _ref_decide(ref))


@pytest.mark.parametrize("name", list(KERNEL_CHANNELS))
@pytest.mark.parametrize("n, count", [(1, 3), (200, 1000), (6, 1), (16, 5000), (64, 5000)])
def test_shared_kernel_matches_loop_reference(name, n, count):
    matrix = KERNEL_CHANNELS[name]
    logmat = coding._log_matrix(matrix)
    width = min(count, coding.BLOCK_ELEMENTS // n)  # codewords per tile
    step = coding.BLOCK_ELEMENTS // width
    trials = 2 * step + 3
    cw, ys = _shared_inputs(matrix, trials, count, n, seed=n * 100 + count)
    got, tiles = _tiled_scores(coding._scores_shared, cw, ys, _ml(matrix), count)
    ref = _ref_scores_shared(cw, ys, logmat)
    assert tiles == 3 * math.ceil(count / width)
    assert np.array_equal(got, ref)
    picks = coding._decisions(cw, ys, _ml(matrix))
    assert np.array_equal(picks, _ref_decide(ref))
    if count > 1:
        assert np.any(picks == -1) and np.any(picks >= 0)
    ch = Dmc(tuple(map(str, range(matrix.shape[0]))), tuple(map(str, range(matrix.shape[1]))), matrix)
    cb = Codebook(cw, matrix.shape[0])
    for y in ys[:4]:
        one = _ref_scores_for_one(cw, y, logmat)
        tiled = _tiled_scores(coding._scores_shared, cw, y[None, :], _ml(matrix), count)
        assert np.array_equal(tiled[0][0], one)
        pick = _ref_decide(one[None, :])[0]
        out = decode_ml(Sequence(y, matrix.shape[1]), cb, ch)
        assert out.index == (None if pick < 0 else pick)


KEY_RULE_CASES = {
    # name: (channel, n, count, trials, keyed); with r weight classes the
    # rule keys a call when (n + 1)^(r - 1) <= min(BLOCK_ELEMENTS, trials * count).
    # Each refused case names the side of the rule that refuses it.
    "bsc-keyed": ("bsc", 16, 300, 40, True),  # r = 2: 17 keys
    # Pairs: 24 pairs < 2^17 + 1 keys; two codeword chunks of BLOCK_ELEMENTS // n.
    "bsc-too-many-keys": ("bsc", 2**17, 3, 8, False),
    "bsc-too-few-pairs": ("bsc", 40, 4, 10, False),  # pairs: 40 < 41 keys
    "z-keyed": ("z", 12, 64, 100, True),  # r = 4, NEG entries in the table
    "z-too-many-keys": ("z", 45, 16, 40, False),  # pairs: 640 < 46^3 = 97336 keys
    "dmc2x3-keyed": ("dmc2x3", 8, 400, 200, True),  # r = 6: 9^5 = 59049 keys
    "dmc2x3-too-many-keys": ("dmc2x3", 9, 400, 200, False),  # pairs: 80000 < 10^5 keys
    # Hard 4-PSK: 16 cells in r = 3 classes of 4, 8 and 4 cells.
    "mpsk-keyed": ("mpsk", 16, 64, 40, True),  # 17^2 = 289 keys
    "mpsk-too-few-pairs": ("mpsk", 16, 8, 30, False),  # pairs: 240 < 289 keys
    "mpsk-too-many-keys": ("mpsk", 256, 4, 20, False),  # pairs: 80 < 257^2 = 66049 keys
    # The block: mpsk-keyed's call under a budget of KEY_RULE_BLOCKS' 256
    # elements, so 2560 pairs >= 289 keys > BLOCK_ELEMENTS.
    "mpsk-block-refuses": ("mpsk", 16, 64, 40, False),
    # Wider than BLOCK_ELEMENTS // n = 2^14: two codeword chunks, and the
    # copy of codeword 0 in the last slot ties with it across them.
    "bsc-wide-keyed": ("bsc", 16, 17000, 20, True),
}
# Block budgets below BLOCK_ELEMENTS, for cases whose pairs and keys would
# be costly to exceed it with.
KEY_RULE_BLOCKS = {"mpsk-block-refuses": 256}
KEY_RULE_CHANNELS = {
    "bsc": bsc(0.05).matrix,
    "z": KERNEL_CHANNELS["z"],
    "dmc2x3": np.random.default_rng(61).dirichlet(np.ones(3), size=2),
    "mpsk": KERNEL_CHANNELS["mpsk"],
}


def _key_rule(monkeypatch, case):
    """A case's inputs, and its class count r as distinct log weights; sets
    the case's block budget, if it has one."""
    name, n, count, trials, keyed = KEY_RULE_CASES[case]
    if case in KEY_RULE_BLOCKS:
        monkeypatch.setattr(coding, "BLOCK_ELEMENTS", KEY_RULE_BLOCKS[case])
    matrix = KEY_RULE_CHANNELS[name]
    classes = np.unique(coding._log_matrix(matrix)).size
    assert ((n + 1) ** (classes - 1) <= min(coding.BLOCK_ELEMENTS, trials * count)) == keyed
    if case in KEY_RULE_BLOCKS:
        assert (n + 1) ** (classes - 1) <= trials * count  # the block alone refuses
    return matrix, n, count, trials, keyed, classes


@pytest.mark.parametrize("case", list(KEY_RULE_CASES))
def test_shared_scores_bit_match_on_both_sides_of_the_key_rule(monkeypatch, case):
    matrix, n, count, trials, keyed, classes = _key_rule(monkeypatch, case)
    logmat = coding._log_matrix(matrix)
    cw, ys = _shared_inputs(matrix, trials, count, n, seed=n * 100 + count)
    # The keyed path combines once, into the 1-D table entries of the
    # math.comb(n + r - 1, r - 1) class-count vectors; the matmul path
    # combines once per 2-D tile.
    combined = []
    combine = coding._combine

    def spy(counts, weights, out):
        combined.append(out.shape)
        return combine(counts, weights, out)

    monkeypatch.setattr(coding, "_combine", spy)
    got, tiles = _tiled_scores(coding._scores_shared, cw, ys, _ml(matrix), count)
    ref = _ref_scores_shared(cw, ys, logmat)
    assert np.array_equal(got, ref)
    if keyed:
        assert combined == [(math.comb(n + classes - 1, classes - 1),)]
    else:
        assert len(combined) == tiles and all(len(shape) == 2 for shape in combined)
    picks = coding._decisions(cw, ys, _ml(matrix))
    assert np.array_equal(picks, _ref_decide(ref))
    assert np.any(picks == -1) and np.any(picks >= 0)
    width = coding.BLOCK_ELEMENTS // n
    assert (count > width) == (case in ("bsc-too-many-keys", "mpsk-block-refuses", "bsc-wide-keyed"))
    if count > width:
        starts = {cols.start for _, cols, _ in coding._scores_shared(cw, ys, _ml(matrix))}
        assert len(starts) == math.ceil(count / width)
        best = ref.max(axis=1, keepdims=True)
        across = (ref[:, :1] == best)[:, 0] & (ref[:, -1:] == best)[:, 0]
        assert np.any(across) and np.all(picks[across] == -1)


def _recorded(score, calls):
    """score, noting the shape of every out it writes into calls."""

    def of(counts, out):
        calls.append(out.shape)
        return score.of(counts, out)

    return score._replace(of=of)


@pytest.mark.parametrize("snr", [3.0, 9.0])
@pytest.mark.parametrize("order", [8, 16, 64])
def test_circulant_typicality_classes_are_the_ml_classes(order, snr):
    # Hard M-PSK is circulant: under a uniform input every p(a) and every
    # p(b) sums one multiset, so the typicality triples split no ML class.
    ch = mpsk_hard_dmc(PskConfig(order=order, snr=snr))
    px = ProbVector.uniform(ch.input_labels)
    typical = coding._decoder_score("typicality", ch, px, 0.3, 12)
    ml = coding._decoder_score("ml", ch)
    assert len(typical.weights) == len(ml.weights)
    assert np.array_equal(typical.cell_class, ml.cell_class)


@pytest.mark.parametrize("decoder", ["ml", "typicality"])
@pytest.mark.parametrize("case", list(KEY_RULE_CASES))
def test_per_trial_scores_bit_match_on_both_sides_of_the_key_rule(monkeypatch, case, decoder):
    matrix, n, count, trials, keyed, classes = _key_rule(monkeypatch, case)
    cws, ys = _fresh_inputs(matrix, trials, count, n, seed=n * 100 + count)
    logmat = coding._log_matrix(matrix)
    # Under a uniform input these channels' typicality triples fall into
    # the classes of their log weights, so both decoders key alike.
    px = ProbVector.uniform(tuple(map(str, range(matrix.shape[0]))))
    joint = JointDist.from_input_and_kernel(px, matrix, tuple(map(str, range(matrix.shape[1]))))
    eps = 0.3
    score = _ml(matrix) if decoder == "ml" else coding._typical_score(joint, eps, n)
    assert len(score.weights) == classes
    # Keyed, the score runs once, on the 1-D table entries of the class-count
    # vectors; otherwise once per trial block.
    calls = []
    got, tiles = _tiled_scores(coding._scores_per_trial, cws, ys, _recorded(score, calls), count)
    if keyed:
        assert calls == [(math.comb(n + classes - 1, classes - 1),)]
    else:
        assert len(calls) == tiles and all(len(shape) == 2 for shape in calls)
    picks = coding._decisions(cws, ys, score)
    if decoder == "ml":
        ref = _ref_scores_per_trial(cws, ys, logmat)
        assert np.array_equal(got, ref)
        assert np.array_equal(picks, _ref_decide(ref))
        assert np.any(picks == -1) and np.any(picks >= 0)
    else:
        mask = np.stack([_ref_typical_mask(cws[t], ys[t], joint, eps) for t in range(trials)])
        assert np.array_equal(got == 0.0, mask)
        assert np.all((got == 0.0) | (got == NEG))
        assert np.array_equal(picks, _ref_typicality_picks(cws, ys, joint, eps))
        assert np.any(mask) and not np.all(mask) and np.any(picks == -1)


@pytest.mark.parametrize("case", [case for case, spec in KEY_RULE_CASES.items() if spec[-1]])
def test_shared_keys_are_exact_in_float32(monkeypatch, case):
    # A keyed tile forms its keys by a float32 matmul whose partial sums
    # stay below 2 BLOCK_ELEMENTS in magnitude; float32 holds every integer
    # up to 2^24, so a larger block budget must not pass unnoticed.
    assert 2 * coding.BLOCK_ELEMENTS <= 2**24
    matrix, n, count, trials, _, classes = _key_rule(monkeypatch, case)
    cw, ys = _shared_inputs(matrix, trials, count, n, seed=n * 100 + count)
    # A table of the keys themselves makes the tiles show the keys. The
    # lookup clips, so a key out of range would show as a clipped one and
    # differ from the reference.
    make = coding._key_table

    def identity_table(score, length, pairs):
        table, weight = make(score, length, pairs)
        return np.arange(table.size, dtype=float), weight

    monkeypatch.setattr(coding, "_key_table", identity_table)
    got = _tiled_scores(coding._scores_shared, cw, ys, _ml(matrix), count)[0]
    # The class keys in int64, written apart from the kernels: a class is a
    # distinct log weight, numbered by first appearance; the last class with
    # the most cells has no digit, and the j-th other class weighs (n + 1)^j.
    weights = coding._log_matrix(matrix).ravel()
    distinct = list(dict.fromkeys(weights))
    sizes = [int(np.sum(weights == w)) for w in distinct]
    largest = len(sizes) - 1 - sizes[::-1].index(max(sizes))
    digit = {w: (n + 1) ** j for j, w in enumerate(distinct[:largest] + distinct[largest + 1:])}
    ref = np.zeros(got.shape, dtype=np.int64)
    for cell, w in enumerate(weights):
        a, b = divmod(cell, matrix.shape[1])
        counts = (ys == b).astype(np.int64) @ (cw == a).astype(np.int64).T
        ref += counts * digit.get(w, 0)
    assert np.array_equal(got, ref)
    # Only class-count vectors' keys are scored; every key a tile forms is one.
    assert not np.any(np.isnan(make(_ml(matrix), n, trials * count)[0][ref]))
    if case == "dmc2x3-keyed":
        assert (n + 1) ** (classes - 1) == 59049 and ref.max() > 2**15
    if case == "mpsk-keyed":
        assert classes == 3 < matrix.size and sizes == [4, 8, 4]


def test_distinct_weights_score_in_row_major_cell_order():
    # With all weights distinct every class is one cell, numbered in
    # row-major order, and every path's score is the row-major cell-order
    # sum from 0.0, bit for bit: the sum version 0.4.0 made. That keeps the
    # bytes of runs on such channels, the random campaign DMCs among them.
    matrix = np.random.default_rng(62).dirichlet(np.ones(3), size=2)
    logmat = coding._log_matrix(matrix)
    score = _ml(matrix)
    assert np.array_equal(score.cell_class, np.arange(6))

    def cell_order(cells):
        out = np.zeros(np.shape(cells[0]))
        for cnt, weight in zip(cells, logmat.flat):
            out += cnt * weight
        return out

    n = 7  # 8^5 = 32768 keys
    counts = np.random.default_rng(63).multinomial(n, np.full(6, 1 / 6), size=50)
    got = score.of(score.class_counts(lambda cell: counts[:, cell], n), np.empty(50))
    assert np.array_equal(got, cell_order(counts.T))
    for count, trials, keyed in ((64, 600, True), (16, 300, False)):
        assert (coding._key_table(score, n, trials * count) is not None) == keyed
        cws, ys = _fresh_inputs(matrix, trials, count, n, seed=count)
        cells = [((cws == a) & (ys == b)[:, None, :]).sum(axis=2) for a in range(2) for b in range(3)]
        got = _tiled_scores(coding._scores_per_trial, cws, ys, score, count)[0]
        assert np.array_equal(got, cell_order(cells))
        cw = cws[0]
        cells = [(ys == b).astype(int) @ (cw == a).astype(int).T for a in range(2) for b in range(3)]
        got = _tiled_scores(coding._scores_shared, cw, ys, score, count)[0]
        assert np.array_equal(got, cell_order(cells))


def _joint_for(matrix, seed):
    labels = tuple(map(str, range(matrix.shape[0])))
    probs = np.random.default_rng(seed).dirichlet(np.ones(matrix.shape[0]))
    px = ProbVector(labels, probs)
    return px, JointDist.from_input_and_kernel(px, matrix, tuple(map(str, range(matrix.shape[1]))))


@pytest.mark.parametrize("name", list(KERNEL_CHANNELS))
@pytest.mark.parametrize("n, count", [(1, 3), (200, 4), (6, 1), (12, 16)])
@pytest.mark.parametrize("fresh", [True, False], ids=["fresh", "shared"])
def test_typical_mask_matches_per_row_loop(monkeypatch, name, n, count, fresh):
    # Small blocks keep the per-row reference loop short while still
    # splitting the trials into full blocks and a short one.
    monkeypatch.setattr(coding, "BLOCK_ELEMENTS", 4 * count * n)
    matrix = KERNEL_CHANNELS[name]
    _, joint = _joint_for(matrix, seed=n)
    trials = 2 * 4 + 3
    make = _fresh_inputs if fresh else _shared_inputs
    cw, ys = make(matrix, trials, count, n, seed=n * 100 + count)
    scorer = coding._scores_per_trial if fresh else coding._scores_shared
    for eps in (0.05, 0.3, 2.0):
        ref_mask = np.stack([
            _ref_typical_mask(cw[t] if fresh else cw, ys[t], joint, eps) for t in range(trials)
        ])
        score = coding._typical_score(joint, eps, n)
        got = _tiled_scores(scorer, cw, ys, score, count)[0]
        assert np.array_equal(got == 0.0, ref_mask)
        assert np.all((got == 0.0) | (got == NEG))
        picks = coding._decisions(cw, ys, score)
        assert np.array_equal(picks, _ref_typicality_picks(cw, ys, joint, eps))
        if not fresh:
            out = decode_typicality(Sequence(ys[0], matrix.shape[1]), Codebook(cw, matrix.shape[0]), joint, eps)
            assert out.index == (None if picks[0] < 0 else picks[0])


def test_ml_decisions_keep_the_first_best_across_codeword_chunks(monkeypatch):
    # Three chunks of two codewords: the best score first appears in the
    # second chunk, so the merged decision must take it from there, and a
    # copy in the third chunk must turn it into a tie.
    monkeypatch.setattr(coding, "BLOCK_ELEMENTS", 8)
    matrix = bsc(0.1).matrix
    y = np.zeros((1, 4), dtype=np.int64)
    cw = np.array([[1, 1, 1, 1], [1, 1, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0], [1, 1, 1, 0], [1, 0, 1, 1]])
    assert coding._decisions(cw, y, _ml(matrix))[0] == 3
    cw[5] = cw[3]
    assert coding._decisions(cw, y, _ml(matrix))[0] == -1


def _engine_cases():
    ch2 = bsc(0.05)
    z = Dmc(("0", "1"), ("0", "1"), KERNEL_CHANNELS["z"])
    m = KERNEL_CHANNELS["mpsk"]
    psk = Dmc(tuple("0123"), tuple("0123"), m)
    return [
        (ch2, CodeConfig(n=8, rate=0.5, alpha=1.0)),
        (z, CodeConfig(n=6, rate=0.5, alpha=0.5)),
        (psk, CodeConfig(n=3, rate=1.5, alpha=1.0)),
    ]


@pytest.mark.parametrize("case", range(3))
@pytest.mark.parametrize("decoder", ["ml", "typicality"])
def test_engines_match_the_loop_references(monkeypatch, case, decoder):
    ch, cfg = _engine_cases()[case]
    px, _ = _joint_for(ch.matrix, seed=case)
    # ML: a full batch and a short one; typicality: fewer, for the loop's sake.
    trials = 4096 + 904 if decoder == "ml" else 1500
    part = make_partition(cfg)

    def reports():
        return [
            simulate(cfg, "contiguous", ch, px, decoder, trials, 5, eps=0.3).to_dict(),
            simulate(cfg, "contiguous", ch, px, decoder, trials, 5, eps=0.3,
                     fresh_codebook=False).to_dict(),
            simulate_full_codebook(cfg, part, ch, px, trials, 5, decoder=decoder,
                                   eps=0.3).to_dict(),
            exact_evaluate(
                generate_full_codebook(cfg, px, ChannelRng(5, 1)), part, ch,
                decoder=decoder, px=px, eps=0.3,
            ).to_dict(),
        ]

    got = reports()
    _use_reference_decisions(monkeypatch, ch.matrix)
    assert got == reports()
    assert 0 < got[0]["semantic_errors"] < trials


@pytest.mark.parametrize("n", [16, 8], ids=["key-table", "repeated-words"])
def test_shared_typicality_runs_on_the_ml_tables(monkeypatch, n):
    # 2^ceil(0.375 n) codewords against BSC(0.05), one batch of 2000
    # trials. At n=16 the batch's words are nearly all distinct; at n=8 they
    # repeat, and the one _decisions call sees at most the 256 words. Under
    # the uniform input the typicality triples form r = 2 classes, as the
    # log weights do, so there are n + 1 count keys, and the typicality
    # score runs once, on the key table's n + 1 class-count vectors.
    cfg = CodeConfig(n=n, rate=0.375, alpha=1.0)
    ch = bsc(0.05)
    trials = 2000
    calls = []
    make = coding._typical_score

    def spy(joint, eps, length):
        score = make(joint, eps, length)

        def recorded(cells, out):
            calls.append(out.shape)
            return score.of(cells, out)

        return score._replace(of=recorded)

    def run():
        return simulate(cfg, "contiguous", ch, UNIFORM2, "typicality", trials, 3, eps=0.3,
                        fresh_codebook=False).to_dict()

    monkeypatch.setattr(coding, "_typical_score", spy)
    seen = _decided_rows(monkeypatch)
    got = run()
    assert calls == [(n + 1,)]
    assert len(seen) == 1 and seen[0].shape[0] <= min(trials, 2**n)
    assert 0 < got["semantic_errors"] < trials
    monkeypatch.undo()
    _use_reference_decisions(monkeypatch, ch.matrix)
    assert run() == got


@pytest.mark.parametrize("n", [6, 16])
@pytest.mark.parametrize("decoder", ["ml", "typicality"])
def test_fixed_codebooks_decide_each_distinct_word_once(monkeypatch, n, decoder):
    # A fixed codebook's batch hands _decisions each distinct output word
    # once, and the reports equal the loop references'. BSC at n=6 has 64
    # words, so 600 trials repeat them heavily; at n=16 repeats are rare.
    cfg = CodeConfig(n=n, rate=0.375, alpha=0.5)
    part = make_partition(cfg)
    ch = bsc(0.1)
    trials = 600
    batches = []
    draw = coding._draw_outputs

    def drawn(*args):
        y = draw(*args)
        batches.append(y)
        return y

    def reports():
        return [
            simulate(cfg, "contiguous", ch, UNIFORM2, decoder, trials, 4, eps=0.3,
                     fresh_codebook=False).to_dict(),
            simulate_full_codebook(cfg, part, ch, UNIFORM2, trials, 4, decoder=decoder,
                                   eps=0.3).to_dict(),
        ]

    monkeypatch.setattr(coding, "_draw_outputs", drawn)
    seen = _decided_rows(monkeypatch)
    got = reports()
    assert len(batches) == len(seen) == 2
    for y, ys in zip(batches, seen):
        distinct = np.unique(y, axis=0)
        assert ys.shape == distinct.shape
        assert np.array_equal(np.unique(ys, axis=0), distinct)
    if n == 6:
        assert all(ys.shape[0] <= 2**n < trials for ys in seen)
    assert 0 < got[0]["semantic_errors"] < trials
    monkeypatch.undo()
    _use_reference_decisions(monkeypatch, ch.matrix)
    assert reports() == got


@pytest.mark.parametrize("name", list(KERNEL_CHANNELS))
@pytest.mark.parametrize("fresh", [True, False], ids=["fresh", "shared"])
def test_typicality_is_invariant_under_a_joint_permutation_of_positions(name, fresh):
    # A score is a function of the pair's joint type, so permuting the
    # positions of x and y together changes no float and no decision.
    matrix = KERNEL_CHANNELS[name]
    n, count, trials = 12, 16, 64
    _, joint = _joint_for(matrix, seed=n)
    make = _fresh_inputs if fresh else _shared_inputs
    cw, ys = make(matrix, trials, count, n, seed=9)
    perm = np.random.default_rng(10).permutation(n)
    scorer = coding._scores_per_trial if fresh else coding._scores_shared
    typical = 0
    for eps in (0.05, 0.3, 2.0, 8.0):
        score = coding._typical_score(joint, eps, n)
        got = _tiled_scores(scorer, cw, ys, score, count)[0]
        moved = _tiled_scores(scorer, cw[..., perm], ys[:, perm], score, count)[0]
        assert np.array_equal(moved, got)
        picks = coding._decisions(cw, ys, score)
        assert np.array_equal(coding._decisions(cw[..., perm], ys[:, perm], score), picks)
        x = cw[0, 0] if fresh else cw[0]
        pair = [Sequence(x, matrix.shape[0]), Sequence(ys[0], matrix.shape[1])]
        moved_pair = [Sequence(x[perm], matrix.shape[0]), Sequence(ys[0][perm], matrix.shape[1])]
        assert is_jointly_typical(*pair, joint, eps) == is_jointly_typical(*moved_pair, joint, eps)
        assert is_jointly_typical(*pair, joint, eps) == (got[0, 0] == 0.0)
        typical += int(np.sum(got == 0.0))
    assert 0 < typical < 4 * got.size


@pytest.mark.parametrize("eps", [-1.0, 0.0, float("nan")], ids=["negative", "zero", "nan"])
def test_every_typicality_path_rejects_a_bad_eps(eps):
    cfg = CodeConfig(n=4, rate=0.5, alpha=1.0)
    ch = bsc(0.05)
    part = make_partition(cfg)
    cb = generate_full_codebook(cfg, UNIFORM2, ChannelRng(1, 1))
    joint = JointDist.from_input_and_kernel(UNIFORM2, ch.matrix, ch.output_labels)
    y = Sequence(np.zeros(4, dtype=np.int64), 2)
    runs = [
        lambda: simulate(cfg, "contiguous", ch, UNIFORM2, "typicality", 10, 1, eps=eps),
        lambda: simulate(cfg, "contiguous", ch, UNIFORM2, "typicality", 10, 1, eps=eps,
                         fresh_codebook=False),
        lambda: simulate_full_codebook(cfg, part, ch, UNIFORM2, 10, 1, decoder="typicality",
                                       eps=eps),
        lambda: exact_evaluate(cb, part, ch, decoder="typicality", px=UNIFORM2, eps=eps),
        lambda: decode_typicality(y, cb, joint, eps),
        lambda: is_jointly_typical(y, y, joint, eps),
    ]
    for run in runs:
        with pytest.raises(ValidationError, match="eps must be > 0"):
            run()


def test_array_holding_classes_compare_and_hash_by_identity():
    # Their fields hold numpy arrays, so a field-wise == (or hash) would be
    # ambiguous; they compare and hash as objects instead.
    ch = bsc(0.1)
    part = partition_from_counts(4, 2)
    objects = [
        part,
        Codebook(np.zeros((2, 3), dtype=np.int64), 2),
        random_fano_instance(2026, 0),
        UNIFORM2,
        JointDist.from_input_and_kernel(UNIFORM2, ch.matrix, ch.output_labels),
        Sequence(np.array([0, 1]), 2),
        ch,
        KnowledgeBase.identity(("0", "1")),
    ]
    for obj in objects:
        assert obj == obj and hash(obj) == hash(obj)
        assert obj in {obj} and obj in [part, obj]
    assert part != partition_from_counts(4, 2)


def test_sampled_symbols_use_the_narrowest_dtype():
    for size, dtype in ((2, np.uint8), (256, np.uint8), (257, np.uint16)):
        probs = np.full(size, 1.0 / size)
        cdf = np.cumsum(probs)
        cdf[-1] = 1.0
        got = coding._sample_symbols(ChannelRng(4, 2).generator(), (30, 20), probs)
        u = ChannelRng(4, 2).generator().random((30, 20))
        assert got.dtype == dtype
        assert np.array_equal(got, np.searchsorted(cdf, u, side="right"))


def test_sampled_symbols_in_blocks_equal_one_draw(monkeypatch):
    # Blocks of 7 split the rows of 5 symbols, so a block starts mid-row.
    monkeypatch.setattr(coding, "BLOCK_ELEMENTS", 7)
    for probs in ([0.25, 0.25, 0.25, 0.25], [0.3, 0.0, 0.7]):
        cdf = np.cumsum(probs)
        cdf[-1] = 1.0
        for shape in ((13, 3, 5), (4, 5), (7,), (0, 5)):
            gen, ref_gen = ChannelRng(6, 3).generator(), ChannelRng(6, 3).generator()
            got = coding._sample_symbols(gen, shape, probs)
            u = ref_gen.random(shape)
            ref = np.zeros(shape, dtype=np.uint8)
            for c in cdf[:-1]:
                ref += u >= c
            assert got.dtype == np.uint8
            assert np.array_equal(got, ref)
            assert gen.random() == ref_gen.random()


def test_symbol_sampling_memory_stays_bounded():
    # A whole-batch draw of (4096, 256, 4) uniforms alone would take 32 MiB;
    # the uint8 symbols take 4 MiB.
    probs = np.full(4, 0.25)
    gen = ChannelRng(2, 1).generator()
    tracemalloc.start()
    try:
        got = coding._sample_symbols(gen, (4096, 256, 4), probs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.shape == (4096, 256, 4)
    assert peak < 8 * 2**20


def _ref_raw_symbols(gen, size: int, k: int) -> list:
    """Uniform 2^k symbols from raw words, written with Python ints: flat
    symbol i is the top k bits of byte i % 8 (little-endian) of word i // 8."""
    words = [int(w) for w in gen.bit_generator.random_raw(-(-size // 8))]
    return [(words[i // 8] >> (8 * (i % 8) + 8 - k)) & ((1 << k) - 1) for i in range(size)]


def test_codeword_symbols_are_raw_bytes_top_bits():
    for k in (1, 2, 3, 8):
        probs = np.full(1 << k, 1.0 / (1 << k))
        for shape in ((13, 3, 5), (4, 9), (7,), (8,), (0, 5)):
            gen, ref_gen = ChannelRng(6, k).generator(), ChannelRng(6, k).generator()
            got = coding._codeword_symbols(gen, shape, probs)
            assert got.dtype == np.uint8 and got.shape == shape
            assert got.ravel().tolist() == _ref_raw_symbols(ref_gen, math.prod(shape), k)
            assert gen.random() == ref_gen.random()


def _chi_square_bound(df: int, z: float = 5.0) -> float:
    """Wilson-Hilferty's upper z-sigma quantile of chi-square with df degrees."""
    c = 2.0 / (9.0 * df)
    return df * (1.0 - c + z * math.sqrt(c)) ** 3


def test_codeword_symbols_are_exact_in_law():
    # Symbol frequencies, and the joint frequencies of the two symbols at
    # flat positions 2i and 2i + 1 (which come from one raw word), each
    # within the 5-sigma chi-square quantile of its uniform law.
    size = 2**21
    for q in (2, 4, 8, 256):
        sym = coding._codeword_symbols(ChannelRng(11, q).generator(), (size,), np.full(q, 1.0 / q))
        pairs = sym[0::2].astype(np.int64) * q + sym[1::2]
        for counts, cells in ((np.bincount(sym, minlength=q), q),
                              (np.bincount(pairs, minlength=q * q), q * q)):
            expected = counts.sum() / cells
            stat = float(((counts - expected) ** 2).sum() / expected)
            assert stat < _chi_square_bound(cells - 1), (q, cells, stat)


def test_codeword_symbols_take_inverse_cdf_off_uniform_powers_of_two():
    for probs in ([0.3, 0.7], np.full(3, 1.0 / 3), [0.5, 0.25, 0.25], [1.0], np.full(512, 1.0 / 512)):
        gen, ref_gen = ChannelRng(8, 5).generator(), ChannelRng(8, 5).generator()
        got = coding._codeword_symbols(gen, (9, 7), probs)
        ref = coding._sample_symbols(ref_gen, (9, 7), probs)
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)
        assert np.array_equal(gen.bit_generator.random_raw(3), ref_gen.bit_generator.random_raw(3))


def test_codeword_symbol_memory_is_the_output():
    # The (4096, 256, 4) uint8 symbols take 4 MiB; their raw words are the buffer.
    gen = ChannelRng(2, 1).generator()
    tracemalloc.start()
    try:
        got = coding._codeword_symbols(gen, (4096, 256, 4), np.full(4, 0.25))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.shape == (4096, 256, 4)
    assert peak < 1.25 * 4 * 2**20


_FAST_PATH_RUNS = {
    "mpsk-fresh": lambda px: simulate(
        CodeConfig(n=3, rate=1.5, alpha=1.0), "contiguous",
        mpsk_hard_dmc(PskConfig(order=4, snr=9.0)), px, "ml", 500, 1),
    "bsc-typicality-fresh": lambda px: simulate(
        CodeConfig(n=12, rate=0.35, alpha=1.0), "contiguous", bsc(0.05), px,
        "typicality", 500, 1),
    "bsc-shared": lambda px: simulate(
        CodeConfig(n=8, rate=0.5, alpha=0.5), "contiguous", bsc(0.1), px, "ml", 500, 1,
        fresh_codebook=False),
    "bsc-full": lambda px: simulate_full_codebook(
        CodeConfig(n=8, rate=0.5, alpha=0.5),
        make_partition(CodeConfig(n=8, rate=0.5, alpha=0.5)),
        bsc(0.1), px, 500, 1),
}


@pytest.mark.parametrize("name", list(_FAST_PATH_RUNS))
def test_uniform_binary_and_quaternary_codewords_skip_the_inverse_cdf(monkeypatch, name):
    run = _FAST_PATH_RUNS[name]
    labels = ("0", "1", "2", "3") if name.startswith("mpsk") else ("0", "1")
    px = ProbVector.uniform(labels)
    calls = []
    real = coding._sample_symbols

    def spy(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(coding, "_sample_symbols", spy)
    assert run(px).to_dict()["config"]["regime"] in (
        "materialized-fresh", "materialized-shared", "full-codebook")
    assert calls == []
    if len(labels) == 2:
        run(ProbVector(labels, [0.8, 0.2]))
        assert calls


def _array_digest(arrays) -> str:
    """SHA-256 over each array's shape, then its int64 little-endian bytes."""
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(repr(a.shape).encode())
        digest.update(a.astype("<i8").tobytes())
    return digest.hexdigest()


def test_campaign_instances_keep_their_inverse_cdf_codewords(capsys):
    # The codewords of the first 200 seed-2026 campaign instances, recorded
    # under 0.6.0: their symbols stay inverse-CDF draws, so the campaign does
    # not move.
    assert _array_digest(random_fano_instance(2026, i).codebook.codewords
                         for i in range(200)) == (
        "686db40a9471dcd0cc4a75e07c374e035a2aeb599e63d7f2931fb8e0cda62e45")
    # The partitions of the first 1000, and the whole campaign report less
    # its version, recorded under 0.7.0 while the generator still drew its
    # layouts through partition_from_counts.
    assert _array_digest(random_fano_instance(2026, i).partition.class_of
                         for i in range(1000)) == (
        "a8f8c830bf41f343a242cf65ef83ff3b0d2401cb5275140e426eabeb8820028d")
    assert cli.main(["fano", "--instances", "1000", "--seed", "2026"]) == 0
    report = json.loads(capsys.readouterr().out)
    del report["artifact_version"]
    text = json.dumps(report, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "dd0e736207f7e5ca5b184446f7fefd388b11fb5fc726421834987e8146a84b57")


def test_shared_simulation_memory_stays_bounded():
    # 4096 codewords against a 4096-trial batch: a (trials, count) float64
    # score matrix alone would take 128 MiB.
    cfg = CodeConfig(n=16, rate=0.75, alpha=1.0)
    tracemalloc.start()
    try:
        rep = simulate(cfg, "contiguous", bsc(0.05), UNIFORM2, "ml", 4096, 3,
                       fresh_codebook=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cfg.semantic_count == 4096
    assert 0 < rep.semantic_errors < 4096
    assert peak < 32 * 2**20


def test_keyed_shared_scores_memory_stays_bounded():
    # 2^18 codewords of length 16 take 32 MiB as int64; gathering their
    # (count, n, |Y|) key weights as int64 before the float32 cast peaked
    # near 97 MiB.
    cw = np.random.default_rng(1).integers(0, 2, size=(2**18, 16))
    ys = np.random.default_rng(2).integers(0, 2, size=(4, 16))
    matrix = bsc(0.1).matrix
    score = _ml(matrix)
    assert coding._key_table(score, 16, ys.shape[0] * cw.shape[0]) is not None
    tracemalloc.start()
    try:
        picks = coding._decisions(cw, ys, score)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20
    ref = _ref_scores_shared(cw, ys, coding._log_matrix(matrix))
    assert np.array_equal(picks, _ref_decide(ref))


# --- exact evaluation against a brute-force oracle --------------------------------


def _brute_force(cb: Codebook, part: SemanticPartition, ch: Dmc):
    """Message-level enumeration of the whole (W, Y^n) joint law.

    Decodes every output word with the public single-shot decoder; all
    information measures come from the raw joint table, sharing nothing
    with exact_evaluate's owner-level factorization.
    """
    n = cb.n
    mcount = part.message_count
    per_class = cb.count == part.class_count
    rows = part.class_of if per_class else np.arange(mcount)
    reps = part.representatives
    words = list(itertools.product(range(ch.num_outputs), repeat=n))
    joint = np.zeros((mcount, len(words)))
    for w in range(mcount):
        cw = cb.codewords[rows[w]]
        for j, y in enumerate(words):
            p = 1.0 / mcount
            for t in range(n):
                p *= ch.matrix[cw[t], y[t]]
            joint[w, j] = p

    def h(mass):
        mass = np.asarray(mass, dtype=float).ravel()
        nz = mass[mass > 0]
        return float(-(nz * np.log2(nz)).sum())

    h_y = h(joint.sum(axis=0))
    h_w_given_y = h(joint) - h_y
    i_w_y = h(joint.sum(axis=1)) - h_w_given_y

    p_sem = 0.0
    p_msg = 0.0
    for j, y in enumerate(words):
        out = decode_ml(Sequence(np.array(y), ch.num_outputs), cb, ch)
        for w in range(mcount):
            if out.is_erasure:
                cls_ok = msg_ok = False
            elif per_class:
                cls_ok = out.index == part.class_of[w]
                msg_ok = cls_ok and w == reps[out.index]
            else:
                cls_ok = part.class_of[out.index] == part.class_of[w]
                msg_ok = out.index == w
            if not cls_ok:
                p_sem += joint[w, j]
            if not msg_ok:
                p_msg += joint[w, j]

    # I(X^n;Y^n): identify messages transmitting the same codeword
    keys = {}
    for w in range(mcount):
        keys.setdefault(tuple(cb.codewords[rows[w]]), []).append(w)
    joint_xy = np.stack([joint[ws].sum(axis=0) for ws in keys.values()])
    i_x_y = h(joint_xy.sum(axis=1)) + h_y - h(joint_xy)
    return p_sem, p_msg, h_w_given_y, i_w_y, i_x_y


@pytest.mark.parametrize("full", [False, True], ids=["per-class", "full"])
def test_exact_evaluate_against_brute_force(full):
    gen = np.random.default_rng(314159)
    for _ in range(12):
        n = int(gen.integers(1, 4))
        n_out = int(gen.integers(2, 4))
        matrix = gen.dirichlet(np.ones(n_out), size=2)
        ch = Dmc(("0", "1"), tuple(str(j) for j in range(n_out)), matrix)
        mcount = int(2 ** gen.integers(2, 4))
        kcount = int(2 ** gen.integers(1, 3))
        kcount = min(kcount, mcount // 2)  # keep regimes distinguishable
        part = SemanticPartition(np.arange(mcount) % kcount)
        cw_count = mcount if full else kcount
        cb = Codebook(gen.integers(0, 2, size=(cw_count, n)), 2)
        ev = exact_evaluate(cb, part, ch)
        ps, pm, hwy, iwy, ixy = _brute_force(cb, part, ch)
        assert ev.p_sem == pytest.approx(ps, abs=1e-12)
        assert ev.p_msg == pytest.approx(pm, abs=1e-12)
        assert ev.h_w_given_y == pytest.approx(hwy, abs=1e-10)
        assert ev.i_w_y == pytest.approx(iwy, abs=1e-10)
        assert ev.i_x_y == pytest.approx(ixy, abs=1e-10)
        assert ev.regime == ("full" if full else "per-class")


def test_exact_evaluate_groups_copied_codewords_with_unequal_priors():
    # Classes of 3, 3, 3, 3 and 4 messages give the per-class owners
    # unequal priors, and copied codewords make owners share an x, so
    # I(X^n; Y^n) depends on which priors join which codeword group.
    matrix = np.random.default_rng(2718).dirichlet(np.ones(3), size=2)
    ch = Dmc(("0", "1"), ("0", "1", "2"), matrix)
    part = partition_from_counts(16, 5)
    assert list(part.sizes) == [3, 3, 3, 3, 4]
    cb = Codebook(np.array([[1, 1, 0], [0, 0, 1], [1, 1, 0], [1, 1, 1], [0, 0, 1]]), 2)
    ev = exact_evaluate(cb, part, ch)
    assert ev.regime == "per-class"
    assert ev.i_x_y == pytest.approx(_brute_force(cb, part, ch)[4], abs=1e-12)


def test_exact_evaluate_split_entropies_recombine():
    gen = np.random.default_rng(8)
    matrix = gen.dirichlet(np.ones(2), size=2)
    ch = Dmc(("0", "1"), ("0", "1"), matrix)
    part = partition_from_counts(8, 4)
    cb = Codebook(gen.integers(0, 2, size=(4, 3)), 2)
    ev = exact_evaluate(cb, part, ch)
    if ev.h_w_given_y_err is not None and ev.h_w_given_y_ok is not None:
        mix = ev.p_sem * ev.h_w_given_y_err + (1 - ev.p_sem) * ev.h_w_given_y_ok
        # conditioning on the error event can only add the H(E) overhead
        assert mix <= ev.h_w_given_y + 1e-9
        assert ev.h_w_given_y <= mix + 1.0 + 1e-9


def test_exact_evaluate_budget():
    part = partition_from_counts(2**10, 2)
    cb = Codebook(np.zeros((2, 24), dtype=np.int64), 2)
    with pytest.raises(BudgetError):
        exact_evaluate(cb, part, bsc(0.1))


def test_exact_evaluate_word_table_is_narrow():
    # Two codewords at n = 18 enumerate 2^18 words; an int64 word table and
    # its copy alone would take 72 MiB.
    part = partition_from_counts(2, 2)
    cb = Codebook(np.array([[0] * 18, [1] * 18]), 2)
    tracemalloc.start()
    try:
        ev = exact_evaluate(cb, part, bsc(0.2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.0 < ev.p_sem < 0.01
    assert peak < 48 * 2**20


def test_exact_evaluate_rejects_an_unknown_decoder():
    _, part, cb, ch = _hand_system()
    with pytest.raises(ValidationError, match="unknown decoder 'guess'"):
        exact_evaluate(cb, part, ch, decoder="guess", px=UNIFORM2)


def test_exact_evaluate_typicality_needs_px():
    _, part, cb, ch = _hand_system()
    with pytest.raises(ValidationError, match="px"):
        exact_evaluate(cb, part, ch, decoder="typicality")
    ev = exact_evaluate(cb, part, ch, decoder="typicality", px=UNIFORM2, eps=0.3)
    assert 0.0 <= ev.p_sem <= ev.p_msg <= 1.0


# --- Fano bound and converse ------------------------------------------------------


def _fixed_instance(n=4, mbits=4, kcount=4, p=0.1):
    part = partition_from_counts(1 << mbits, kcount)
    gen = np.random.default_rng(1234)
    cb = Codebook(gen.integers(0, 2, size=(kcount, n)), 2)
    return FanoInstance(partition=part, codebook=cb, channel=bsc(p))


def test_fano_bound_hand_value():
    # nR = 4, alpha = 1/2, beta = 1/4, P = 0.1:
    # gamma = log2(3/4)/4 + 1, rhs = 1 + (1/2 + (gamma - 1/2) / 10) * 4
    inst = _fixed_instance()
    assert inst.total_bits == 4.0
    assert inst.alpha == 0.5
    assert inst.beta == 0.25
    got = fano_bound(inst, p_sem=0.1)
    assert got == pytest.approx(3.1584962500721156, abs=1e-9)


def test_fano_bound_rejects_bad_inputs():
    inst = _fixed_instance()
    with pytest.raises(ValidationError):
        fano_bound(inst, p_sem=1.5)
    with pytest.raises(ValidationError):
        fano_bound(inst, p_sem=-0.2)
    degenerate = FanoInstance(
        partition=partition_from_counts(4, 1),
        codebook=Codebook(np.array([[0, 0]]), 2),
        channel=bsc(0.1),
    )
    with pytest.raises(ValidationError, match="beta"):
        fano_bound(degenerate, p_sem=0.0)


def test_check_fano_noiseless_slack_is_exact():
    # distinct codewords over a noiseless channel: P_e,s = 0, H(W|Y) is the
    # within-class bits, and the bound's slack is exactly 1 + (1-alpha)nR - 1
    part = partition_from_counts(8, 4)
    cb = Codebook(np.array([[0, 0], [0, 1], [1, 0], [1, 1]]), 2)
    inst = FanoInstance(partition=part, codebook=cb, channel=Dmc.identity(["0", "1"]))
    chk = check_fano(inst)
    assert chk.holds
    assert chk.p_sem == 0.0
    assert chk.lhs == pytest.approx(1.0, abs=1e-12)
    assert chk.rhs == pytest.approx(2.0, abs=1e-12)
    assert chk.slack == pytest.approx(1.0, abs=1e-12)


def test_fully_noisy_channel_saturates_the_identity():
    # bsc(1/2): Y tells nothing, every trial erases, p_sem = 1, H(W|Y) = nR
    part = partition_from_counts(8, 4)
    cb = Codebook(np.array([[0, 0], [0, 1], [1, 0], [1, 1]]), 2)
    inst = FanoInstance(partition=part, codebook=cb, channel=bsc(0.5))
    ev = inst.evaluation()
    assert ev.p_sem == pytest.approx(1.0, abs=1e-12)
    assert ev.h_w_given_y == pytest.approx(3.0, abs=1e-12)
    chk = check_fano(inst)
    assert chk.holds


def test_converse_chain_on_noiseless_instance():
    part = partition_from_counts(8, 4)
    cb = Codebook(np.array([[0, 0], [0, 1], [1, 0], [1, 1]]), 2)
    inst = FanoInstance(partition=part, codebook=cb, channel=Dmc.identity(["0", "1"]))
    chain = converse_chain(inst)
    assert chain.h_w == pytest.approx(3.0, abs=1e-12)
    assert chain.i_w_y == pytest.approx(2.0, abs=1e-12)
    assert chain.i_x_y == pytest.approx(2.0, abs=1e-12)
    assert chain.capacity == pytest.approx(1.0, abs=1e-9)
    assert chain.n_capacity == pytest.approx(2.0, abs=1e-9)
    assert abs(chain.identity_gap) <= 1e-12
    assert chain.holds


def test_random_fano_instance_is_deterministic():
    a = random_fano_instance(2026, 17)
    b = random_fano_instance(2026, 17)
    np.testing.assert_array_equal(a.codebook.codewords, b.codebook.codewords)
    np.testing.assert_array_equal(a.channel.matrix, b.channel.matrix)
    assert a.partition.class_count == b.partition.class_count
    c = random_fano_instance(2026, 18)
    assert (
        a.codebook.codewords.shape != c.codebook.codewords.shape
        or not np.array_equal(a.codebook.codewords, c.codebook.codewords)
        or not np.array_equal(a.channel.matrix, c.channel.matrix)
    )


def test_fano_campaign_small():
    rep = run_fano_campaign(60, seed=2026)
    assert rep.instances == 60
    assert rep.fano_holds == 60
    assert rep.converse_holds == 60
    assert rep.failures == ()
    assert rep.worst_slack >= -1e-9
    assert rep.seed == 2026


@pytest.mark.parametrize("seed", [2026, 1, 7])
def test_fano_campaign_completes_on_seeds_that_used_to_stall(seed):
    # each seed holds a near-useless channel on which a full 1e-9
    # Blahut-Arimoto solve stalls; the converse check must still decide
    rep = run_fano_campaign(1000, seed=seed)
    assert rep.fano_holds == 1000
    assert rep.converse_holds == 1000
    assert rep.failures == ()


def test_converse_verdict_matches_a_fully_converged_capacity():
    seed = 20260818
    checked = 0
    for i in range(200):
        inst = random_fano_instance(seed, i)
        try:
            ref = blahut_arimoto(inst.channel, tol=1e-9, max_iter=20_000)
        except ConvergenceError:
            continue
        chain = converse_chain(inst)
        assert chain.capacity_ok == (chain.i_x_y <= inst.n * ref.capacity + 1e-6), i
        assert chain.capacity <= ref.capacity + ref.gap
        checked += 1
    assert checked >= 190


def test_fano_campaign_validation():
    with pytest.raises(ValidationError):
        run_fano_campaign(0, seed=1)
