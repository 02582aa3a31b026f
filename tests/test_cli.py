import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import semcomm.capacity as capacity
import semcomm.channels as channels
import semcomm.cli as cli
import semcomm.coding as coding
from semcomm import (
    ConvergenceError, KnowledgeBase, ProbVector, SemcommError, bsc, blahut_arimoto,
)

K1 = json.dumps({
    "source": ["alice", "bob", "cindy"],
    "semantic": ["s1", "s2", "s3"],
    "kernel": [[1 / 3, 1 / 3, 1 / 3]] * 3,
})
K2 = json.dumps({
    "source": ["alice", "bob", "cindy"],
    "semantic": ["s1", "s2"],
    "kernel": [[0.9, 0.1], [0.8, 0.2], [0.5, 0.5]],
})
STUDENT_PROBS = "0.25,0.5,0.25"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out), err


# --- entropy ---------------------------------------------------------------


def test_entropy_ambiguous_kernel(capsys):
    doc, _ = run_json(capsys, "entropy", "--knowledge", K1, "--probs", STUDENT_PROBS)
    assert doc["shannon_entropy_bits"] == pytest.approx(1.5, abs=1e-12)
    assert doc["semantic_entropy_bits"] == pytest.approx(math.log2(3), abs=1e-6)
    assert doc["artifact_version"] == cli.ARTIFACT_VERSION


def test_entropy_sharp_kernel(capsys):
    doc, _ = run_json(capsys, "entropy", "--knowledge", K2, "--probs", STUDENT_PROBS)
    assert doc["semantic_entropy_bits"] == pytest.approx(0.811278, abs=1e-6)
    assert doc["semantic_distribution"]["s1"] == pytest.approx(0.75, abs=1e-12)
    assert doc["compression_gain"] == pytest.approx(1.5 / 0.8112781244591328, abs=1e-9)


def test_entropy_identity_kernel_gain_one(capsys):
    ident = json.dumps({
        "source": ["a", "b"],
        "semantic": ["a", "b"],
        "kernel": [[1.0, 0.0], [0.0, 1.0]],
    })
    doc, _ = run_json(capsys, "entropy", "--knowledge", ident, "--probs", "0.25,0.75")
    assert doc["compression_gain"] == pytest.approx(1.0, abs=1e-12)
    assert doc["semantic_entropy_bits"] == doc["shannon_entropy_bits"]


def test_entropy_from_config_file(capsys, tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"knowledge": json.loads(K2), "probs": [0.25, 0.5, 0.25]}))
    doc, _ = run_json(capsys, "entropy", "--config", str(cfg))
    assert doc["semantic_entropy_bits"] == pytest.approx(0.811278, abs=1e-6)


def test_entropy_out_file_matches_stdout(capsys, tmp_path):
    out = tmp_path / "report.json"
    _, stdout, _ = run(
        capsys, "entropy", "--knowledge", K1, "--probs", STUDENT_PROBS,
        "--out", str(out),
    )
    assert out.read_text() == stdout


def test_constant_meaning_entropy_report_is_strict_json(capsys):
    # The extreme many-to-one source: every symbol means "x". Its semantic
    # entropy is 0.0 (not -0.0) and its unbounded gain is null, since JSON
    # has no Infinity.
    def refuse(token):
        raise ValueError(f"non-JSON constant {token}")

    const = json.dumps({"source": ["a", "b"], "semantic": ["x"], "kernel": [[1], [1]]})
    code, out, err = run(capsys, "entropy", "--knowledge", const)
    assert code == 0, err
    doc = json.loads(out, parse_constant=refuse)
    assert doc["semantic_entropy_bits"] == 0.0
    assert math.copysign(1.0, doc["semantic_entropy_bits"]) == 1.0
    assert doc["compression_gain"] is None
    assert doc["shannon_entropy_bits"] == 1.0


def test_entropy_requires_knowledge(capsys):
    code, _, err = run(capsys, "entropy")
    assert code == 2
    assert "knowledge" in err


# --- capacity ---------------------------------------------------------------


def test_capacity_bsc_with_alpha(capsys):
    doc, _ = run_json(capsys, "capacity", "--channel", "bsc:0.1", "--alpha", "0.5")
    hb = -(0.1 * math.log2(0.1) + 0.9 * math.log2(0.9))
    assert doc["capacity_bits"] == pytest.approx(1 - hb, abs=1e-6)
    assert doc["semantic_capacity_bits"] == pytest.approx(2 * (1 - hb), abs=1e-6)
    assert doc["gap"] <= 1e-9
    assert doc["optimal_input"]["0"] == pytest.approx(0.5, abs=1e-5)


def test_capacity_identity(capsys):
    doc, _ = run_json(capsys, "capacity", "--channel", "identity:4")
    assert doc["capacity_bits"] == pytest.approx(2.0, abs=1e-9)
    assert doc["semantic_capacity_bits"] == pytest.approx(2.0, abs=1e-9)


def test_capacity_mpsk_matches_library_route(capsys):
    doc, _ = run_json(capsys, "capacity", "--channel", "mpsk:2:4")
    q = 0.5 * math.erfc(2.0)
    want = blahut_arimoto(bsc(q), tol=1e-9).capacity
    assert doc["capacity_bits"] == pytest.approx(want, abs=1e-9)


def test_capacity_snr_db_conversion(capsys):
    lin, _ = run_json(capsys, "capacity", "--channel", "mpsk:2:4")
    db, _ = run_json(
        capsys, "capacity", "--channel", "mpsk:2", "--snr-db",
        repr(10 * math.log10(4.0)),
    )
    assert db["capacity_bits"] == pytest.approx(lin["capacity_bits"], abs=1e-12)


@pytest.mark.parametrize("snr_db", [63, 67, 80])
@pytest.mark.parametrize("m", [2, 4, 8])
def test_capacity_mpsk_at_very_high_snr(capsys, m, snr_db):
    # Past about 60 dB the quadrature misses the peak sector; its complement
    # stands in, and the channel is noiseless to double precision.
    doc, _ = run_json(capsys, "capacity", "--channel", "mpsk:%d" % m,
                      "--snr-db", str(snr_db))
    assert doc["capacity_bits"] == math.log2(m)


def test_capacity_awgn_closed_form(capsys):
    doc, _ = run_json(capsys, "capacity", "--channel", "awgn:63")
    assert doc["capacity_bits"] == pytest.approx(6.0, abs=1e-12)
    assert doc["iterations"] == 0


def test_capacity_snr_db_rejected_for_bsc(capsys):
    code, _, err = run(capsys, "capacity", "--channel", "bsc:0.1", "--snr-db", "3")
    assert code == 2
    assert "snr-db" in err or "mpsk" in err


def test_capacity_bad_alpha(capsys):
    code, _, _ = run(capsys, "capacity", "--channel", "bsc:0.1", "--alpha", "1.5")
    assert code == 2


def test_capacity_non_numeric_alpha_in_config_exits_2(capsys):
    code, out, err = run(capsys, "capacity", "--config", '{"channel": "bsc:0.1", "alpha": "x"}')
    assert code == 2
    assert out == ""
    assert "error: capacity: alpha must be a number, got 'x'" in err
    assert "Traceback" not in err


def test_capacity_solves_once_and_checks_alpha_first(capsys, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return blahut_arimoto(*args, **kwargs)

    monkeypatch.setattr(cli, "blahut_arimoto", counting)
    monkeypatch.setattr(capacity, "blahut_arimoto", counting)
    doc, _ = run_json(capsys, "capacity", "--channel", "bsc:0.1", "--alpha", "0.5")
    assert len(calls) == 1
    assert doc["semantic_capacity_bits"] == doc["capacity_bits"] / 0.5
    for chan in ("bsc:0.1", "awgn:3"):
        code, out, err = run(capsys, "capacity", "--channel", chan, "--alpha", "1.5")
        assert (code, out) == (2, "")
        assert "alpha must be in (0, 1]" in err
    assert len(calls) == 1


def test_capacity_unknown_builtin(capsys):
    code, _, err = run(capsys, "capacity", "--channel", "warp:9")
    assert code == 2
    assert "warp" in err


def test_capacity_missing_channel_file(capsys):
    code, _, _ = run(capsys, "capacity", "--channel", "/nonexistent/ch.json")
    assert code == 2


def test_capacity_convergence_exit_code(capsys, monkeypatch):
    def explode(ch, tol=1e-9):
        raise ConvergenceError("no convergence", best=None, gap=0.5)

    monkeypatch.setattr(cli, "blahut_arimoto", explode)
    code, _, err = run(capsys, "capacity", "--channel", "bsc:0.1")
    assert code == 3
    assert "no convergence" in err


# --- simulate ---------------------------------------------------------------

SWEEP = ("simulate", "--channel", "bsc:0.05", "--n-grid", "16,32",
         "--trials", "2000", "--seed", "424242")


def _csv_rows(text: str) -> list[dict]:
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_simulate_csv_shape_and_schema(capsys):
    code, out, _ = run(capsys, *SWEEP)
    assert code == 0
    assert out.splitlines()[0] == f"# {cli.CSV_SCHEMA}"
    rows = _csv_rows(out)
    assert len(rows) == 2
    assert list(rows[0].keys()) == list(cli.CSV_COLUMNS)
    assert [int(r["n"]) for r in rows] == [16, 32]


def test_simulate_error_rate_decreases_with_blocklength(capsys):
    _, out, _ = run(capsys, *SWEEP)
    rows = _csv_rows(out)
    p = [float(r["p_sem"]) for r in rows]
    assert p[0] > p[1] > 0.0


def test_simulate_above_capacity_stays_bad(capsys):
    _, out, _ = run(
        capsys, "simulate", "--channel", "bsc:0.05", "--rate-fraction", "1.2",
        "--n-grid", "64", "--trials", "600", "--seed", "7",
    )
    rows = _csv_rows(out)
    assert float(rows[0]["p_sem"]) >= 0.05


def test_simulate_alpha_one_columns_coincide(capsys):
    _, out, _ = run(capsys, *SWEEP)
    for r in _csv_rows(out):
        assert r["p_sem"] == r["p_msg"]


def test_simulate_rerun_and_threads_are_byte_identical(capsys):
    # --threads is accepted and ignored: the engine picks its own workers.
    _, a, _ = run(capsys, *SWEEP)
    _, b, _ = run(capsys, *SWEEP)
    for threads in ("0", "1", "4", "9"):
        code, c, _ = run(capsys, *SWEEP, "--threads", threads)
        assert code == 0
        assert c == a
    assert a == b


def test_simulate_rerun_from_emitted_csv(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    run(capsys, *SWEEP, "--out", str(out))
    first = out.read_text()
    _, stdout, _ = run(capsys, "simulate", "--config", str(out))
    assert stdout == first


def test_simulate_rerun_from_json_report(capsys, tmp_path):
    _, baseline, _ = run(capsys, *SWEEP)
    report = tmp_path / "sweep.json"
    run(capsys, *SWEEP, "--out", str(report))
    _, stdout, _ = run(capsys, "simulate", "--config", str(report))
    assert stdout == baseline


def test_simulate_flags_override_config(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    run(capsys, *SWEEP, "--out", str(out))
    _, stdout, _ = run(capsys, "simulate", "--config", str(out), "--n-grid", "16")
    rows = _csv_rows(stdout)
    assert [int(r["n"]) for r in rows] == [16]


def test_simulate_requires_seed(capsys):
    code, _, err = run(capsys, "simulate", "--channel", "bsc:0.05",
                       "--n-grid", "8", "--trials", "100")
    assert code == 2
    assert "seed" in err


def test_simulate_ephemeral_draws_and_reports_seed(capsys):
    code, out, err = run(
        capsys, "simulate", "--channel", "bsc:0.05", "--n-grid", "8",
        "--trials", "128", "--ephemeral",
    )
    assert code == 0
    assert "# ephemeral seed:" in err
    drawn = int(err.split("# ephemeral seed:")[1].splitlines()[0])
    rows = _csv_rows(out)
    assert int(rows[0]["seed"]) == drawn % cli.SEED_MOD


def test_simulate_per_row_seed_derivation(capsys):
    _, out, _ = run(capsys, *SWEEP)
    rows = _csv_rows(out)
    assert int(rows[0]["seed"]) == 424242
    assert int(rows[1]["seed"]) == (424242 + cli.SEED_STRIDE) % cli.SEED_MOD


def test_simulate_bad_grid(capsys):
    code, _, _ = run(capsys, "simulate", "--channel", "bsc:0.05",
                     "--n-grid", "0", "--seed", "1")
    assert code == 2


@pytest.mark.parametrize("extra, message", [
    (("--n-grid", "abc"), "n-grid entry must be an integer, got 'abc'"),
    (("--config", '{"n-grid": 64}'), "n-grid must be a list, got 64"),
    (("--config", '{"n-grid": ["a"]}'), "n-grid entry must be an integer, got 'a'"),
    (("--config", '{"n-grid": [8.7]}'), "n-grid entry must be an integer, got 8.7"),
    (("--config", '{"n-grid": [8], "trials": "many"}'), "trials must be an integer, got 'many'"),
    (("--config", '{"n-grid": [8], "alpha": "half"}'), "alpha must be a number, got 'half'"),
    # About 2^(4.5e10) classes: refused by bit count, never formed.
    (("--rate-fraction", "1e9", "--n-grid", "64", "--trials", "10"),
     "virtual simulation needs semantic_bits <= 1022"),
    # A code rate that is not > 0: a channel of capacity 0, or a fraction
    # that is not positive.
    *((("--channel", channel), "rate-fraction 0.9 x semantic capacity 0.0 = 0.0 bits, must be > 0")
      for channel in ("bsc:0.5", "identity:1", "mpsk:2:0")),
    *((("--rate-fraction", fraction), f"the code rate, rate-fraction {fraction} x semantic "
       "capacity 0.71") for fraction in ("0.0", "-1.0", "nan")),
], ids=["flag-word", "config-scalar", "config-word", "config-fraction", "config-trials",
        "config-alpha", "rate-huge", "capacity-bsc", "capacity-identity", "capacity-mpsk",
        "fraction-zero", "fraction-negative", "fraction-nan"])
def test_simulate_bad_spec_exits_2_with_message(capsys, extra, message):
    code, out, err = run(capsys, "simulate", "--channel", "bsc:0.05", "--seed", "1", *extra)
    assert code == 2
    assert out == ""
    assert message in err
    assert "Traceback" not in err


def test_simulate_tiny_alpha_never_forms_the_message_count(capsys):
    # About 2^(2.9e12) messages in 2^3 classes: the materialized engine
    # needs only the bit counts, where forming the count takes terabytes.
    code, out, err = run(capsys, "simulate", "--channel", "bsc:0.05", "--seed", "1",
                         "--rate-fraction", "0.5", "--alpha", "1e-12",
                         "--n-grid", "8", "--trials", "10")
    assert code == 0, err
    assert _csv_rows(out)[0]["p_msg"] == "1.0"


def test_simulate_whole_number_spec_values_resolve_as_before(capsys):
    flags = ("simulate", "--channel", "bsc:0.05", "--seed", "1")
    _, want, _ = run(capsys, *flags, "--n-grid", "8,12", "--trials", "100")
    code, got, err = run(capsys, *flags, "--config", '{"n-grid": [8.0, "12"], "trials": 100.0}')
    assert code == 0, err
    assert got == want


def test_simulate_csv_config_without_spec_line(capsys, tmp_path):
    p = tmp_path / "plain.csv"
    p.write_text("n,R\n1,2\n")
    code, _, err = run(capsys, "simulate", "--config", str(p))
    assert code == 2
    assert "spec" in err


README_SWEEP = (
    "simulate", "--channel", "bsc:0.05", "--alpha", "0.5", "--rate-fraction", "0.9",
    "--n-grid", "64,128,256,512", "--trials", "10000", "--seed", "2026", "--threads", "4",
)


def test_readme_sweep_golden_bytes(capsys):
    # Recorded under 0.5.0's tie-exact scores. Version 0.4.0 summed cells
    # one by one, so competitors tied with the codeword could win: p_sem
    # 0.2173 at n=64, 2.9 standard errors below the closed form's 0.2295.
    code, out, _ = run(capsys, *README_SWEEP)
    assert code == 0
    assert out.endswith("\n")
    assert out.splitlines() == [
        '# semcomm-simulate-v1',
        '# version: 0.7.0',
        '# spec: {"alpha":0.5,"channel":"bsc:0.05","decoder":"ml","n-grid":[64,128,256,512],"rate-fraction":0.9,"seed":2026,"trials":10000}',
        'n,R,alpha,p_sem,p_sem_lo,p_sem_hi,p_msg,seed',
        '64,1.2844854771912786,0.5,0.2286,0.22047464139365877,0.23693379292194447,1.0,2026',
        '128,1.2844854771912786,0.5,0.146,0.13921517453378499,0.15305669631265403,1.0,1002029',
        '256,1.2844854771912786,0.5,0.0784,0.07329203481457597,0.08383175261157852,1.0,2002032',
        '512,1.2844854771912786,0.5,0.0268,0.023811791444583907,0.03015162461342442,1.0,3002035',
    ]


# The materialized engine's two CLI runs from the short-block benchmark at
# 5000 trials (a full 4096-trial batch and a short one). Re-recorded under
# 0.7.0, whose uniform 2^k codeword symbols come from raw Philox bytes;
# 0.6.0's inverse CDF gave p_sem 0.6128, 0.623, 0.633 and, at n=16, 0.634.
MPSK_SHORT_BLOCK = (
    "simulate", "--channel", "mpsk:4:9", "--n-grid", "2,3,4",
    "--trials", "5000", "--seed", "2026",
)
TYPICALITY_SHORT_BLOCK = (
    "simulate", "--channel", "bsc:0.05", "--rate-fraction", "0.5", "--decoder", "typicality",
    "--n-grid", "8,12,16", "--trials", "5000", "--seed", "2026",
)


def test_short_block_qary_ml_golden_bytes(capsys):
    code, out, _ = run(capsys, *MPSK_SHORT_BLOCK)
    assert code == 0
    assert out.splitlines() == [
        '# semcomm-simulate-v1',
        '# version: 0.7.0',
        '# spec: {"alpha":1.0,"channel":"mpsk:4:9","decoder":"ml","n-grid":[2,3,4],"rate-fraction":0.9,"seed":2026,"trials":5000}',
        'n,R,alpha,p_sem,p_sem_lo,p_sem_hi,p_msg,seed',
        '2,1.7733336033809244,1.0,0.6214,0.6078673139489154,0.6347462880188247,0.6214,2026',
        '3,1.7733336033809244,1.0,0.6308,0.6173279267484129,0.6440712424227604,0.6308,1002029',
        '4,1.7733336033809244,1.0,0.632,0.6185360544403621,0.6452612722461429,0.632,2002032',
    ]


def test_short_block_typicality_golden_bytes(capsys):
    code, out, _ = run(capsys, *TYPICALITY_SHORT_BLOCK)
    assert code == 0
    assert out.splitlines() == [
        '# semcomm-simulate-v1',
        '# version: 0.7.0',
        '# spec: {"alpha":1.0,"channel":"bsc:0.05","decoder":"typicality","n-grid":[8,12,16],"rate-fraction":0.5,"seed":2026,"trials":5000}',
        'n,R,alpha,p_sem,p_sem_lo,p_sem_hi,p_msg,seed',
        '8,0.3568015214420218,1.0,1.0,0.9992322980549431,1.0,1.0,2026',
        '12,0.3568015214420218,1.0,1.0,0.9992322980549431,1.0,1.0,1002029',
        '16,0.3568015214420218,1.0,0.6418,0.6284057731196965,0.6549765066086853,0.6418,2002032',
    ]


def test_boundary_typicality_golden_bytes(capsys):
    # At n=20 on BSC(0.2) a pair with 3 or 5 flips sits exactly eps = 0.1
    # from H(X, Y) and is typical (the exact rule). Version 0.3.0 summed the
    # rates position by position and rounded the 3-flip pairs out: p_sem 0.6646.
    # 0.6.0 drew the codewords by inverse CDF and read 0.4906.
    code, out, _ = run(capsys, "simulate", "--channel", "bsc:0.2", "--rate-fraction", "0.5",
                       "--decoder", "typicality", "--n-grid", "20", "--trials", "5000",
                       "--seed", "1")
    assert code == 0
    assert out.splitlines() == [
        '# semcomm-simulate-v1',
        '# version: 0.7.0',
        '# spec: {"alpha":1.0,"channel":"bsc:0.2","decoder":"typicality","n-grid":[20],"rate-fraction":0.5,"seed":1,"trials":5000}',
        'n,R,alpha,p_sem,p_sem_lo,p_sem_hi,p_msg,seed',
        '20,0.13903595255631887,1.0,0.4926,0.47875347975489846,0.5064578822338884,0.4926,1',
    ]


def test_simulate_past_float_range_exits_2(capsys):
    code, out, err = run(capsys, "simulate", "--channel", "bsc:0.05", "--alpha", "0.5",
                         "--n-grid", "2048", "--seed", "1")
    assert code == 2
    assert out == ""
    assert "semantic_bits <= 1022, got 1316" in err
    assert "smallest normal float64" in err
    assert "Traceback" not in err


def test_simulate_virtual_budget_exits_2(capsys, monkeypatch):
    # BSC with uniform input folds every y type at n = 64 onto one 65-point
    # competitor grid (coding._output_fold).
    monkeypatch.setattr(coding, "DIST_BUDGET", 64)
    code, _, err = run(capsys, "simulate", "--channel", "bsc:0.05", "--n-grid", "64",
                       "--trials", "100", "--seed", "1")
    assert code == 2
    assert "virtual score distribution support" in err


def test_readme_sweep_builds_one_competitor_tail_per_blocklength(capsys, monkeypatch):
    calls = []
    tail = coding._competitor_tail

    def spy(p0, score, y_counts, s):
        calls.append(y_counts.tolist())
        return tail(p0, score, y_counts, s)

    monkeypatch.setattr(coding, "_competitor_tail", spy)
    code, _, _ = run(capsys, "simulate", "--channel", "bsc:0.05", "--alpha", "0.5",
                     "--rate-fraction", "0.9", "--n-grid", "64,128,256,512",
                     "--trials", "10000", "--seed", "2026")
    assert code == 0
    assert calls == [[64, 0], [128, 0], [256, 0], [512, 0]]


def test_simulate_virtual_bec_reaches_n_512(capsys, tmp_path):
    # Unfolded, the (c0, ce, c1) types of BEC(0.3) at n = 512 reach
    # competitor grids of about 4.9 million points, past DIST_BUDGET; folded
    # to (c0 + c1, ce, 0) none exceeds 257^2 = 66,049.
    channel = tmp_path / "bec.json"
    channel.write_text(json.dumps({
        "inputs": ["0", "1"], "outputs": ["0", "e", "1"],
        "matrix": [[0.7, 0.3, 0.0], [0.0, 0.3, 0.7]],
    }))
    code, out, err = run(capsys, "simulate", "--channel", str(channel), "--n-grid", "512",
                         "--alpha", "0.5", "--trials", "2000", "--seed", "1")
    assert code == 0, err
    assert [line[:4] for line in out.splitlines() if line[:1].isdigit()] == ["512,"]


def test_simulate_virtual_rejects_qary_input(capsys):
    code, _, err = run(capsys, "simulate", "--channel", "mpsk:4:9", "--n-grid", "64",
                       "--seed", "1")
    assert code == 2
    assert "binary channel input alphabet" in err


def test_simulate_all_erased_output_raises_no_warning(tmp_path):
    # On this erasure channel some trials at n=64 see an all-erased y, whose
    # win probability (1 - T)^(M-1) has T = 1. Under -W error a warning
    # there would end the run with a traceback.
    channel = tmp_path / "bec.json"
    channel.write_text(json.dumps({
        "inputs": ["0", "1"], "outputs": ["0", "e", "1"],
        "matrix": [[0.1, 0.9, 0.0], [0.0, 0.9, 0.1]],
    }))
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "semcomm.cli", "simulate", "--channel",
         str(channel), "--n-grid", "64", "--trials", "10000", "--seed", "1"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "Warning" not in done.stderr
    assert [line[:3] for line in done.stdout.splitlines() if line[:1].isdigit()] == ["64,"]


# --- fano -------------------------------------------------------------------


def test_fano_single_noiseless_slack_is_one(capsys):
    doc, _ = run_json(
        capsys, "fano", "--single", "--channel", "identity:2", "--n", "2",
        "--message-bits", "3", "--semantic-bits", "2",
    )
    assert doc["holds"] is True
    assert doc["slack_bits"] == pytest.approx(1.0, abs=1e-12)
    assert doc["p_sem"] == 0.0
    assert doc["converse"]["holds"] is True


def test_fano_single_useless_channel_saturates(capsys):
    doc, _ = run_json(
        capsys, "fano", "--single", "--channel", "bsc:0.5", "--n", "2",
        "--message-bits", "2", "--semantic-bits", "1",
    )
    assert doc["lhs_bits"] == pytest.approx(doc["total_bits"], abs=1e-12)
    assert doc["p_sem"] == pytest.approx(1.0, abs=1e-12)
    assert doc["holds"] is True


def test_fano_campaign_small(capsys):
    doc, err = run_json(capsys, "fano", "--instances", "25", "--seed", "5")
    assert doc["fano_holds"] == 25
    assert doc["converse_holds"] == 25
    assert doc["failures"] == []
    assert "25/25" in err


def test_fano_readme_campaign_completes(capsys):
    doc, err = run_json(capsys, "fano", "--instances", "1000", "--seed", "2026")
    assert doc["converse_holds"] == 1000
    assert doc["failures"] == []
    assert "1000/1000" in err


def test_fano_campaign_no_converse(capsys):
    doc, _ = run_json(
        capsys, "fano", "--instances", "5", "--seed", "5", "--no-converse"
    )
    assert doc["fano_holds"] == 5
    assert doc["resolved_spec"]["converse"] is False


def test_fano_campaign_config_converse_false(capsys):
    doc, err = run_json(capsys, "fano", "--config",
                        json.dumps({"instances": 3, "seed": 1, "converse": False}))
    assert doc["resolved_spec"]["converse"] is False
    assert "converse" not in err


def test_fano_single_budget_exit_code(capsys):
    code, _, _ = run(
        capsys, "fano", "--single", "--channel", "bsc:0.1", "--n", "40",
        "--message-bits", "4", "--semantic-bits", "2",
    )
    assert code == 2


def test_fano_single_budgets_codewords_not_messages(capsys):
    # 2^20 messages in 4 classes: exact_evaluate enumerates 4 codewords
    # against 2^4 output words.
    doc, _ = run_json(capsys, "fano", "--single", "--channel", "bsc:0.1", "--n", "4",
                      "--message-bits", "20", "--semantic-bits", "2")
    assert doc["total_bits"] == 20.0
    assert doc["holds"] and doc["converse"]["holds"]


FANO_SINGLE = ("fano", "--single", "--channel", "bsc:0.1", "--n", "4",
               "--message-bits", "6", "--semantic-bits", "2")
SIMULATE_SMALL = ("simulate", "--channel", "bsc:0.05", "--alpha", "0.5", "--n-grid", "8",
                  "--trials", "3000", "--seed", "1")


@pytest.mark.parametrize("argv", [SIMULATE_SMALL, FANO_SINGLE], ids=["simulate", "fano"])
def test_scheme_flag_is_gone(capsys, argv):
    # A per-class code reads only class sizes, so no layout flag could
    # change a result.
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--scheme", "interleaved"])
    assert exc.value.code == 2
    assert "--scheme" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [SIMULATE_SMALL, FANO_SINGLE], ids=["simulate", "fano"])
def test_old_partition_scheme_key_is_ignored(capsys, argv):
    # A record from before 0.6.0 still reruns, its "partition-scheme" read
    # by nothing: fano --single no longer asks a seed for seeded-random.
    code, plain, _ = run(capsys, *argv)
    assert code == 0
    old = json.dumps({"partition-scheme": "seeded-random"})
    code, out, err = run(capsys, *argv, "--config", old)
    assert code == 0, err
    assert out == plain
    assert "partition-scheme" not in out


def test_fano_single_bad_bits(capsys):
    code, _, err = run(
        capsys, "fano", "--single", "--channel", "bsc:0.1", "--n", "2",
        "--message-bits", "2", "--semantic-bits", "3",
    )
    assert code == 2
    assert "semantic-bits" in err


FANO_SINGLE = {"mode": "single", "channel": "bsc:0.1", "n": 3, "message-bits": 4,
               "semantic-bits": 2}


@pytest.mark.parametrize("config, message", [
    ({**FANO_SINGLE, "n": "abc"}, "n must be an integer, got 'abc'"),
    ({**FANO_SINGLE, "n": 3.7}, "n must be an integer, got 3.7"),
    ({**FANO_SINGLE, "message-bits": "four"}, "message-bits must be an integer, got 'four'"),
    ({**FANO_SINGLE, "semantic-bits": 1.5}, "semantic-bits must be an integer, got 1.5"),
    ({"instances": "many", "seed": 1}, "instances must be an integer, got 'many'"),
    ({"instances": 2.5, "seed": 1}, "instances must be an integer, got 2.5"),
    ({"instances": 3, "seed": 1, "converse": "false"}, "converse must be true or false, got 'false'"),
    ({"instances": 3, "seed": 1, "converse": 1}, "converse must be true or false, got 1"),
    ({**FANO_SINGLE, "message-bits": 20000, "semantic-bits": 1},
     "2^20000 messages exceed the 1048576 cap"),
    ({**FANO_SINGLE, "message-bits": 10**10, "semantic-bits": 1},
     "2^10000000000 messages exceed the 1048576 cap"),
    ({**FANO_SINGLE, "n": 10**10}, "4 codewords of length 10000000000 needs"),
    ({"mode": "singel", "instances": 3, "seed": 1},
     "mode must be 'single' or 'campaign', got 'singel'"),
], ids=["n-word", "n-fraction", "message-bits-word", "semantic-bits-fraction",
        "instances-word", "instances-fraction", "converse-text", "converse-number",
        "message-bits-huge", "message-bits-giant", "n-giant", "mode-typo"])
def test_fano_bad_config_values_exit_2_with_message(capsys, config, message):
    code, out, err = run(capsys, "fano", "--config", json.dumps(config))
    assert code == 2
    assert out == ""
    assert f"error: fano: {message}" in err
    assert "Traceback" not in err


def test_fano_campaign_requires_seed(capsys):
    code, _, _ = run(capsys, "fano", "--instances", "5")
    assert code == 2


# --- malformed documents ----------------------------------------------------

KB2 = {"source": ["a", "b"], "semantic": ["s", "t"], "kernel": [[0.9, 0.1], [0.2, 0.8]]}
MATRIX_CHANNEL = {"inputs": ["0", "1"], "outputs": ["0", "1"], "matrix": [[0.9, 0.1], [0.1, 0.9]]}


def _config(**doc) -> tuple[str, str]:
    return "--config", json.dumps(doc)


def _capacity_of(channel) -> tuple[str, ...]:
    return ("capacity", *_config(channel=channel))


def _simulate_mpsk(**extra) -> tuple[str, ...]:
    channel = {"kind": "mpsk", "order": 2, "snr": 4, **extra}
    return ("simulate", "--n-grid", "8", "--trials", "10", "--seed", "1",
            *_config(channel=channel))


# Each case is the argv tail after the command, built from the path of a
# valid two-source knowledge-base file.
MALFORMED = {
    "probs-words": lambda kb: ("entropy", "--knowledge", kb, "--probs", "a,b"),
    "config-probs-list": lambda kb: ("entropy", *_config(knowledge=KB2, probs=[0.5, "x"])),
    "config-probs-text": lambda kb: ("entropy", *_config(knowledge=KB2, probs="0.5,x")),
    "knowledge-number": lambda kb: ("entropy", *_config(knowledge=5)),
    "kernel-text": lambda kb: ("entropy", "--knowledge", json.dumps({**KB2, "kernel": "q"})),
    "source-number": lambda kb: ("entropy", "--knowledge", json.dumps({**KB2, "source": 5})),
    "kernel-ragged": lambda kb: (
        "entropy", "--knowledge", json.dumps({**KB2, "kernel": [[1], [1, 2]]})),
    "mpsk-no-snr": lambda kb: _capacity_of({"kind": "mpsk", "order": 4}),
    "bsc-p-word": lambda kb: _capacity_of({"kind": "bsc", "p": "x"}),
    "identity-no-order": lambda kb: _capacity_of({"kind": "identity"}),
    "awgn-no-snr": lambda kb: _capacity_of({"kind": "awgn"}),
    "awgn-snr-word": lambda kb: ("capacity", "--channel", "awgn:x"),
    "config-awgn-snr-word": lambda kb: _capacity_of("awgn:x"),
    "matrix-text": lambda kb: _capacity_of({**MATRIX_CHANNEL, "matrix": "x"}),
    "matrix-ragged": lambda kb: _capacity_of({**MATRIX_CHANNEL, "matrix": [[1.0], [0.5, 0.5]]}),
    "inputs-number": lambda kb: _capacity_of({**MATRIX_CHANNEL, "inputs": 5}),
    "mpsk-order-word": lambda kb: _simulate_mpsk(order="x"),
    "mpsk-samples-word": lambda kb: _simulate_mpsk(samples="many"),
    "resolved-spec-list": lambda kb: ("simulate", "--seed", "1", *_config(resolved_spec=[1])),
    "fano-bsc-no-p": lambda kb: (
        "fano", "--single", "--n", "2", "--message-bits", "2", "--semantic-bits", "1",
        *_config(channel={"kind": "bsc"})),
    # A JSON boolean is not a number: true is neither 1 nor 1.0.
    "bsc-p-true": lambda kb: _capacity_of({"kind": "bsc", "p": True}),
    "trials-true": lambda kb: (
        "simulate", "--channel", "bsc:0.05", "--seed", "1",
        *_config(**{"n-grid": [8], "trials": True})),
    "n-grid-true": lambda kb: (
        "simulate", "--channel", "bsc:0.05", "--seed", "1", *_config(**{"n-grid": [True, 8]})),
    "fano-n-true": lambda kb: (
        "fano", *_config(**{**FANO_SINGLE, "n": True, "message-bits": 2, "semantic-bits": 1})),
    # Past CPython's 4300-digit int-to-str limit, json.loads raises a plain ValueError.
    "int-5001-digits": lambda kb: (
        "capacity", "--config", '{"channel": "bsc:0.1", "alpha": 1' + "0" * 5000 + "}"),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_document_exits_2_with_one_error_line(capsys, tmp_path, case):
    kb = tmp_path / "kb.json"
    kb.write_text(json.dumps(KB2))
    code, out, err = run(capsys, *MALFORMED[case](str(kb)))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_channel_sizes_over_the_element_budget_exit_2(capsys, monkeypatch):
    # The budget is lowered to 20000 elements, so that a missing check
    # would still build only small channels.
    monkeypatch.setattr(channels, "CHANNEL_ELEMENT_BUDGET", 2 * channels.MC_MIN_SAMPLES)
    mc = {"kind": "mpsk", "order": 2, "snr": 4, "estimation": "monte-carlo", "seed": 1}
    for argv, what in [
        (("capacity", "--channel", "identity:142"), "identity:142 needs 20164 elements"),
        (_capacity_of({"kind": "identity", "order": 142}), "identity:142 needs 20164 elements"),
        (("capacity", "--channel", "mpsk:142:4"), "order 142 needs 20164 elements"),
        (_capacity_of({**mc, "samples": 10_001}), "10001 samples needs 20002 elements"),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert what in err and "channel budget of 20000" in err
    for argv in [("capacity", "--channel", "identity:141"),
                 _capacity_of({**mc, "samples": 10_000})]:
        code, _, err = run(capsys, *argv)
        assert code == 0, err


def test_mpsk_without_snr_names_the_missing_field(capsys):
    code, _, err = run(capsys, "capacity", "--channel", "mpsk:4")
    assert code == 2
    assert "missing field 'snr'" in err


# Numbers and texts stay small, so a value that happens to be a valid
# identity or M-PSK order builds a small channel and no Monte Carlo
# estimate reaches its sample minimum.
WORDS = st.sampled_from(["", "x", "4", "2", "-1", "0.5", "nan", "inf", "1e-3", "{", "a:b"])
SCALARS = (
    st.none() | st.booleans() | st.integers(-3, 8)
    | st.floats(-10, 10) | st.sampled_from([math.nan, math.inf, -math.inf]) | WORDS
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["kind", "p", "order", "a"]), inner, max_size=3),
    max_leaves=10,
)
CHANNEL_DOCS = st.one_of(
    JSON_VALUES,
    st.builds(
        lambda kind, fields: ":".join([kind, *fields]),
        st.sampled_from([*cli.CHANNEL_FIELDS, "warp"]), st.lists(WORDS, max_size=3),
    ),
    st.fixed_dictionaries(
        {"kind": st.sampled_from([*cli.CHANNEL_FIELDS, "warp"]) | JSON_VALUES},
        optional={k: JSON_VALUES for k in ("p", "order", "snr", "estimation", "samples", "seed")},
    ),
    st.fixed_dictionaries(
        {}, optional={k: JSON_VALUES for k in ("inputs", "outputs", "matrix")},
    ),
)
KB_DOCS = JSON_VALUES | st.fixed_dictionaries(
    {}, optional={k: JSON_VALUES for k in ("source", "semantic", "kernel")},
)


@settings(max_examples=300, deadline=None)
@given(channel=CHANNEL_DOCS, kb=KB_DOCS, labels=JSON_VALUES, probs=JSON_VALUES)
def test_arbitrary_documents_raise_only_semcomm_errors(channel, kb, labels, probs):
    for build in (
        lambda: cli.parse_channel(channel),
        lambda: KnowledgeBase.from_json(kb),
        lambda: KnowledgeBase.from_json(json.dumps(kb)),
        lambda: ProbVector(labels, probs),
    ):
        try:
            build()
        except SemcommError:
            pass


# --- imports ----------------------------------------------------------------

# Runs each step in a fresh interpreter: a list is a CLI argv, the string
# "differential_semantic_entropy" is one library call on a Gaussian/uniform
# kernel. After each step it prints its exit code (0 for the library call) and
# the watched modules (scipy unless told otherwise) loaded so far as one JSON
# line on stderr.
IMPORT_PROBE = """
import json, sys
import numpy
# numpy before 1.25 imports numpy.polynomial itself; only later loads count.
preloaded = set(sys.modules)
import semcomm
import semcomm.cli as cli

def entropy():
    dens = (semcomm.GaussianDensity(0.0, 1.0), semcomm.UniformDensity(-1.0, 2.0))
    kernel = semcomm.ContinuousKernel(("a", "b"), dens, domain=(-40.0, 40.0))
    pv = semcomm.ProbVector(("a", "b"), [0.5, 0.5])
    semcomm.differential_semantic_entropy(pv, kernel)
    return 0

watch, steps = json.loads(sys.argv[1])
for step in steps:
    code = entropy() if step == "differential_semantic_entropy" else cli.main(step)
    loaded = sorted(
        m for m in set(sys.modules) - preloaded
        if any(m == w or m.startswith(w + ".") for w in watch)
    )
    print(json.dumps([code, loaded]), file=sys.stderr)
"""


def _import_probe(*steps, watch=("scipy",)):
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, json.dumps([watch, steps])],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return [json.loads(line) for line in done.stderr.splitlines() if line.startswith("[")]


def test_discrete_commands_import_no_scipy():
    # Nor numpy.polynomial: only the M-PSK rows and differential entropy
    # integrate, and the Gauss-Legendre rule is built on their first use.
    steps = _import_probe(
        ["capacity", "--channel", "bsc:0.1", "--alpha", "0.5"],
        ["fano", "--single", "--channel", "bsc:0.1", "--n", "3", "--message-bits", "4",
         "--semantic-bits", "2"],
        ["fano", "--instances", "20", "--seed", "1"],
        ["simulate", "--channel", "bsc:0.05", "--n-grid", "8", "--trials", "200",
         "--seed", "1"],
        # virtual regime
        ["simulate", "--channel", "bsc:0.05", "--n-grid", "64", "--trials", "200",
         "--seed", "1"],
        watch=("scipy", "numpy.polynomial"),
    )
    assert steps == [[0, []]] * 5


def test_scipy_loads_only_where_it_is_used():
    # The M-PSK rows and differential entropy were the last scipy users; their
    # quadrature is numpy now, so no step may load any scipy module.
    steps = _import_probe(
        ["capacity", "--channel", "mpsk:4:9"],
        ["simulate", "--channel", "mpsk:4:9", "--n-grid", "2", "--trials", "200",
         "--seed", "1"],
        "differential_semantic_entropy",
    )
    assert steps == [[0, []]] * 3


def test_console_script_is_installed():
    import shutil

    assert shutil.which("semcomm") is not None
