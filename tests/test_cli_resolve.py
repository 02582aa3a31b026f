"""The CLI's one spec resolver: defaults, then --config, then flags.

Every command reruns byte-for-byte from its own JSON report, a flag given
beats the config on every command, and no flag can set a spec key without
going through the resolver.
"""

import argparse
import json

import pytest

import semcomm.cli as cli
import semcomm.coding as coding
from semcomm import ConvergenceError, ProbVector, ValidationError, bsc
from semcomm.capacity import CapacityResult
from semcomm.coding import CodeConfig, make_partition, partition_from_counts
from semcomm.errors import BudgetError

KB = {
    "source": ["alice", "bob", "cindy"],
    "semantic": ["s1", "s2"],
    "kernel": [[0.9, 0.1], [0.8, 0.2], [0.5, 0.5]],
}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def resolved(capsys, *argv) -> dict:
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)["resolved_spec"]


@pytest.mark.parametrize("argv", [
    ("entropy", "--knowledge", json.dumps(KB), "--probs", "0.25,0.5,0.25"),
    ("capacity", "--channel", "bsc:0.1", "--alpha", "0.5"),
    ("capacity", "--channel", "mpsk:4", "--snr-db", "9.5"),
    ("capacity", "--channel", "awgn:63"),
    ("fano", "--single", "--channel", "bsc:0.1", "--n", "3", "--message-bits", "4",
     "--semantic-bits", "2"),
    ("fano", "--instances", "5", "--seed", "3"),
], ids=["entropy", "capacity-bsc", "capacity-mpsk-db", "capacity-awgn", "fano-single",
        "fano-campaign"])
def test_every_command_reruns_from_its_own_report(capsys, tmp_path, argv):
    report = tmp_path / "r.json"
    code, first, err = run(capsys, *argv, "--out", str(report))
    assert code == 0, err
    assert report.read_text() == first
    code, again, err = run(capsys, argv[0], "--config", str(report))
    assert code == 0, err
    assert again == first


def test_flags_beat_config_on_every_command(capsys):
    spec = resolved(capsys, "fano", "--config", '{"seed": 1, "instances": 3}', "--seed", "2")
    assert spec["seed"] == 2
    spec = resolved(capsys, "capacity", "--config", '{"channel": "bsc:0.1", "alpha": 0.5}',
                    "--alpha", "0.25")
    assert spec["alpha"] == 0.25
    spec = resolved(capsys, "entropy", "--config",
                    json.dumps({"knowledge": KB, "probs": [0.5, 0.25, 0.25]}),
                    "--probs", "0.25,0.5,0.25")
    assert spec["probs"] == [0.25, 0.5, 0.25]
    for converse in (True, "yes"):
        config = json.dumps({"instances": 3, "seed": 1, "converse": converse})
        spec = resolved(capsys, "fano", "--config", config, "--no-converse")
        assert spec["converse"] is False


# argparse dests that are not spec keys: they steer a run (where its report
# goes, whether a seed may be drawn) or, for --snr-db, rewrite the channel.
NON_SPEC = {"help", "config", "out", "ephemeral", "threads", "snr_db"}


def test_every_flag_sets_a_spec_key_through_the_resolver():
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == {"entropy", "capacity", "simulate", "fano"}
    for name, sub in commands.choices.items():
        defaults = sub.get_default("defaults")
        for action in sub._actions:
            if action.dest in defaults:
                # None marks "not given", so only a flag given overrides the config.
                assert action.default is None, (name, action.dest)
            else:
                assert action.dest in NON_SPEC | {"seed"}, (name, action.dest)


def test_config_that_is_not_an_object_exits_2(capsys):
    for doc in ('{"resolved_spec": 5}', '{"resolved_spec": "bsc:0.1"}'):
        code, out, err = run(capsys, "capacity", "--config", doc)
        assert (code, out) == (2, "")
        assert err.startswith("error: capacity: the config spec must be a JSON object")


def test_convergence_failure_reports_the_best_iterate(capsys, monkeypatch):
    best = CapacityResult(0.5, ProbVector(("0", "1"), [0.5, 0.5]), 7, 0.25)

    def stall(ch, tol=1e-9):
        raise ConvergenceError("no convergence", best=best, gap=0.25)

    monkeypatch.setattr(cli, "blahut_arimoto", stall)
    code, out, err = run(capsys, "capacity", "--channel", "bsc:0.1")
    assert (code, out) == (3, "")
    assert err == (
        "error: no convergence (best so far: capacity 0.5 after 7 iterations, gap 0.25)\n"
    )


# --- numbers past the float range -----------------------------------------


def test_simulate_rate_past_the_float_range_exits_2(capsys):
    code, out, err = run(capsys, "simulate", "--channel", "bsc:0.05", "--seed", "1",
                         "--n-grid", "8", "--trials", "10", "--rate-fraction", "1e308")
    assert (code, out) == (2, "")
    assert "n * rate = inf is not finite" in err
    assert "Traceback" not in err


def test_code_config_rejects_an_infinite_bit_count():
    with pytest.raises(ValidationError, match="n \\* rate = inf is not finite"):
        CodeConfig(n=8, rate=1e308, alpha=1.0)
    with pytest.raises(ValidationError, match="n \\* rate = inf is not finite"):
        CodeConfig(n=10**400, rate=1.0, alpha=1.0)


def test_snr_db_past_the_float_range_exits_2_with_one_error_line(capsys):
    code, out, err = run(capsys, "capacity", "--channel", "mpsk:4", "--snr-db", "1e6")
    assert (code, out) == (2, "")
    assert err.startswith("error: --snr-db ") and err.count("\n") == 1
    assert "Traceback" not in err


# --- partition cap before the message count -------------------------------


def test_partition_cap_is_checked_before_forming_the_message_count(monkeypatch):
    def unreadable(self):
        pytest.fail("2^message_bits was formed")

    monkeypatch.setattr(CodeConfig, "message_count", property(unreadable))
    with pytest.raises(BudgetError, match="2\\^30000000000 messages"):
        make_partition(CodeConfig(n=1, rate=3e10, alpha=1.0))
    # A small partition handed to a config with a huge message set is a
    # mismatch, found from the bit counts alone.
    huge = CodeConfig(n=1, rate=3e10, alpha=1e-10)
    part = partition_from_counts(8, 8)
    ch = bsc(0.1)
    with pytest.raises(ValidationError, match="does not match"):
        coding.simulate(huge, "contiguous", ch, ProbVector.uniform(ch.input_labels), "ml",
                        10, 1, partition=part)
