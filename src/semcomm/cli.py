"""Command-line experiment driver.

Subcommands: entropy, capacity, simulate, fano. Every command resolves its
parameter record the same way (resolve_spec), in three layers: the
command's defaults table, then the --config document, then every flag
given, so flags beat config on every command. The document is a JSON object
(literal or file), an emitted CSV's "# spec:" line, or a previous JSON
report, whose resolved_spec is taken. Every output embeds the fully
resolved record plus a version string, so feeding a command its own JSON
report (or simulate's CSV) as --config reproduces the data bytes exactly.
Randomized commands refuse to run without a seed unless --ephemeral is
passed, in which case the drawn seed is printed for later reproduction.

Exit codes: 0 success, 2 configuration or input error, 3 numeric or
convergence failure.
"""

from __future__ import annotations

import argparse
import json
import os
import secrets
import sys
from pathlib import Path

import numpy as np

from .capacity import (
    CapacityResult, Dmc, _check_alpha, awgn_capacity, blahut_arimoto,
    semantic_capacity,
)
from .channels import PskConfig, _exceeds, bsc, check_channel_elements, mpsk_hard_dmc
from .coding import (
    DECODERS, PARTITION_SCHEMES, CodeConfig, Codebook, FanoInstance, check_fano,
    check_message_bits, converse_chain, partition_from_counts, run_fano_campaign, simulate,
)
from .errors import ConfigError, NumericError, ValidationError
from .info import ProbVector, entropy, load_json_doc
from .semantics import KnowledgeBase, compression_gain, semantic_distribution, semantic_entropy

ARTIFACT_VERSION = "0.5.0"
CSV_SCHEMA = "semcomm-simulate-v1"
CSV_COLUMNS = ("n", "R", "alpha", "p_sem", "p_sem_lo", "p_sem_hi", "p_msg", "seed")
# Per-grid-point seed derivation: distinct odd stride keeps rows independent
# while the whole grid stays a pure function of the master seed.
SEED_STRIDE = 1_000_003
SEED_MOD = 2**64


def _fmt(v) -> str:
    """Canonical text for CSV cells: repr for floats (round-trip exact)."""
    if isinstance(v, float):
        return repr(v)
    return str(v)


# Builtin channel kinds and their fields, in the order the string form lists
# them: "mpsk:4:9" is the mapping {"kind": "mpsk", "order": "4", "snr": "9"}.
# awgn has no discrete matrix; only capacity accepts it.
CHANNEL_FIELDS = {
    "bsc": ("p",), "identity": ("order",), "mpsk": ("order", "snr"), "awgn": ("snr",),
}


def _channel_fields(spec) -> dict | None:
    """The {"kind": ...} mapping of a builtin channel, given as a mapping or
    as "kind:a:b"; None for a transition-matrix document or file."""
    if isinstance(spec, dict):
        return None if spec.get("kind") is None else spec
    if not isinstance(spec, str):
        raise ConfigError(f"channel: cannot interpret {spec!r}")
    kind, sep, rest = spec.partition(":")
    if not (sep or kind in CHANNEL_FIELDS) or os.path.exists(spec):
        return None
    names = CHANNEL_FIELDS.get(kind, ())
    values = rest.split(":") if sep else []
    if kind not in CHANNEL_FIELDS or len(values) > len(names):
        raise ConfigError(
            f"channel {spec!r}: use bsc:p, identity:order, mpsk:order:snr, awgn:snr or a JSON file"
        )
    return {"kind": kind, **{k: v for k, v in zip(names, values) if v}}


def _channel_field(fields: dict, name: str, read):
    """fields[name] through read (_real or _integer), naming a missing field."""
    kind = fields["kind"]
    if name not in fields:
        raise ConfigError(f"channel {kind}: missing field {name!r}")
    return read(fields[name], f"channel {kind}: {name}")


def parse_channel(spec) -> Dmc:
    """Build a DMC from a channel spec.

    A builtin channel is a mapping {"kind": ..., <fields>} or the string
    "kind:<field>:<field>" with the same fields in order: bsc:p,
    identity:order and mpsk:order:snr (snr linear, not dB). An mpsk mapping
    may also set "estimation" ("analytic" or "monte-carlo"), "samples" and
    "seed". awgn:snr has no discrete matrix and is accepted by capacity
    only. Anything else is a transition-matrix document with "inputs",
    "outputs" and "matrix": a mapping or the path of a JSON file.
    """
    if isinstance(spec, Dmc):
        return spec
    fields = _channel_fields(spec)
    if fields is None:
        return Dmc.from_json(spec)
    kind = fields["kind"]
    if kind == "bsc":
        return bsc(_channel_field(fields, "p", _real))
    if kind == "identity":
        order = _channel_field(fields, "order", _integer)
        check_channel_elements(order * order, f"channel identity:{order}")
        return Dmc.identity(tuple(str(i) for i in range(order)))
    if kind == "mpsk":
        return mpsk_hard_dmc(PskConfig(
            order=_channel_field(fields, "order", _integer),
            snr=_channel_field(fields, "snr", _real),
            estimation=fields.get("estimation", "analytic"),
            samples=_integer(fields.get("samples", 1_000_000), "channel mpsk: samples"),
            seed=fields.get("seed"),
        ))
    if kind == "awgn":
        raise ConfigError("channel awgn: only capacity accepts the awgn channel")
    raise ConfigError(f"channel: unknown kind {kind!r}")


def _integer(value, what: str) -> int:
    """int(value), or ConfigError if it is not a whole number (8.7 is not 8, nor true 1)."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or isinstance(value, bool) or isinstance(value, float) and n != value:
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return n


def _real(value, what: str) -> float:
    """float(value), or ConfigError if it is not a number (true is not 1.0)."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ConfigError(f"{what} must be a number, got {value!r}")


def _require_seed(seed, ephemeral: bool) -> int:
    if seed is not None:
        return _integer(seed, "seed") % SEED_MOD
    if not ephemeral:
        raise ConfigError(
            "this command is randomized: pass --seed for a reproducible run "
            "or --ephemeral to draw one"
        )
    drawn = secrets.randbits(63)
    print(f"# ephemeral seed: {drawn}", file=sys.stderr)
    return drawn


def _spec_from_csv(path: Path):
    """The record on an emitted CSV's '# spec:' line."""
    try:
        with path.open() as fh:
            for line in fh:
                if line.startswith("# spec: "):
                    return json.loads(line[len("# spec: "):])
                if not line.startswith("#"):
                    break
    except (OSError, ValueError) as e:
        raise ConfigError(f"config {path}: {e}") from None
    raise ConfigError(f"config {path}: no '# spec:' header line found")


def resolve_spec(ns, defaults: dict) -> dict:
    """A command's parameter record, in three layers: its defaults table,
    then the --config document, then every flag given.

    The document is a mapping, JSON text or file, an emitted CSV (its
    '# spec:' line) or a previous JSON report (its resolved_spec). A flag's
    argparse dest is its spec key and its default None, so a flag given
    always beats the config. Keys outside the defaults table are ignored.
    """
    spec = dict(defaults)
    config = ns.config
    if config is not None:
        if isinstance(config, str) and config.endswith(".csv") and os.path.exists(config):
            doc = _spec_from_csv(Path(config))
        else:
            doc = load_json_doc(config, "config")
            doc = doc.get("resolved_spec", doc)
        if not isinstance(doc, dict):
            raise ConfigError(f"{ns.command}: the config spec must be a JSON object, got {doc!r}")
        spec.update((k, v) for k, v in doc.items() if k in defaults)
    spec.update((k, v) for k, v in vars(ns).items() if k in defaults and v is not None)
    return spec


def _emit_json(ns, spec: dict, body: dict) -> None:
    """Print the report {artifact_version, resolved_spec, **body}, and write
    the same text to --out when given."""
    report = {"artifact_version": ARTIFACT_VERSION, "resolved_spec": spec, **body}
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if ns.out:
        Path(ns.out).write_text(text + "\n")


# --- entropy ---------------------------------------------------------------

ENTROPY_DEFAULTS = {"knowledge": None, "probs": "uniform"}


def cmd_entropy(ns, spec: dict) -> int:
    if spec["knowledge"] is None:
        raise ConfigError("entropy: provide a knowledge base (--knowledge or config key 'knowledge')")
    kb = KnowledgeBase.from_json(spec["knowledge"])
    probs = spec["probs"]
    if probs == "uniform":
        px = ProbVector.uniform(kb.source_labels)
    else:
        px = ProbVector(kb.source_labels, probs.split(",") if isinstance(probs, str) else probs)
    hx = entropy(px)
    ps = semantic_distribution(px, kb)
    hs = semantic_entropy(px, kb)
    resolved = {
        "knowledge": {
            "source": list(kb.source_labels),
            "semantic": list(kb.semantic_labels),
            "kernel": [list(row) for row in kb.kernel],
        },
        "probs": [float(p) for p in px.probs],
    }
    _emit_json(ns, resolved, {
        "shannon_entropy_bits": hx,
        "semantic_entropy_bits": hs,
        "semantic_distribution": {l: float(p) for l, p in zip(ps.labels, ps.probs)},
        "compression_gain": compression_gain(hx, hs),
    })
    return 0


# --- capacity --------------------------------------------------------------

CAPACITY_DEFAULTS = {"channel": None, "alpha": 1.0}


def cmd_capacity(ns, spec: dict) -> int:
    if spec["channel"] is None:
        raise ConfigError("capacity: provide a channel (--channel or config key 'channel')")
    alpha = _real(spec["alpha"], "capacity: alpha")
    chspec = spec["channel"]
    fields = _channel_fields(chspec)
    kind = None if fields is None else fields["kind"]
    if ns.snr_db is not None:
        if kind not in ("mpsk", "awgn"):
            raise ConfigError("--snr-db applies only to mpsk and awgn channels")
        try:
            fields = dict(fields, snr=10.0 ** (ns.snr_db / 10.0))
        except OverflowError:
            raise ConfigError(f"--snr-db {ns.snr_db!r} is past the float range") from None

    _check_alpha(alpha, "capacity" if kind == "awgn" else "semantic_capacity")
    if kind == "awgn":
        snr = _channel_field(fields, "snr", _real)
        chspec = f"awgn:{snr!r}"
        result = CapacityResult(awgn_capacity(snr), None, 0, 0.0)
    else:
        ch = parse_channel(chspec if fields is None else fields)
        if ns.snr_db is not None:
            chspec = (fields if isinstance(chspec, dict)
                      else f"mpsk:{fields['order']}:{fields['snr']}")
        result = blahut_arimoto(ch, tol=1e-9)
    px = result.optimal_input
    _emit_json(ns, {"channel": chspec, "alpha": alpha}, {
        "capacity_bits": result.capacity,
        "semantic_capacity_bits": result.capacity / alpha,
        "optimal_input": None if px is None else {
            l: float(p) for l, p in zip(px.labels, px.probs)
        },
        "iterations": result.iterations,
        "gap": result.gap,
    })
    return 0


# --- simulate --------------------------------------------------------------

SIMULATE_DEFAULTS = {
    "channel": None,
    "n-grid": [64, 128, 256, 512],
    "rate-fraction": 0.9,
    "alpha": 1.0,
    "partition-scheme": "contiguous",
    "decoder": "ml",
    "trials": 10_000,
    "seed": None,
}


def cmd_simulate(ns, spec: dict) -> int:
    if spec["channel"] is None:
        raise ConfigError("simulate: provide a channel (--channel or config key 'channel')")
    spec["seed"] = _require_seed(spec["seed"], ns.ephemeral)
    if not isinstance(spec["n-grid"], list):
        raise ConfigError(f"simulate: n-grid must be a list, got {spec['n-grid']!r}")
    spec["n-grid"] = [_integer(n, "simulate: n-grid entry") for n in spec["n-grid"]]
    if not spec["n-grid"] or any(n < 1 for n in spec["n-grid"]):
        raise ConfigError(f"simulate: bad n-grid {spec['n-grid']}")
    spec["trials"] = _integer(spec["trials"], "simulate: trials")
    if spec["trials"] < 1:
        raise ConfigError("simulate: trials must be >= 1")

    ch = parse_channel(spec["channel"])
    alpha = _real(spec["alpha"], "simulate: alpha")
    cs = semantic_capacity(ch, alpha, tol=1e-9)
    rate = _real(spec["rate-fraction"], "simulate: rate-fraction") * cs
    px = ProbVector.uniform(ch.input_labels)

    rows = []
    for i, n in enumerate(spec["n-grid"]):
        seed_i = (spec["seed"] + SEED_STRIDE * i) % SEED_MOD
        cfg = CodeConfig(n=int(n), rate=rate, alpha=alpha)
        rep = simulate(
            cfg, spec["partition-scheme"], ch, px, spec["decoder"],
            spec["trials"], seed_i,
        )
        rows.append(
            (int(n), rate, alpha, rep.p_sem, rep.p_sem_lo, rep.p_sem_hi,
             rep.p_msg, seed_i)
        )

    if ns.out and ns.out.endswith(".json"):
        _emit_json(ns, spec, {"rows": [dict(zip(CSV_COLUMNS, row)) for row in rows]})
        return 0
    spec_line = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    lines = [
        f"# {CSV_SCHEMA}",
        f"# version: {ARTIFACT_VERSION}",
        f"# spec: {spec_line}",
        ",".join(CSV_COLUMNS),
    ]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if ns.out:
        Path(ns.out).write_text(text)
        print(f"wrote {len(rows)} rows to {ns.out}")
    else:
        sys.stdout.write(text)
    return 0


# --- fano ------------------------------------------------------------------

FANO_DEFAULTS = {
    "mode": "campaign",
    "instances": 1000,
    "converse": True,
    "seed": None,
    "channel": None,
    "n": None,
    "message-bits": None,
    "semantic-bits": None,
    "partition-scheme": "contiguous",
}


def _digit_codebook(count: int, n: int, base: int) -> Codebook:
    """Codeword i = the n base-`base` digits of i; distinct when count <= base^n."""
    check_channel_elements(count * n, f"fano: {count} codewords of length {n}")
    # base^n words hold count distinct ones unless base^n <= count - 1.
    if not _exceeds(1, n, count - 1, base):
        raise ConfigError(
            f"cannot place {count} distinct codewords in {base}^{n} words"
        )
    idx = np.arange(count, dtype=np.int64)
    digits = np.empty((count, n), dtype=np.int64)
    for j in range(n - 1, -1, -1):
        digits[:, j] = idx % base
        idx = idx // base
    return Codebook(digits, base)


def cmd_fano(ns, spec: dict) -> int:
    if spec["mode"] not in ("single", "campaign"):
        raise ConfigError(f"fano: mode must be 'single' or 'campaign', got {spec['mode']!r}")
    if spec["mode"] == "single":
        for key in ("channel", "n", "message-bits", "semantic-bits"):
            if spec[key] is None:
                raise ConfigError(f"fano --single: missing {key!r}")
        ch = parse_channel(spec["channel"])
        n = _integer(spec["n"], "fano: n")
        mb = _integer(spec["message-bits"], "fano: message-bits")
        sb = _integer(spec["semantic-bits"], "fano: semantic-bits")
        if not (1 <= sb <= mb):
            raise ConfigError(f"fano: need 1 <= semantic-bits <= message-bits, got {sb}/{mb}")
        check_message_bits(mb, "fano")
        scheme = spec["partition-scheme"]
        resolved = {
            "mode": "single",
            "channel": spec["channel"],
            "n": n,
            "message-bits": mb,
            "semantic-bits": sb,
            "partition-scheme": scheme,
        }
        if scheme == "seeded-random":
            resolved["seed"] = _require_seed(spec["seed"], ns.ephemeral)
        partition = partition_from_counts(1 << mb, 1 << sb, scheme, resolved.get("seed"))
        cb = _digit_codebook(1 << sb, n, ch.num_inputs)
        inst = FanoInstance(partition=partition, codebook=cb, channel=ch)
        chk = check_fano(inst)
        chain = converse_chain(inst)
        _emit_json(ns, resolved, {
            "holds": chk.holds,
            "lhs_bits": chk.lhs,
            "rhs_bits": chk.rhs,
            "slack_bits": chk.slack,
            "p_sem": chk.p_sem,
            "alpha": inst.alpha,
            "beta": inst.beta,
            "gamma": inst.gamma,
            "total_bits": inst.total_bits,
            "converse": {
                "identity_gap": chain.identity_gap,
                "i_w_y": chain.i_w_y,
                "i_x_y": chain.i_x_y,
                "n_capacity": chain.n_capacity,
                "holds": chain.holds,
            },
        })
        print(
            f"fano single: lhs {chk.lhs!r} <= rhs {chk.rhs!r} "
            f"(slack {chk.slack!r}) holds={chk.holds}",
            file=sys.stderr,
        )
        return 0

    instances = _integer(spec["instances"], "fano: instances")
    converse = spec["converse"]
    if not isinstance(converse, bool):
        raise ConfigError(f"fano: converse must be true or false, got {converse!r}")
    seed = _require_seed(spec["seed"], ns.ephemeral)
    camp = run_fano_campaign(instances, seed, include_converse=converse)
    resolved = {"mode": "campaign", "instances": instances, "seed": seed, "converse": converse}
    _emit_json(ns, resolved, camp.to_dict())
    print(
        f"fano campaign: {camp.fano_holds}/{instances} hold"
        + (f", converse {camp.converse_holds}/{instances}" if converse else "")
        + f", worst slack {camp.worst_slack!r} (instance {camp.worst_index})",
        file=sys.stderr,
    )
    return 0


# --- parser ----------------------------------------------------------------


def _grid(text: str) -> list[str]:
    """--n-grid's comma-separated blocklengths, checked as integers later."""
    return [t for t in text.split(",") if t.strip()]


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand carries its defaults table; every flag that sets a
    spec key has that key as its dest and None as its default."""
    parser = argparse.ArgumentParser(
        prog="semcomm",
        description="Semantic information measures and semantic channel coding experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, defaults, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func, defaults=defaults)
        p.add_argument("--seed", type=int, default=None, help="master RNG seed")
        p.add_argument("--out", default=None, help="output file path")
        p.add_argument("--config", default=None,
                       help="JSON spec (file or literal), an emitted CSV or a previous JSON report")
        p.add_argument(
            "--ephemeral", action="store_true",
            help="allow running a randomized command without --seed",
        )
        return p

    p = command("entropy", cmd_entropy, ENTROPY_DEFAULTS,
                "semantic and Shannon entropy of a source")
    p.add_argument("--knowledge", default=None, help="knowledge-base JSON file or literal")
    p.add_argument("--probs", default=None, help="comma-separated source probabilities, or 'uniform'")

    p = command("capacity", cmd_capacity, CAPACITY_DEFAULTS,
                "channel capacity and semantic capacity")
    p.add_argument("--channel", default=None,
                   help="bsc:p | identity:order | mpsk:order:snr | awgn:snr | JSON file")
    p.add_argument("--alpha", type=float, default=None, help="semantic fraction in (0, 1]")
    p.add_argument("--snr-db", type=float, default=None, dest="snr_db",
                   help="SNR in dB (mpsk/awgn only; converted to linear)")

    p = command("simulate", cmd_simulate, SIMULATE_DEFAULTS,
                "semantic error-rate sweep over a blocklength grid")
    p.add_argument("--channel", default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--rate-fraction", type=float, default=None, dest="rate-fraction",
                   help="R as a fraction of the semantic capacity")
    p.add_argument("--n-grid", type=_grid, default=None, dest="n-grid",
                   help="comma-separated blocklengths")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--scheme", default=None, choices=PARTITION_SCHEMES, dest="partition-scheme")
    p.add_argument("--decoder", default=None, choices=DECODERS)
    p.add_argument("--threads", type=int, help="accepted and ignored")

    p = command("fano", cmd_fano, FANO_DEFAULTS,
                "verify the semantic Fano bound and converse chain")
    p.add_argument("--instances", type=int, default=None)
    p.add_argument("--no-converse", action="store_false", default=None, dest="converse")
    p.add_argument("--single", action="store_const", const="single", default=None, dest="mode",
                   help="evaluate one explicit instance")
    p.add_argument("--channel", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--message-bits", type=int, default=None, dest="message-bits")
    p.add_argument("--semantic-bits", type=int, default=None, dest="semantic-bits")
    p.add_argument("--scheme", default=None, choices=PARTITION_SCHEMES, dest="partition-scheme")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns, resolve_spec(ns, ns.defaults))
    except (ConfigError, ValidationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        message = str(e)
        best = getattr(e, "best", None)
        if isinstance(best, CapacityResult):
            message += (f" (best so far: capacity {best.capacity!r} after "
                        f"{best.iterations} iterations, gap {e.gap!r})")
        print(f"error: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
