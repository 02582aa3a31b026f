"""Command-line experiment driver.

Subcommands: entropy, capacity, simulate, fano. Every run's output embeds
the fully resolved parameter record (defaults filled) plus a version string,
so rerunning with the embedded record reproduces the data bytes exactly.
Randomized commands refuse to run without --seed unless --ephemeral is
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
    FULL_CODEBOOK_CAP, CodeConfig, Codebook, FanoInstance, check_fano,
    converse_chain, partition_from_counts, run_fano_campaign, simulate,
)
from .errors import ConfigError, ConvergenceError, NumericError, ValidationError
from .info import ProbVector, entropy, load_json_doc
from .semantics import KnowledgeBase, compression_gain, semantic_distribution, semantic_entropy

ARTIFACT_VERSION = "0.1.0"
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


def _load_config(path_or_json: str | None) -> dict:
    if path_or_json is None:
        return {}
    doc = load_json_doc(path_or_json, "config")
    return dict(doc)


def _integer(value, what: str) -> int:
    """int(value), or ConfigError if it is not a whole number (8.7 is not 8)."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what} must be an integer, got {value!r}") from None
    if isinstance(value, float) and n != value:
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return n


def _real(value, what: str) -> float:
    """float(value), or ConfigError if it is not a number."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what} must be a number, got {value!r}") from None


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


def _emit_json(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if out:
        Path(out).write_text(text + "\n")


# --- entropy ---------------------------------------------------------------


def cmd_entropy(ns) -> int:
    cfg = _load_config(ns.config)
    if ns.knowledge is not None:
        cfg["knowledge"] = ns.knowledge
    if ns.probs is not None:
        cfg["probs"] = ns.probs
    if "knowledge" not in cfg:
        raise ConfigError("entropy: provide a knowledge base (--knowledge or config key 'knowledge')")
    kb = KnowledgeBase.from_json(cfg["knowledge"])
    probs = cfg.get("probs", "uniform")
    if probs == "uniform":
        px = ProbVector.uniform(kb.source_labels)
    else:
        px = ProbVector(kb.source_labels, probs.split(",") if isinstance(probs, str) else probs)
    hx = entropy(px)
    ps = semantic_distribution(px, kb)
    hs = semantic_entropy(px, kb)
    gain = compression_gain(hx, hs)
    report = {
        "artifact_version": ARTIFACT_VERSION,
        "resolved_spec": {
            "knowledge": {
                "source": list(kb.source_labels),
                "semantic": list(kb.semantic_labels),
                "kernel": [list(row) for row in kb.kernel],
            },
            "probs": [float(p) for p in px.probs],
        },
        "shannon_entropy_bits": hx,
        "semantic_entropy_bits": hs,
        "semantic_distribution": {l: float(p) for l, p in zip(ps.labels, ps.probs)},
        "compression_gain": gain,
    }
    _emit_json(report, ns.out)
    return 0


# --- capacity --------------------------------------------------------------


def cmd_capacity(ns) -> int:
    cfg = _load_config(ns.config)
    if ns.channel is not None:
        cfg["channel"] = ns.channel
    if ns.alpha is not None:
        cfg["alpha"] = ns.alpha
    if "channel" not in cfg:
        raise ConfigError("capacity: provide a channel (--channel or config key 'channel')")
    alpha = _real(cfg.get("alpha", 1.0), "capacity: alpha")
    chspec = cfg["channel"]
    fields = _channel_fields(chspec)
    kind = None if fields is None else fields["kind"]
    if ns.snr_db is not None:
        if kind not in ("mpsk", "awgn"):
            raise ConfigError("--snr-db applies only to mpsk and awgn channels")
        fields = dict(fields, snr=10.0 ** (ns.snr_db / 10.0))

    _check_alpha(alpha, "capacity" if kind == "awgn" else "semantic_capacity")
    if kind == "awgn":
        snr = _channel_field(fields, "snr", _real)
        cap = awgn_capacity(snr)
        report = {
            "artifact_version": ARTIFACT_VERSION,
            "resolved_spec": {"channel": f"awgn:{snr!r}", "alpha": alpha},
            "capacity_bits": cap,
            "semantic_capacity_bits": cap / alpha,
            "optimal_input": None,
            "iterations": 0,
            "gap": 0.0,
        }
        _emit_json(report, ns.out)
        return 0

    ch = parse_channel(chspec if fields is None else fields)
    if ns.snr_db is not None:
        chspec = fields if isinstance(chspec, dict) else f"mpsk:{fields['order']}:{fields['snr']}"
    try:
        result = blahut_arimoto(ch, tol=1e-9)
    except ConvergenceError as e:
        best = e.best
        if isinstance(best, CapacityResult):
            print(
                f"error: {e} (best so far: capacity {best.capacity!r} after "
                f"{best.iterations} iterations, gap {e.gap!r})",
                file=sys.stderr,
            )
        else:
            print(f"error: {e}", file=sys.stderr)
        return 3
    report = {
        "artifact_version": ARTIFACT_VERSION,
        "resolved_spec": {"channel": chspec, "alpha": alpha},
        "capacity_bits": result.capacity,
        "semantic_capacity_bits": result.capacity / alpha,
        "optimal_input": {
            l: float(p)
            for l, p in zip(result.optimal_input.labels, result.optimal_input.probs)
        },
        "iterations": result.iterations,
        "gap": result.gap,
    }
    _emit_json(report, ns.out)
    return 0


# --- simulate --------------------------------------------------------------

SIMULATE_DEFAULTS = {
    "n-grid": [64, 128, 256, 512],
    "rate-fraction": 0.9,
    "alpha": 1.0,
    "partition-scheme": "contiguous",
    "decoder": "ml",
    "trials": 10_000,
}


def _spec_from_csv(path: Path) -> dict | None:
    try:
        with path.open() as fh:
            for line in fh:
                if line.startswith("# spec: "):
                    return json.loads(line[len("# spec: "):])
                if not line.startswith("#"):
                    break
    except (OSError, ValueError) as e:
        raise ConfigError(f"config {path}: {e}") from None
    return None


def resolve_simulate_spec(ns) -> dict:
    """Merge defaults, config file (raw spec, JSON report, or emitted CSV),
    and flag overrides into the fully resolved experiment record."""
    raw: dict = {}
    if ns.config is not None:
        p = Path(ns.config)
        if p.exists() and p.suffix == ".csv":
            raw = _spec_from_csv(p)
            if raw is None:
                raise ConfigError(f"config {p}: no '# spec:' header line found")
        else:
            raw = _load_config(ns.config)
            raw = raw.get("resolved_spec", raw)  # a previous JSON report
        if not isinstance(raw, dict):
            raise ConfigError(f"simulate: the config spec must be a JSON object, got {raw!r}")
    spec = dict(SIMULATE_DEFAULTS)
    spec.update(raw)
    if ns.channel is not None:
        spec["channel"] = ns.channel
    if ns.alpha is not None:
        spec["alpha"] = float(ns.alpha)
    if ns.rate_fraction is not None:
        spec["rate-fraction"] = float(ns.rate_fraction)
    if ns.trials is not None:
        spec["trials"] = int(ns.trials)
    if ns.scheme is not None:
        spec["partition-scheme"] = ns.scheme
    if ns.decoder is not None:
        spec["decoder"] = ns.decoder
    if ns.n_grid is not None:
        spec["n-grid"] = [t for t in ns.n_grid.split(",") if t.strip()]
    if ns.seed is not None:
        spec["seed"] = int(ns.seed)
    if "channel" not in spec:
        raise ConfigError("simulate: provide a channel (--channel or config key 'channel')")
    spec["seed"] = _require_seed(spec.get("seed"), ns.ephemeral)
    if not isinstance(spec["n-grid"], list):
        raise ConfigError(f"simulate: n-grid must be a list, got {spec['n-grid']!r}")
    spec["n-grid"] = [_integer(n, "simulate: n-grid entry") for n in spec["n-grid"]]
    if not spec["n-grid"] or any(n < 1 for n in spec["n-grid"]):
        raise ConfigError(f"simulate: bad n-grid {spec['n-grid']}")
    spec["trials"] = _integer(spec["trials"], "simulate: trials")
    if spec["trials"] < 1:
        raise ConfigError("simulate: trials must be >= 1")
    ordered = {
        k: spec[k]
        for k in (
            "channel", "n-grid", "rate-fraction", "alpha",
            "partition-scheme", "decoder", "trials", "seed",
        )
    }
    return ordered


def cmd_simulate(ns) -> int:
    spec = resolve_simulate_spec(ns)
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

    spec_line = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    lines = [
        f"# {CSV_SCHEMA}",
        f"# version: {ARTIFACT_VERSION}",
        f"# spec: {spec_line}",
        ",".join(CSV_COLUMNS),
    ]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"

    if ns.out and ns.out.endswith(".json"):
        report = {
            "artifact_version": ARTIFACT_VERSION,
            "resolved_spec": spec,
            "rows": [dict(zip(CSV_COLUMNS, row)) for row in rows],
        }
        _emit_json(report, ns.out)
    elif ns.out:
        Path(ns.out).write_text(text)
        print(f"wrote {len(rows)} rows to {ns.out}")
    else:
        sys.stdout.write(text)
    return 0


# --- fano ------------------------------------------------------------------


def _digit_codebook(count: int, n: int, base: int) -> Codebook:
    """Codeword i = the n base-`base` digits of i; distinct when count <= base^n."""
    check_channel_elements(count * n, f"fano: {count} codewords of length {n}")
    # With base >= 2, base^n > count once n reaches count's bit length.
    if count > base ** min(n, count.bit_length()):
        raise ConfigError(
            f"cannot place {count} distinct codewords in {base}^{n} words"
        )
    idx = np.arange(count, dtype=np.int64)
    digits = np.empty((count, n), dtype=np.int64)
    for j in range(n - 1, -1, -1):
        digits[:, j] = idx % base
        idx = idx // base
    return Codebook(digits, base, provenance={"kind": "digits"})


def cmd_fano(ns) -> int:
    cfg = _load_config(ns.config)
    single = ns.single or cfg.get("mode") == "single"
    if single:
        for key, flag in (
            ("channel", ns.channel), ("n", ns.n),
            ("message-bits", ns.message_bits), ("semantic-bits", ns.semantic_bits),
        ):
            if flag is not None:
                cfg[key] = flag
        if ns.scheme is not None:
            cfg["partition-scheme"] = ns.scheme
        for key in ("channel", "n", "message-bits", "semantic-bits"):
            if key not in cfg:
                raise ConfigError(f"fano --single: missing {key!r}")
        ch = parse_channel(cfg["channel"])
        n = _integer(cfg["n"], "fano: n")
        mb = _integer(cfg["message-bits"], "fano: message-bits")
        sb = _integer(cfg["semantic-bits"], "fano: semantic-bits")
        if not (1 <= sb <= mb):
            raise ConfigError(f"fano: need 1 <= semantic-bits <= message-bits, got {sb}/{mb}")
        if _exceeds(1, mb, FULL_CODEBOOK_CAP):
            raise ConfigError(f"fano: 2^{mb} messages exceed the {FULL_CODEBOOK_CAP} cap")
        scheme = cfg.get("partition-scheme", "contiguous")
        part_seed = cfg.get("seed", ns.seed)
        if scheme == "seeded-random":
            part_seed = _require_seed(part_seed, ns.ephemeral)
        partition = partition_from_counts(1 << mb, 1 << sb, scheme, part_seed)
        cb = _digit_codebook(1 << sb, n, ch.num_inputs)
        inst = FanoInstance(partition=partition, codebook=cb, channel=ch)
        chk = check_fano(inst)
        chain = converse_chain(inst)
        resolved = {
            "mode": "single",
            "channel": cfg["channel"],
            "n": n,
            "message-bits": mb,
            "semantic-bits": sb,
            "partition-scheme": scheme,
        }
        if scheme == "seeded-random":
            resolved["seed"] = part_seed
        report = {
            "artifact_version": ARTIFACT_VERSION,
            "resolved_spec": resolved,
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
        }
        _emit_json(report, ns.out)
        print(
            f"fano single: lhs {chk.lhs!r} <= rhs {chk.rhs!r} "
            f"(slack {chk.slack!r}) holds={chk.holds}",
            file=sys.stderr,
        )
        return 0

    instances = _integer(
        ns.instances if ns.instances is not None else cfg.get("instances", 1000), "fano: instances"
    )
    converse = cfg.get("converse", True)
    if not isinstance(converse, bool):
        raise ConfigError(f"fano: converse must be true or false, got {converse!r}")
    converse = converse and not ns.no_converse
    seed = _require_seed(cfg.get("seed", ns.seed), ns.ephemeral)
    camp = run_fano_campaign(instances, seed, include_converse=converse)
    report = {
        "artifact_version": ARTIFACT_VERSION,
        "resolved_spec": {"mode": "campaign", "instances": instances,
                          "seed": seed, "converse": converse},
    }
    report.update(camp.to_dict())
    _emit_json(report, ns.out)
    print(
        f"fano campaign: {camp.fano_holds}/{instances} hold"
        + (f", converse {camp.converse_holds}/{instances}" if converse else "")
        + f", worst slack {camp.worst_slack!r} (instance {camp.worst_index})",
        file=sys.stderr,
    )
    return 0


# --- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semcomm",
        description="Semantic information measures and semantic channel coding experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p):
        p.add_argument("--seed", type=int, default=None, help="master RNG seed")
        p.add_argument("--out", default=None, help="output file path")
        p.add_argument("--config", default=None, help="JSON config file or literal JSON")
        p.add_argument(
            "--ephemeral", action="store_true",
            help="allow running a randomized command without --seed",
        )

    p = sub.add_parser("entropy", help="semantic and Shannon entropy of a source")
    shared(p)
    p.add_argument("--knowledge", default=None, help="knowledge-base JSON file or literal")
    p.add_argument("--probs", default=None, help="comma-separated source probabilities, or 'uniform'")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("capacity", help="channel capacity and semantic capacity")
    shared(p)
    p.add_argument("--channel", default=None,
                   help="bsc:p | identity:order | mpsk:order:snr | awgn:snr | JSON file")
    p.add_argument("--alpha", type=float, default=None, help="semantic fraction in (0, 1]")
    p.add_argument("--snr-db", type=float, default=None, dest="snr_db",
                   help="SNR in dB (mpsk/awgn only; converted to linear)")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("simulate", help="semantic error-rate sweep over a blocklength grid")
    shared(p)
    p.add_argument("--channel", default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--rate-fraction", type=float, default=None, dest="rate_fraction",
                   help="R as a fraction of the semantic capacity")
    p.add_argument("--n-grid", default=None, dest="n_grid", help="comma-separated blocklengths")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--scheme", default=None, choices=("contiguous", "interleaved", "seeded-random"))
    p.add_argument("--decoder", default=None, choices=("ml", "typicality"))
    p.add_argument("--threads", type=int, help="accepted and ignored")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fano", help="verify the semantic Fano bound and converse chain")
    shared(p)
    p.add_argument("--instances", type=int, default=None)
    p.add_argument("--no-converse", action="store_true", dest="no_converse")
    p.add_argument("--single", action="store_true", help="evaluate one explicit instance")
    p.add_argument("--channel", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--message-bits", type=int, default=None, dest="message_bits")
    p.add_argument("--semantic-bits", type=int, default=None, dest="semantic_bits")
    p.add_argument("--scheme", default=None, choices=("contiguous", "interleaved", "seeded-random"))
    p.set_defaults(func=cmd_fano)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except (ConfigError, ValidationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
