"""Operator pipeline: classify, train, generate, evaluate, and helpers.

Every command resolves a full configuration (defaults < config file <
SIXGAN_* environment variables < flags), runs, and returns the files it
read and wrote; `main` then writes a manifest recording the resolved
config, the seed, and SHA-256 hashes of every input and output artifact.
No silent defaults: the manifest carries every field.  Exit codes: 0
success, 2 configuration error or malformed input, 3 training divergence.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import glob
import hashlib
import json
import logging
import math
import os
import sys

import numpy as np

from . import __version__, nn
from .addr import (
    AliasTrie,
    NybbleSeq,
    load_alias_file,
    load_seed_file,
    write_address_file,
)
from .alias import filter_aliased
from .classify import (
    classify_entropy,
    classify_ipv62vec,
    classify_rfc_corpus,
    read_labels_file,
    write_labels_file,
)
from .fileio import atomic_write
from .gan import (
    DiscriminatorModel,
    GeneratorModel,
    RewardConfig,
    TrainSchedule,
    generate_candidates,
    train_6gan,
)
from .metrics import CandidateSet, allocate_budget, evaluate, write_report_files
from .nn import CnnParams, DivergenceError, LstmParams
from .oracle import UniverseOracle, UniverseSpec, sample_seeds

log = logging.getLogger("sixgan.cli")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3

ENV_PREFIX = "SIXGAN_"

DEFAULTS: dict = {
    "seed": 0,
    "seeds_file": None,
    "alias_file": None,
    "spec_file": None,
    "labels_file": None,
    "gold_labels_file": None,
    "out_dir": ".",
    "method": "rfc",
    "k": None,
    "fp_prefix_len": 8,
    "min_group": 10,
    "n_seeds": 2000,
    "budget": 1000,
    "rates": None,
    "reward": dataclasses.asdict(RewardConfig()),
    "schedule": dataclasses.asdict(TrainSchedule()),
    "nn": {"embed_dim": 200, "hidden_dim": 200, "n_filters": 32, "lr_gen": 1e-3, "lr_disc": 1e-4},
}

_SECTIONS = ("reward", "schedule", "nn")

# The type of each key whose default is None (the file keys are strings);
# such a key also takes null.  Every other key takes its default's type.
_OPTIONAL = {"k": int, "rates": list}
_NUMBER = (int, float)
_TAKES = {  # what a key of each type takes: a float key also takes an integer
    int: ("an integer", lambda v: type(v) is int),
    float: ("a number", lambda v: type(v) in _NUMBER),
    str: ("a string", lambda v: type(v) is str),
    list: ("a list of numbers", lambda v: type(v) is list and all(type(x) in _NUMBER for x in v)),
}

# the range of each bounded integer key
_RANGES = {"n_seeds": (1, math.inf), "budget": (0, math.inf), "k": (1, math.inf),
           "min_group": (1, math.inf), "fp_prefix_len": (1, 32)}

_Files = tuple[list[str], list[str]]  # what a command read and what it wrote


class ConfigError(Exception):
    """A problem with the resolved configuration or its input files."""


# ---------------------------------------------------------------------------
# Configuration resolution
# ---------------------------------------------------------------------------


def _type_of(key: str, default) -> type:
    return _OPTIONAL.get(key, str) if default is None else type(default)


def _merge(base: dict, over: dict, defaults: dict = DEFAULTS, path: str = "") -> dict:
    """base updated from over, each value checked against the type of its default."""
    out = copy.deepcopy(base)
    for key, val in over.items():
        where = f"{path}{key}"
        if key not in defaults:
            raise ConfigError(f"unknown config key: {where}")
        default = defaults[key]
        if isinstance(default, dict):
            if not isinstance(val, dict):
                raise ConfigError(f"config key {where} must be a section")
            out[key] = _merge(out[key], val, default, where + ".")
            continue
        what, takes = _TAKES[_type_of(key, default)]
        if not (takes(val) or (val is None and default is None)):
            raise ConfigError(f"config key {where} must be {what}, got {json.dumps(val)}")
        out[key] = val
    return out


def _env_overrides(environ: dict) -> dict:
    """SIXGAN_* variables as config overrides.

    A string key (a file, out_dir, method) takes the raw value; any other
    key takes the value parsed as JSON, or the raw string if it is not
    JSON, which _merge then refuses with the key's name.
    """
    over: dict = {}
    for name, raw in sorted(environ.items()):
        if not name.startswith(ENV_PREFIX):
            continue
        key = name[len(ENV_PREFIX):].lower()
        into, defaults = over, DEFAULTS
        for section in _SECTIONS:
            if key.startswith(section + "_"):
                into, defaults = over.setdefault(section, {}), DEFAULTS[section]
                key = key[len(section) + 1:]
                break
        value = raw
        if _type_of(key, defaults.get(key)) is not str:
            try:
                value = json.loads(raw)
            except json.JSONDecodeError:
                pass
        into[key] = value
    return over


def resolve_config(args: argparse.Namespace, environ: dict | None = None) -> dict:
    cfg = copy.deepcopy(DEFAULTS)
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as err:
            raise ConfigError(f"cannot read config file: {err}") from err
        except json.JSONDecodeError as err:
            raise ConfigError(f"config file is not valid JSON: {err}") from err
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
        cfg = _merge(cfg, doc)
    cfg = _merge(cfg, _env_overrides(environ if environ is not None else dict(os.environ)))
    flag_map = {
        "seed": "seed",
        "budget": "budget",
        "method": "method",
        "k": "k",
        "spec": "spec_file",
        "out": "out_dir",
    }
    for flag, key in flag_map.items():
        val = getattr(args, flag, None)
        if val is not None:
            cfg[key] = val
    if getattr(args, "rates", None) is not None:
        try:
            cfg["rates"] = [float(r) for r in args.rates.split(",")]
        except ValueError as err:
            raise ConfigError(f"--rates must be a CSV of numbers: {err}") from err
    if cfg["method"] not in ("rfc", "entropy", "ipv62vec"):
        raise ConfigError(f"unknown method {cfg['method']!r}")
    for key, (lo, hi) in _RANGES.items():
        val = cfg[key]
        if val is not None and not lo <= val <= hi:
            bound = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
            raise ConfigError(f"config key {key} must be {bound}, got {val}")
    return cfg


def _require(cfg: dict, key: str, why: str) -> str:
    if not cfg.get(key):
        raise ConfigError(f"config key {key!r} is required {why}")
    return cfg[key]


def _require_file(path: str, what: str) -> str:
    if not os.path.isfile(path):
        raise ConfigError(f"{what} not found: {path}")
    return path


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(cfg: dict, command: str, inputs: list[str], outputs: list[str]) -> str:
    doc = {
        "command": command,
        "config": cfg,
        "inputs": {os.path.basename(p): _sha256(p) for p in sorted(set(inputs))},
        "outputs": {os.path.basename(p): _sha256(p) for p in sorted(set(outputs))},
        "versions": {"sixgan": __version__, "numpy": np.__version__},
    }
    path = os.path.join(cfg["out_dir"], f"manifest_{command}.json")
    with atomic_write(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _ensure_out(cfg: dict) -> str:
    out = cfg["out_dir"]
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Checkpoint helpers
# ---------------------------------------------------------------------------


def _generator_ckpt(out: str, i: int) -> str:
    return os.path.join(out, f"generator_{i:02d}.ckpt")


def _disc_ckpt(out: str) -> str:
    return os.path.join(out, "discriminator.ckpt")


def _labels_path(cfg: dict) -> str:
    return cfg.get("labels_file") or os.path.join(cfg["out_dir"], "labels.tsv")


def _save_checkpoint(path: str, params, meta: str, value: int) -> None:
    """params' tensors and the integer value as the meta tensor."""
    nn.save_checkpoint(path, {**params.tensors(), meta: np.array([float(value)])})


def _read_checkpoint(path: str, cls, meta: str) -> tuple:
    """A checkpoint's parameters and its meta value, one finite integer; errors name path."""
    tensors = nn.load_checkpoint(path)
    try:
        if meta not in tensors:
            raise ValueError(f"missing tensor {meta}")
        value = tensors[meta].reshape(-1)
        if value.size != 1 or not float(value[0]).is_integer():
            got = value[0] if value.size == 1 else f"{value.size} values"
            raise ValueError(f"tensor {meta} must hold one finite integer, got {got}")
        return cls.from_tensors(tensors), int(value[0])
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


# ---------------------------------------------------------------------------
# Commands: each takes the resolved config and the parsed arguments, and
# returns the paths of its input and output files for the manifest
# ---------------------------------------------------------------------------


def cmd_synth(cfg: dict, args: argparse.Namespace) -> _Files:
    spec_path = _require_file(_require(cfg, "spec_file", "for synth"), "universe spec")
    spec = UniverseSpec.load(spec_path)
    oracle = UniverseOracle(spec)
    out = _ensure_out(cfg)
    rng = np.random.default_rng(np.random.SeedSequence([cfg["seed"], 0]))
    seeds = sample_seeds(oracle, cfg["n_seeds"], rng)

    seeds_path = os.path.join(out, "seeds.txt")
    alias_path = os.path.join(out, "aliased_prefixes.txt")
    universe_path = os.path.join(out, "universe.json")
    write_address_file(seeds_path, seeds, header="active non-aliased seeds")
    with atomic_write(alias_path, "w", encoding="utf-8") as fh:
        fh.write("# aliased prefixes\n")
        for p in spec.aliased_prefixes:
            fh.write(f"{p}\n")
    spec.save(universe_path)
    print(f"wrote {len(seeds)} seeds to {seeds_path}")
    print(f"wrote {len(spec.aliased_prefixes)} aliased prefixes to {alias_path}")
    return [spec_path], [seeds_path, alias_path, universe_path]


def cmd_classify(cfg: dict, args: argparse.Namespace) -> _Files:
    seeds_path = _require_file(_require(cfg, "seeds_file", "for classify"), "seeds file")
    seeds = load_seed_file(seeds_path)
    if not seeds:
        raise ConfigError(f"seeds file {seeds_path} is empty")
    method = cfg["method"]
    if method == "rfc":
        corpus = classify_rfc_corpus(seeds)
    elif method == "entropy":
        if not cfg["k"]:
            raise ConfigError("entropy classification requires --k")
        try:
            corpus = classify_entropy(
                seeds, cfg["k"], fp_prefix_len=cfg["fp_prefix_len"],
                seed=cfg["seed"], min_group=cfg["min_group"],
            )
        except ValueError as err:
            raise ConfigError(str(err)) from err
    else:
        corpus = classify_ipv62vec(seeds, target_k=cfg["k"] or None, seed=cfg["seed"])
    _ensure_out(cfg)
    labels_path = _labels_path(cfg)
    write_labels_file(labels_path, corpus)
    counts = corpus.class_counts()
    print(f"{len(seeds)} seeds -> {corpus.k} classes ({method})")
    for cid, count in enumerate(counts):
        name = corpus.labels[corpus.class_index[cid][0]].class_name
        print(f"  class {cid} ({name}): {count}")
    return [seeds_path], [labels_path]


def cmd_train(cfg: dict, args: argparse.Namespace) -> _Files:
    labels_path = _require_file(_labels_path(cfg), "labels file")
    corpus = read_labels_file(labels_path)
    trie = None
    inputs = [labels_path]
    if cfg.get("alias_file"):
        alias_path = _require_file(cfg["alias_file"], "alias prefix file")
        trie = AliasTrie(load_alias_file(alias_path))
        inputs.append(alias_path)
    reward = RewardConfig(**cfg["reward"])
    schedule = TrainSchedule(**cfg["schedule"])
    out = _ensure_out(cfg)

    last_saved = None  # round of the checkpoints on disk; -1 is after pretraining

    def save_all(rnd: int, gens: list[GeneratorModel], disc: DiscriminatorModel) -> None:
        nonlocal last_saved
        for g in gens:
            _save_checkpoint(
                _generator_ckpt(out, g.pattern_id), g.params, "meta_pattern_id", g.pattern_id
            )
        _save_checkpoint(_disc_ckpt(out), disc.params, "meta_k", disc.k)
        last_saved = rnd

    log_path = os.path.join(out, "train_log.jsonl")
    with open(log_path, "w", encoding="utf-8") as log_fh:  # streamed: kept on exit 3
        try:
            generators, disc, records = train_6gan(
                corpus, trie, reward, schedule, seed=cfg["seed"], **cfg["nn"],
                on_round=save_all,
                on_record=lambda rec: print(
                    json.dumps(rec, sort_keys=True), file=log_fh, flush=True
                ),
            )
        except DivergenceError as err:
            if last_saved is None:
                kept = f"no checkpoint was written; any checkpoint in {out} is from an earlier run"
            else:
                when = "pretraining" if last_saved < 0 else f"adversarial round {last_saved}"
                kept = f"last finite checkpoint retained in {out}: after {when}"
            raise DivergenceError(f"{err} ({kept})") from err
    outputs = [log_path, _disc_ckpt(out)]
    outputs += [_generator_ckpt(out, g.pattern_id) for g in generators]
    print(f"trained {corpus.k} generators for {schedule.adversarial_rounds} rounds")
    print(f"checkpoints and {len(records)} log records in {out}")
    return inputs, outputs


def _load_exclude(cfg: dict) -> tuple[set[tuple[int, ...]], list[str]]:
    labels_path = _labels_path(cfg)
    if os.path.isfile(labels_path):
        corpus = read_labels_file(labels_path)
        return {s.nybbles for s in corpus.seeds}, [labels_path]
    if cfg.get("seeds_file") and os.path.isfile(cfg["seeds_file"]):
        seeds = load_seed_file(cfg["seeds_file"])
        return {s.nybbles for s in seeds}, [cfg["seeds_file"]]
    log.warning("no seeds or labels file found; candidates are not seed-filtered")
    return set(), []


def cmd_generate(cfg: dict, args: argparse.Namespace) -> _Files:
    out = _ensure_out(cfg)
    pattern = os.path.join(glob.escape(out), "generator_[0-9][0-9]*.ckpt")
    found = {os.path.basename(p) for p in glob.glob(pattern)}
    if not found:
        raise ConfigError(f"no generator checkpoints (generator_00.ckpt...) in {out}")
    k = len(found)
    paths = [_generator_ckpt(out, i) for i in range(k)]
    missing = [os.path.basename(p) for p in paths if os.path.basename(p) not in found]
    if missing:
        raise ConfigError(
            f"{k} generator checkpoints in {out} are not numbered 00..{k - 1:02d}: "
            f"missing {', '.join(missing)}"
        )
    rates = cfg.get("rates") or [1.0] * k
    if len(rates) != k:
        raise ConfigError(f"got {len(rates)} rates for {k} generators")
    try:
        budgets = allocate_budget(rates, cfg["budget"])
    except ValueError as err:
        raise ConfigError(str(err)) from err
    exclude, inputs = _load_exclude(cfg)
    inputs += paths

    streams = np.random.SeedSequence([cfg["seed"], 1]).spawn(k)
    generators = []  # every checkpoint is read before any file is written
    for i, (path, stream) in enumerate(zip(paths, streams)):
        params, pattern_id = _read_checkpoint(path, LstmParams, "meta_pattern_id")
        if pattern_id != i:
            raise ConfigError(f"{path} carries pattern id {pattern_id}, expected {i}")
        generators.append(GeneratorModel(params, i, np.random.default_rng(stream)))
    merged: list[NybbleSeq] = []
    seen: set[tuple[int, ...]] = set()
    outputs = []
    for i, (g, budget) in enumerate(zip(generators, budgets)):
        cands = generate_candidates(g, budget, exclude)
        part_path = os.path.join(out, f"candidates_pattern_{i:02d}.txt")
        write_address_file(part_path, cands, header=f"pattern: {i}")
        outputs.append(part_path)
        for c in cands:
            if c.nybbles not in seen:
                seen.add(c.nybbles)
                merged.append(c)
        print(f"pattern {i}: {len(cands)}/{budget} candidates")
    merged_path = os.path.join(out, "candidates.txt")
    write_address_file(merged_path, merged, header="merged candidates")
    outputs.append(merged_path)
    print(f"{len(merged)} merged candidates in {merged_path}")
    return inputs, outputs


def cmd_evaluate(cfg: dict, args: argparse.Namespace) -> _Files:
    spec_path = _require_file(_require(cfg, "spec_file", "for evaluate"), "universe spec")
    candidates_path = _require_file(args.candidates, "candidates file")
    seeds_path = _require_file(_require(cfg, "seeds_file", "for evaluate"), "seeds file")
    spec = UniverseSpec.load(spec_path)
    oracle = UniverseOracle(spec)
    candidates = CandidateSet.dedup(load_seed_file(candidates_path))
    seeds = load_seed_file(seeds_path)
    report = evaluate(candidates, seeds, oracle)
    out = _ensure_out(cfg)
    json_path = os.path.join(out, "report.json")
    csv_path = os.path.join(out, "report.csv")
    write_report_files(report, json_path, csv_path)
    print(
        f"|C|={report.n_candidates} hit={report.hit_rate:.4f} "
        f"generation={report.generation_rate:.4f} aliased={report.n_aliased} "
        f"({report.aliased_pct:.2%}) loss={report.loss}"
    )
    return [spec_path, candidates_path, seeds_path], [json_path, csv_path]


def cmd_discriminate(cfg: dict, args: argparse.Namespace) -> _Files:
    out = _ensure_out(cfg)
    ckpt = _require_file(_disc_ckpt(out), "discriminator checkpoint")
    addresses_path = _require_file(args.addresses, "addresses file")
    params, k = _read_checkpoint(ckpt, CnnParams, "meta_k")
    disc = DiscriminatorModel(params=params, k=k)
    addrs = load_seed_file(addresses_path)
    if not addrs:
        raise ConfigError(f"addresses file {addresses_path} is empty")
    tokens = np.array([a.nybbles for a in addrs], dtype=np.int64)
    probs = disc.class_probs(tokens)
    pred = probs.argmax(axis=1)
    scores_path = os.path.join(out, "scores.tsv")
    with atomic_write(scores_path, "w", encoding="utf-8") as fh:
        header = "\t".join(f"class_{c}" for c in range(disc.k + 1))
        fh.write(f"# address\tpredicted\t{header}\n")
        for a, p, row in zip(addrs, pred, probs):
            cols = "\t".join(f"{v:.6f}" for v in row)
            fh.write(f"{a}\t{int(p)}\t{cols}\n")
    inputs = [ckpt, addresses_path]
    outputs = [scores_path]
    if cfg.get("gold_labels_file"):
        gold_path = _require_file(cfg["gold_labels_file"], "gold labels file")
        inputs.append(gold_path)
        gold_corpus = read_labels_file(gold_path)
        gold_map = {s.nybbles: lab.class_id for s, lab in
                    zip(gold_corpus.seeds, gold_corpus.labels)}
        missing = [a for a in addrs if a.nybbles not in gold_map]
        if missing:
            raise ConfigError(f"{len(missing)} addresses missing from gold labels")
        n_classes = disc.k + 1
        confusion = np.zeros((n_classes, n_classes), dtype=int)
        for a, p in zip(addrs, pred):
            confusion[gold_map[a.nybbles], int(p)] += 1
        accuracy = float(np.trace(confusion)) / len(addrs)
        conf_path = os.path.join(out, "confusion.json")
        with atomic_write(conf_path, "w", encoding="utf-8") as fh:
            json.dump(
                {"confusion": confusion.tolist(), "accuracy": accuracy},
                fh, indent=2, sort_keys=True,
            )
            fh.write("\n")
        outputs.append(conf_path)
        print(f"accuracy {accuracy:.4f} over {len(addrs)} addresses")
    print(f"scores in {scores_path}")
    return inputs, outputs


def cmd_alias_check(cfg: dict, args: argparse.Namespace) -> _Files:
    alias_path = _require_file(_require(cfg, "alias_file", "for alias-check"), "alias prefix file")
    addresses_path = _require_file(args.addresses, "addresses file")
    trie = AliasTrie(load_alias_file(alias_path))
    addrs = load_seed_file(addresses_path)
    kept, removed = filter_aliased(trie, addrs)
    out = _ensure_out(cfg)
    kept_path = os.path.join(out, "kept.txt")
    removed_path = os.path.join(out, "removed.txt")
    write_address_file(kept_path, kept, header="non-aliased")
    write_address_file(removed_path, removed, header="aliased")
    print(f"kept {len(kept)}, removed {len(removed)} aliased")
    return [alias_path, addresses_path], [kept_path, removed_path]


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int, help="master RNG seed")
    common.add_argument("--budget", type=int, help="total candidate budget")
    common.add_argument("--method", choices=["rfc", "entropy", "ipv62vec"],
                        help="seed classification method")
    common.add_argument("--k", type=int, help="number of pattern classes")
    common.add_argument("--rates", help="CSV of per-pattern generation rates")
    common.add_argument("--spec", help="universe spec JSON file")
    common.add_argument("--out", help="output directory")

    parser = argparse.ArgumentParser(
        prog="sixgan",
        description="Pattern-specialized adversarial IPv6 candidate generation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("classify", parents=[common], help="label seeds by pattern")
    sub.add_parser("train", parents=[common], help="adversarial training")
    sub.add_parser("generate", parents=[common], help="sample candidate addresses")
    p_eval = sub.add_parser("evaluate", parents=[common], help="score a candidate set")
    p_eval.add_argument("candidates", help="candidate address file")
    p_disc = sub.add_parser("discriminate", parents=[common],
                            help="per-address class scores")
    p_disc.add_argument("addresses", help="address file to score")
    sub.add_parser("synth", parents=[common], help="materialize a synthetic universe")
    p_alias = sub.add_parser("alias-check", parents=[common],
                             help="filter aliased addresses")
    p_alias.add_argument("addresses", help="address file to filter")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        # looked up on every call, so a command replaced on the module is the one run
        command = globals()["cmd_" + args.command.replace("-", "_")]
        inputs, outputs = command(cfg, args)
        _write_manifest(cfg, args.command, inputs, outputs)
        return EXIT_OK
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as err:
        if args.command == "train":
            print(f"training diverged: {err}", file=sys.stderr)
            return EXIT_DIVERGED
        # only training makes new values; elsewhere one comes from an input file
        print(f"malformed value in {args.command} input: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
