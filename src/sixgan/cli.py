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

from . import BLAS_THREAD_VARS, BLAS_VARS_NOT_APPLIED, __version__, nn
from .addr import AliasTrie, load_alias_file, load_seed_file, token_matrix, write_address_file
from .alias import filter_aliased
from .classify import (
    FP_PREFIX_LEN,
    MIN_GROUP,
    classify_entropy,
    classify_ipv62vec,
    classify_rfc_corpus,
    labeled_lines,
    read_labels_file,
    write_labels_file,
)
from .fileio import INTEGER, NUMBER, NUMBERS, OBJECT, STRING, read_json, write_json, write_lines
from .gan import (
    DiscriminatorModel,
    Generators,
    NetConfig,
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

# each section's keys, ranges and defaults are those of its dataclass
_SECTIONS = {"reward": RewardConfig, "schedule": TrainSchedule, "nn": NetConfig}

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
    "fp_prefix_len": FP_PREFIX_LEN,
    "min_group": MIN_GROUP,
    "n_seeds": 2000,
    "budget": 1000,
    "rates": None,
    **{section: dataclasses.asdict(cls()) for section, cls in _SECTIONS.items()},
}
_METHODS = ("rfc", "entropy", "ipv62vec")

# The kind of each key whose default is None (the file keys are strings);
# such a key also takes null.  Every other key takes its default's kind.
_OPTIONAL = {"k": INTEGER, "rates": NUMBERS}
_KIND_OF = {int: INTEGER, float: NUMBER, str: STRING}

# the range of each bounded integer key
_RANGES = {"n_seeds": (1, math.inf), "budget": (0, math.inf), "k": (1, math.inf),
           "min_group": (1, math.inf), "fp_prefix_len": (1, 32)}

_Files = tuple[list[str], list[str]]  # what a command read and what it wrote


class ConfigError(Exception):
    """A problem with the resolved configuration or its input files."""


# ---------------------------------------------------------------------------
# Configuration resolution
# ---------------------------------------------------------------------------


def _kind(key: str, default):
    return _OPTIONAL.get(key, STRING) if default is None else _KIND_OF[type(default)]


def _merge(base: dict, over: dict, defaults: dict = DEFAULTS, path: str = "") -> dict:
    """base updated from over, each value checked against the kind of its default."""
    out = copy.deepcopy(base)
    for key, val in over.items():
        name = f"config key {path}{key}"
        if key not in defaults:
            raise ValueError(f"unknown config key: {path}{key}")
        default = defaults[key]
        if isinstance(default, dict):
            out[key] = _merge(out[key], OBJECT.check(val, name), default, f"{path}{key}.")
        elif val is None and default is None:
            out[key] = None
        else:
            out[key] = _kind(key, default).check(val, name)
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
        if _kind(key, defaults.get(key)) is not STRING:
            try:
                value = json.loads(raw)
            except json.JSONDecodeError:
                pass
        into[key] = value
    return over


def resolve_config(args: argparse.Namespace, environ: dict | None = None) -> dict:
    """defaults < config file < SIXGAN_* variables < flags, every value
    checked, for every command, before any command runs.

    The sections come out as RewardConfig, TrainSchedule and NetConfig,
    whose construction checks their ranges; every error is a ConfigError
    naming the key, or the config file.
    """
    environ = dict(os.environ) if environ is None else environ
    # each flag's dest is the key it sets
    flags = {key: val for key, val in vars(args).items() if key in DEFAULTS and val is not None}
    if "rates" in flags:
        try:
            flags["rates"] = [float(r) for r in flags["rates"].split(",")]
        except ValueError as err:
            raise ConfigError(f"--rates must be a CSV of numbers: {err}") from None
    try:
        cfg = DEFAULTS
        if args.config:
            cfg = _merge(cfg, OBJECT.check(read_json(args.config), f"config file {args.config}"))
        cfg = _merge(_merge(cfg, _env_overrides(environ)), flags)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    if cfg["method"] not in _METHODS:
        raise ConfigError(f"unknown method {cfg['method']!r}")
    for key, (lo, hi) in _RANGES.items():
        val = cfg[key]
        if val is not None and not lo <= val <= hi:
            bound = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
            raise ConfigError(f"config key {key} must be {bound}, got {val}")
    try:
        for section, cls in _SECTIONS.items():
            cfg[section] = cls(**cfg[section])
    except ValueError as err:  # '<section>.<key> must be ...'
        raise ConfigError(f"config key {err}") from None
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


def _versions() -> dict:
    """What output bytes depend on: the package, NumPy, the BLAS build and its thread settings."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"sixgan": __version__, "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            **{var: "not applied" if var in BLAS_VARS_NOT_APPLIED else os.environ.get(var)
               for var in BLAS_THREAD_VARS}}


def _write_manifest(cfg: dict, command: str, inputs: list[str], outputs: list[str]) -> None:
    """manifest_<command>.json: the config (each section as its fields), the
    SHA-256 of each input and output file, and _versions()."""
    def digests(paths):
        return {os.path.basename(p): _sha256(p) for p in sorted(set(paths))}

    write_json(os.path.join(cfg["out_dir"], f"manifest_{command}.json"),
               {"command": command, "config": cfg, "inputs": digests(inputs),
                "outputs": digests(outputs), "versions": _versions()})


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
    rng = np.random.default_rng(np.random.SeedSequence([cfg["seed"], 0]))
    seeds = sample_seeds(oracle, cfg["n_seeds"], rng)
    out = _ensure_out(cfg)

    seeds_path = os.path.join(out, "seeds.txt")
    alias_path = os.path.join(out, "aliased_prefixes.txt")
    universe_path = os.path.join(out, "universe.json")
    write_address_file(seeds_path, seeds, header="active non-aliased seeds")
    write_lines(alias_path, map(str, spec.aliased_prefixes), header="aliased prefixes")
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
    out = _ensure_out(cfg)

    last_saved = None  # round of the checkpoints on disk; -1 is after pretraining

    def save_all(rnd: int, gens: Generators, disc: DiscriminatorModel) -> None:
        nonlocal last_saved
        for i in range(gens.k):
            _save_checkpoint(_generator_ckpt(out, i), gens.params[i], "meta_pattern_id", i)
        _save_checkpoint(_disc_ckpt(out), disc.params, "meta_k", disc.k)
        last_saved = rnd

    log_path = os.path.join(out, "train_log.jsonl")
    with open(log_path, "w", encoding="utf-8") as log_fh:  # streamed: kept on exit 3
        try:
            gens, disc, records = train_6gan(
                corpus, trie, cfg["reward"], cfg["schedule"], cfg["nn"], seed=cfg["seed"],
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
    outputs += [_generator_ckpt(out, i) for i in range(gens.k)]
    print(f"trained {corpus.k} generators for {cfg['schedule'].adversarial_rounds} rounds")
    print(f"checkpoints and {len(records)} log records in {out}")
    return inputs, outputs


def _load_exclude(cfg: dict) -> tuple[set[bytes], list[str]]:
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
    out = cfg["out_dir"]  # holds the checkpoints, so it exists if they do
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
    rates = [1.0] * k if cfg["rates"] is None else cfg["rates"]
    if len(rates) != k:
        raise ConfigError(f"got {len(rates)} rates for {k} generators")
    try:
        budgets = allocate_budget(rates, cfg["budget"])
    except ValueError as err:
        raise ConfigError(str(err)) from err
    exclude, inputs = _load_exclude(cfg)
    inputs += paths

    read = []  # every checkpoint is read before any file is written
    for i, path in enumerate(paths):
        params, pattern_id = _read_checkpoint(path, LstmParams, "meta_pattern_id")
        if pattern_id != i:
            raise ConfigError(f"{path} carries pattern id {pattern_id}, expected {i}")
        if read and params.w_gates.shape != read[0].w_gates.shape:
            raise ConfigError(f"{path} holds a generator of other widths than {paths[0]}")
        read.append(params)
    streams = np.random.SeedSequence([cfg["seed"], 1]).spawn(k)
    gens = Generators(LstmParams.stack(read), [np.random.default_rng(s) for s in streams])
    # every generator samples before any file is written; each address is
    # formatted once, and its canonical text is one-to-one with it
    parts = [list(map(str, generate_candidates(gens, i, budget, exclude)))
             for i, budget in enumerate(budgets)]
    outputs = []
    for i, (lines, budget) in enumerate(zip(parts, budgets)):
        part_path = os.path.join(out, f"candidates_pattern_{i:02d}.txt")
        write_lines(part_path, lines, header=f"pattern: {i}")
        outputs.append(part_path)
        print(f"pattern {i}: {len(lines)}/{budget} candidates")
    merged = list(dict.fromkeys(line for lines in parts for line in lines))  # first occurrences
    merged_path = os.path.join(out, "candidates.txt")
    write_lines(merged_path, merged, header="merged candidates")
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
    out = cfg["out_dir"]  # holds the checkpoint, so it exists if that does
    ckpt = _require_file(_disc_ckpt(out), "discriminator checkpoint")
    addresses_path = _require_file(args.addresses, "addresses file")
    params, k = _read_checkpoint(ckpt, CnnParams, "meta_k")
    disc = DiscriminatorModel(params=params, k=k)
    addrs = load_seed_file(addresses_path)
    if not addrs:
        raise ConfigError(f"addresses file {addresses_path} is empty")
    inputs = [ckpt, addresses_path]
    gold_map = None  # checked before any file is written
    if cfg.get("gold_labels_file"):
        gold_path = _require_file(cfg["gold_labels_file"], "gold labels file")
        inputs.append(gold_path)
        gold_map = {}  # class ids as written: a confusion row is a class id
        for lineno, seq, _, cid, _ in labeled_lines(gold_path):
            if not 0 <= cid <= disc.k:
                raise ValueError(f"{gold_path}:{lineno}: class id {cid} is not one of "
                                 f"the discriminator's classes 0..{disc.k}")
            gold_map[seq.nybbles] = cid
        missing = [a for a in addrs if a.nybbles not in gold_map]
        if missing:
            raise ConfigError(f"{len(missing)} addresses missing from gold labels")
    probs = disc.class_probs(token_matrix(addrs))
    pred = probs.argmax(axis=1)
    scores_path = os.path.join(out, "scores.tsv")
    row_format = "%s\t%d" + "\t%.6f" * (disc.k + 1)
    classes = "\t".join(f"class_{c}" for c in range(disc.k + 1))
    rows = zip(addrs, pred, probs)
    write_lines(scores_path, (row_format % (a, p, *row) for a, p, row in rows),
                header=f"address\tpredicted\t{classes}")
    outputs = [scores_path]
    if gold_map is not None:
        n_classes = disc.k + 1
        confusion = np.zeros((n_classes, n_classes), dtype=int)
        for a, p in zip(addrs, pred):
            confusion[gold_map[a.nybbles], int(p)] += 1
        accuracy = float(np.trace(confusion)) / len(addrs)
        conf_path = os.path.join(out, "confusion.json")
        write_json(conf_path, {"confusion": confusion.tolist(), "accuracy": accuracy})
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
    common.add_argument("--method", choices=_METHODS,
                        help="seed classification method")
    common.add_argument("--k", type=int, help="number of pattern classes")
    common.add_argument("--rates", help="CSV of per-pattern generation rates")
    # each flag's dest is the config key it sets
    common.add_argument("--spec", dest="spec_file", help="universe spec JSON file")
    common.add_argument("--out", dest="out_dir", help="output directory")

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
