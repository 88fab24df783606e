"""The benchmark's workloads: inputs made from the workload seed, the
set-up commands and the timed commands, all as `sixgan` CLI argument lists.

Every command runs with its working directory set to one replica
directory and names only relative paths, so manifests, and therefore
artifact digests, do not depend on where the checkout lives.

The seed picks prefix values, the universe hash key and the program's
master seed.  It never changes the shape of the inputs (pattern set,
prefix counts, sizes), so every seed asks for the same amount of work.
"""

from __future__ import annotations

import copy
import json
import os
import random
from dataclasses import dataclass

BASE = ["--config", "config.json", "--out", "out"]
SPEC = "universe.json"


@dataclass(frozen=True)
class Workload:
    name: str
    patterns: tuple[str, ...]
    prefixes_per_family: int
    config: dict
    setup: tuple[tuple[str, ...], ...]
    timed: tuple[tuple[str, ...], ...]
    toy_config: dict  # overrides applied for the self-check's toy sizes


def _cfg(**over) -> dict:
    cfg = {
        "seeds_file": "out/seeds.txt",
        "alias_file": "out/aliased_prefixes.txt",
    }
    cfg.update(over)
    return cfg


_SYNTH = ("synth", *BASE, "--spec", SPEC)
_RFC = ("classify", *BASE, "--method", "rfc")

# Train: the timed command is one whole `sixgan train` with the alias file
# on, at reduced width, rollouts and schedule.  generator_pg_step dominates.
TRAIN = Workload(
    name="train",
    patterns=("IEEE-derived", "Embedded-IPv4", "Pattern-bytes"),
    prefixes_per_family=2,
    config=_cfg(
        n_seeds=1500,
        reward={"alpha": 0.9, "lam": 10.0, "rollouts": 4},
        schedule={"g_pretrain": 60, "d_pretrain": 8, "g_steps": 1, "d_steps": 1,
                  "adversarial_rounds": 2, "batch_size": 16},
        nn={"embed_dim": 24, "hidden_dim": 24, "n_filters": 8,
            "lr_gen": 3e-2, "lr_disc": 1e-3},
    ),
    setup=(_SYNTH, _RFC),
    timed=(("train", *BASE),),
    toy_config={
        "n_seeds": 60,
        "schedule": {"g_pretrain": 60, "d_pretrain": 2, "g_steps": 1, "d_steps": 1,
                     "adversarial_rounds": 1, "batch_size": 16},
        "nn": {"embed_dim": 16, "hidden_dim": 16, "n_filters": 2},
    },
)

# Generate-evaluate: set-up pretrains the generators far enough that the
# candidates hold active, inactive and aliased addresses; the timed
# commands are the whole post-training path.
GENERATE_EVALUATE = Workload(
    name="generate-evaluate",
    patterns=("IEEE-derived", "Embedded-IPv4", "Pattern-bytes"),
    prefixes_per_family=2,
    config=_cfg(
        n_seeds=300,
        budget=4200,
        schedule={"g_pretrain": 60, "d_pretrain": 10, "g_steps": 0, "d_steps": 0,
                  "adversarial_rounds": 0, "batch_size": 32},
        nn={"embed_dim": 24, "hidden_dim": 24, "n_filters": 8,
            "lr_gen": 3e-2, "lr_disc": 1e-3},
    ),
    setup=(_SYNTH, _RFC, ("train", *BASE)),
    timed=(
        ("generate", *BASE),
        ("discriminate", *BASE, "out/candidates.txt"),
        ("alias-check", *BASE, "out/candidates.txt"),
        ("evaluate", *BASE, "--spec", SPEC, "out/candidates.txt"),
    ),
    toy_config={
        "n_seeds": 60,
        "budget": 90,
        "schedule": {"g_pretrain": 40, "d_pretrain": 2, "batch_size": 16},
        "nn": {"embed_dim": 8, "hidden_dim": 8, "n_filters": 2},
    },
)

# Classify: several families with several prefixes each, so the entropy
# method sees one fingerprint group per prefix and ipv62vec sees real
# clusters.  The skip-gram loop and the eps bisection dominate.
CLASSIFY_K = 4
CLASSIFY = Workload(
    name="classify",
    patterns=("IEEE-derived", "Embedded-IPv4", "Low-byte", "Pattern-bytes"),
    prefixes_per_family=3,
    config=_cfg(n_seeds=250, k=CLASSIFY_K),
    setup=(_SYNTH,),
    timed=(
        ("classify", "--config", "config.json", "--out", "out/rfc", "--method", "rfc"),
        ("classify", "--config", "config.json", "--out", "out/entropy",
         "--method", "entropy", "--k", str(CLASSIFY_K)),
        ("classify", "--config", "config.json", "--out", "out/ipv62vec",
         "--method", "ipv62vec", "--k", str(CLASSIFY_K)),
    ),
    toy_config={"n_seeds": 120},
)

WORKLOADS = {w.name: w for w in (TRAIN, GENERATE_EVALUATE, CLASSIFY)}


def universe_spec(w: Workload, seed: int) -> dict:
    """The synthetic universe for one workload seed.

    Each prefix gets its own second 16-bit group, so prefixes never
    overlap and each one forms its own /32 entropy-fingerprint group.  One
    aliased /52 sits inside each family's first /48, so generated and
    rollout addresses really fall into aliased space.
    """
    rnd = random.Random(seed)
    n_pref = w.prefixes_per_family
    groups = rnd.sample(range(0x1000, 0x10000), len(w.patterns) * n_pref)
    families, aliased = [], []
    for f, pattern in enumerate(w.patterns):
        nets = [(groups[f * n_pref + j], rnd.randrange(0x10000)) for j in range(n_pref)]
        families.append({
            "name": f"family{f}",
            "pattern": pattern,
            "prefixes": [f"2001:{a:x}:{b:x}::/48" for a, b in nets],
            "density": 0.6,
        })
        a, b = nets[0]
        aliased.append(f"2001:{a:x}:{b:x}:{rnd.randrange(16) << 12:x}::/52")
    return {"hash_key": rnd.randrange(2 ** 63), "families": families,
            "aliased_prefixes": aliased}


def _deep_update(base: dict, over: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in over.items():
        out[key] = _deep_update(out[key], val) if isinstance(val, dict) else val
    return out


def run_config(w: Workload, seed: int, toy: bool = False) -> dict:
    cfg = _deep_update(w.config, w.toy_config) if toy else copy.deepcopy(w.config)
    cfg["seed"] = seed
    return cfg


def write_inputs(w: Workload, seed: int, directory: str, toy: bool = False) -> None:
    """Write universe.json and config.json into a replica directory."""
    for name, doc in ((SPEC, universe_spec(w, seed)), ("config.json", run_config(w, seed, toy))):
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
