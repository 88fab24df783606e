"""Output checks for the benchmark's workloads.

Every check recomputes what it can apart from the program: addresses with
`ipaddress`, probe answers with the keyed `hashlib.blake2b` draw and an
independent restatement of the structural rules, similarity metrics with a
blockwise one-hot product.  Where no independent value exists, a check
tests a property the method must have.  No check compares against a stored
copy of an output.

A check takes the replica directory, the run config and the universe spec
and raises CheckError on the first disagreement.
"""

from __future__ import annotations

import csv
import hashlib
import ipaddress
import json
import math
import os
import sys
from collections import Counter, defaultdict

import numpy as np

PORTS = frozenset({21, 22, 23, 25, 53, 80, 110, 123, 143, 443, 993, 995, 8080})


class CheckError(Exception):
    """An output disagrees with its independent recomputation."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


# ---------------------------------------------------------------------------
# Reading outputs
# ---------------------------------------------------------------------------


def _lines(path: str) -> list[str]:
    _require(os.path.isfile(path), f"missing output {path}")
    with open(path, encoding="utf-8") as fh:
        return [ln.rstrip("\n") for ln in fh if ln.strip() and not ln.startswith("#")]


def _addr(text: str, where: str) -> int:
    try:
        return int(ipaddress.IPv6Address(text))
    except ValueError as err:
        raise CheckError(f"{where}: {err}") from None


def _addresses(path: str) -> list[int]:
    return [_addr(ln.strip(), path) for ln in _lines(path)]


def _rows(path: str, n_fields: int | None = None) -> list[list[str]]:
    rows = [ln.split("\t") for ln in _lines(path)]
    for r in rows:
        _require(n_fields is None or len(r) == n_fields, f"{path}: row {r} has {len(r)} fields")
    return rows


def _json(path: str):
    _require(os.path.isfile(path), f"missing output {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as err:
        raise CheckError(f"{path}: {err}") from None


def _int(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise CheckError(f"{where}: {text!r} is not an integer") from None


# ---------------------------------------------------------------------------
# Independent restatement of the universe
# ---------------------------------------------------------------------------


def _nybbles(a: int) -> list[int]:
    return [(a >> (124 - 4 * i)) & 0xF for i in range(32)]


def rfc_pattern(a: int) -> str:
    """Structural pattern of the interface identifier (first rule wins)."""
    iid = a & (2 ** 64 - 1)
    ibytes = list(iid.to_bytes(8, "big"))
    groups = [(iid >> (48 - 16 * i)) & 0xFFFF for i in range(4)]
    if (iid >> 24) & 0xFFFF == 0xFFFE:
        return "IEEE-derived"
    if not any(ibytes[:7]):
        as_hex = f"{groups[3]:x}"
        if groups[3] in PORTS or (as_hex.isdigit() and int(as_hex) in PORTS):
            return "Embedded-port"
    low4 = ibytes[4:]
    if not any(ibytes[:4]) and any(low4) and max(low4) >= 0x20:
        return "Embedded-IPv4"
    if all(g <= 0xFF for g in groups) and sum(1 for g in groups if g) >= 2:
        return "Embedded-IPv4"
    if groups[0] == 0 and groups[1] == 0 and groups[2] <= 0xFF and groups[3] <= 0xFF \
            and any(groups):
        return "Low-byte"
    if max(Counter(ibytes).values()) >= 3 and any(ibytes):
        return "Pattern-bytes"
    return "Randomized"


class Universe:
    def __init__(self, spec: dict):
        self.key = int(spec["hash_key"]).to_bytes(16, "little")
        self.aliased = [ipaddress.IPv6Network(p) for p in spec["aliased_prefixes"]]
        self.families = [
            (f["pattern"], float(f["density"]), [ipaddress.IPv6Network(p) for p in f["prefixes"]])
            for f in spec["families"]
        ]

    def is_aliased(self, a: int) -> bool:
        addr = ipaddress.IPv6Address(a)
        return any(addr in net for net in self.aliased)

    def family_pattern(self, a: int) -> str | None:
        addr = ipaddress.IPv6Address(a)
        for pattern, _, nets in self.families:
            if any(addr in net for net in nets):
                return pattern
        return None

    def is_active(self, a: int) -> bool:
        """Active means aliased, or conforming to its family and drawn under its density."""
        if self.is_aliased(a):
            return True
        addr = ipaddress.IPv6Address(a)
        for pattern, density, nets in self.families:
            if rfc_pattern(a) == pattern and any(addr in net for net in nets):
                h = hashlib.blake2b(bytes(_nybbles(a)), key=self.key, digest_size=8)
                return int.from_bytes(h.digest(), "little") / 2.0 ** 64 < density
        return False


# ---------------------------------------------------------------------------
# Checks shared by every workload
# ---------------------------------------------------------------------------

ADDRESS_FILES = ("out/seeds.txt", "out/candidates.txt", "out/kept.txt", "out/removed.txt")
ADDRESS_COLUMN_FILES = ("out/labels.tsv", "out/scores.tsv", "out/rfc/labels.tsv",
                        "out/entropy/labels.tsv", "out/ipv62vec/labels.tsv")


def check_canonical(rep: str, cfg: dict, spec: dict) -> None:
    """Every address line is the `ipaddress` compressed form of itself."""
    paths = [p for p in ADDRESS_FILES if os.path.isfile(os.path.join(rep, p))]
    out = os.path.join(rep, "out")
    paths += [os.path.join("out", n) for n in sorted(os.listdir(out))
              if n.startswith("candidates_pattern_")]
    texts = [(p, ln.strip()) for p in paths for ln in _lines(os.path.join(rep, p))]
    texts += [(p, r[0]) for p in ADDRESS_COLUMN_FILES if os.path.isfile(os.path.join(rep, p))
              for r in _rows(os.path.join(rep, p))]
    _require(bool(texts), "no address files written")
    for path, text in texts:
        canon = ipaddress.IPv6Address(_addr(text, path)).compressed
        _require(text == canon, f"{path}: {text!r} is not canonical ({canon!r})")


def _seeds(rep: str) -> list[int]:
    seeds = _addresses(os.path.join(rep, "out/seeds.txt"))
    _require(bool(seeds), "seeds.txt is empty")
    return seeds


def _labels(rep: str, rel: str, seeds: list[int], method: str) -> list[int]:
    """Class ids of a labels file that labels exactly the seeds, in order."""
    path = os.path.join(rep, rel)
    rows = _rows(path, 4)
    _require([_addr(r[0], path) for r in rows] == seeds, f"{rel} does not label the seeds in order")
    _require(all(r[1] == method for r in rows), f"{rel}: method is not {method}")
    ids = [_int(r[2], rel) for r in rows]
    _require(set(ids) == set(range(len(set(ids)))), f"{rel}: class ids are not compact")
    return ids


def check_rfc_labels(rep: str, cfg: dict, spec: dict) -> None:
    """Seeds are distinct, active and not aliased, and every rfc label
    equals the pattern of the family whose prefix holds the seed."""
    rel = "out/rfc/labels.tsv" if os.path.isdir(os.path.join(rep, "out/rfc")) else "out/labels.tsv"
    universe = Universe(spec)
    seeds = _seeds(rep)
    _require(len(seeds) == cfg["n_seeds"], f"{len(seeds)} seeds, expected {cfg['n_seeds']}")
    _require(len(set(seeds)) == len(seeds), "seeds are not distinct")
    ids = _labels(rep, rel, seeds, "RfcBased")
    names = [r[3] for r in _rows(os.path.join(rep, rel), 4)]
    for a, name in zip(seeds, names):
        _require(universe.is_active(a) and not universe.is_aliased(a),
                 f"seed {ipaddress.IPv6Address(a)} is not an active, non-aliased address")
        planted = universe.family_pattern(a)
        _require(name == planted,
                 f"{rel}: {ipaddress.IPv6Address(a)} labelled {name}, planted {planted}")
    _require(len(set(zip(ids, names))) == len(set(ids)) == len(set(names)),
             f"{rel}: class ids and names disagree")


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def check_train_log(rep: str, cfg: dict, spec: dict) -> None:
    """Record counts match the schedule, values are finite and in range,
    pretraining lowers every generator's NLL, and checkpoints exist."""
    sched = cfg["schedule"]
    alpha, lam = cfg["reward"]["alpha"], cfg["reward"]["lam"]
    k = len(spec["families"])
    records = []
    for i, ln in enumerate(_lines(os.path.join(rep, "out/train_log.jsonl"))):
        try:
            records.append(json.loads(ln))
        except json.JSONDecodeError as err:
            raise CheckError(f"train_log.jsonl line {i + 1}: {err}") from None
    kinds = Counter(r.get("kind") for r in records)
    rounds = sched["adversarial_rounds"]
    want = {"g_pretrain": k * sched["g_pretrain"], "d_pretrain": sched["d_pretrain"],
            "g_step": rounds * k * sched["g_steps"], "d_step": rounds * sched["d_steps"]}
    _require(kinds == Counter({kd: n for kd, n in want.items() if n}),
             f"train_log record counts {dict(kinds)}, schedule implies {want}")
    ranges = {"mean_q_d": 1.0, "mean_q_a": lam, "mean_q_ad": 1.0 + alpha * lam,
              "aliased_rate": 1.0}
    for r in records:
        for key, val in r.items():
            if key == "kind":
                continue
            _require(isinstance(val, (int, float)) and math.isfinite(val),
                     f"train_log value {key}={val!r} is not finite")
            if key in ranges:
                _require(0.0 <= val <= ranges[key] + 1e-9,
                         f"train_log {key}={val} outside [0, {ranges[key]}]")
    for g in range(k):
        curve = [r["nll"] for r in records if r["kind"] == "g_pretrain" and r["generator"] == g]
        q = max(1, len(curve) // 4)
        _require(sum(curve[-q:]) / q < sum(curve[:q]) / q,
                 f"pretraining did not lower generator {g}'s NLL")
    if rounds and sched["g_steps"]:
        _require(any(r.get("mean_q_a", 0.0) > 0.0 for r in records),
                 "no rollout matched an aliased prefix")
    names = [f"generator_{g:02d}.ckpt" for g in range(k)] + ["discriminator.ckpt"]
    for name in names:
        _require(os.path.isfile(os.path.join(rep, "out", name)), f"missing checkpoint {name}")


# ---------------------------------------------------------------------------
# generate-evaluate
# ---------------------------------------------------------------------------


def _shares(k: int, budget: int) -> list[int]:
    """Equal-rate largest-remainder split: the first budget % k patterns get one more."""
    return [budget // k + (1 if i < budget % k else 0) for i in range(k)]


def check_candidates(rep: str, cfg: dict, spec: dict) -> None:
    """Candidates are unique, number exactly the budget, contain no seed,
    and are the union of the per-pattern files, each of its own share."""
    k = len(spec["families"])
    cands = _addresses(os.path.join(rep, "out/candidates.txt"))
    _require(len(set(cands)) == len(cands), "candidates are not unique")
    _require(len(cands) == cfg["budget"], f"{len(cands)} candidates, budget {cfg['budget']}")
    _require(not set(cands) & set(_seeds(rep)), "candidates contain seeds")
    parts = [_addresses(os.path.join(rep, f"out/candidates_pattern_{i:02d}.txt"))
             for i in range(k)]
    _require([len(p) for p in parts] == _shares(k, cfg["budget"]),
             f"per-pattern counts {[len(p) for p in parts]}")
    merged = list(dict.fromkeys(a for p in parts for a in p))
    _require(merged == cands, "candidates.txt is not the ordered union of the pattern files")


def check_alias_partition(rep: str, cfg: dict, spec: dict) -> None:
    """kept and removed partition the input; removed is exactly the aliased ones."""
    universe = Universe(spec)
    cands = _addresses(os.path.join(rep, "out/candidates.txt"))
    kept = _addresses(os.path.join(rep, "out/kept.txt"))
    removed = _addresses(os.path.join(rep, "out/removed.txt"))
    want_removed = [a for a in cands if universe.is_aliased(a)]
    want_kept = [a for a in cands if not universe.is_aliased(a)]
    _require(removed == want_removed, f"removed.txt has {len(removed)} addresses, "
             f"{len(want_removed)} candidates are aliased")
    _require(kept == want_kept, "kept.txt is not the non-aliased candidates in order")


def _onehot(a: list[int]) -> np.ndarray:
    nyb = np.array([_nybbles(x) for x in a], dtype=np.int64)
    out = np.zeros((len(a), 32 * 16), dtype=np.float32)
    out[np.arange(len(a))[:, None], np.arange(32)[None, :] * 16 + nyb] = 1.0
    return out


def similarity(cands: list[int], seeds: list[int], block: int = 512) -> dict[str, float]:
    """pattern_quality(_max), novelty and diversity by blockwise one-hot products.

    Agreeing nybble positions m(a, b) = onehot(a) . onehot(b), exact in
    float32 (at most 32); Jaccard over (position, value) pairs is m/(64-m).
    """
    oc, os_ = _onehot(cands), _onehot(seeds)
    vc = np.array([_nybbles(x) for x in cands], dtype=np.float64)
    vs = np.array([_nybbles(x) for x in seeds], dtype=np.float64)
    nc, ns = np.linalg.norm(vc, axis=1), np.linalg.norm(vs, axis=1)
    pq_min, pq_max, nov, div = [], [], [], []
    for lo in range(0, len(cands), block):
        hi = min(lo + block, len(cands))
        with np.errstate(invalid="ignore", divide="ignore"):
            cos = (vc[lo:hi] @ vs.T) / np.outer(nc[lo:hi], ns)
        zc, zs = nc[lo:hi] == 0.0, ns == 0.0
        cos[zc, :] = 0.0
        cos[:, zs] = 0.0
        cos[np.ix_(zc, zs)] = 1.0
        pq_min.append(cos.min(axis=1))
        pq_max.append(cos.max(axis=1))
        m = (oc[lo:hi] @ os_.T).astype(np.float64)
        nov.append(1.0 - (m / (64.0 - m)).max(axis=1))
        m = (oc[lo:hi] @ oc.T).astype(np.float64)
        jac = m / (64.0 - m)
        jac[np.arange(hi - lo), np.arange(lo, hi)] = -np.inf
        div.append(1.0 - jac.max(axis=1))
    n = len(cands)
    return {
        "pattern_quality": float(np.concatenate(pq_min).mean()),
        "pattern_quality_max": float(np.concatenate(pq_max).mean()),
        "novelty": float(100.0 / n * np.concatenate(nov).sum()),
        "diversity": float(100.0 / n * np.concatenate(div).sum()),
    }


def check_report(rep: str, cfg: dict, spec: dict) -> None:
    """report.json equals a recount by `ipaddress` and the keyed hash draw,
    its similarity metrics equal the one-hot recomputation to 1e-9, and
    report.csv carries the same values."""
    universe = Universe(spec)
    cands = _addresses(os.path.join(rep, "out/candidates.txt"))
    seeds = _seeds(rep)
    seed_set = set(seeds)
    report = _json(os.path.join(rep, "out/report.json"))
    n = len(cands)
    active = [universe.is_active(a) for a in cands]
    aliased = [universe.is_aliased(a) for a in cands]
    in_seeds = [a in seed_set for a in cands]
    hit = [ac and not al for ac, al in zip(active, aliased)]
    valid = [h and not s for h, s in zip(hit, in_seeds)]
    want = {
        "n_candidates": n, "n_active": sum(active), "n_aliased": sum(aliased),
        "n_in_seeds": sum(in_seeds), "n_valid": sum(valid), "loss": n - sum(valid),
        "hit_rate": sum(hit) / n, "generation_rate": sum(valid) / n,
        "aliased_pct": sum(aliased) / n,
    }
    for key, val in want.items():
        _require(report.get(key) == val, f"report.json {key}={report.get(key)!r}, recount {val!r}")
    for key, val in similarity(cands, seeds).items():
        got = report.get(key)
        _require(isinstance(got, float) and abs(got - val) <= 1e-9,
                 f"report.json {key}={got!r}, recomputed {val!r}")
    with open(os.path.join(rep, "out/report.csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    _require(len(rows) == 2 and len(rows[0]) == len(rows[1]) and set(rows[0]) <= set(report),
             "report.csv header and row do not match report.json")
    for key, text in zip(*rows):
        _require(text == ("" if report[key] is None else str(report[key])),
                 f"report.csv {key}={text}, report.json {report[key]}")


def check_scores(rep: str, cfg: dict, spec: dict) -> None:
    """scores.tsv scores every candidate in order; rows sum to 1 to print
    precision and `predicted` is the row's argmax."""
    n_classes = len(spec["families"]) + 1
    path = os.path.join(rep, "out/scores.tsv")
    rows = _rows(path, 2 + n_classes)
    cands = _addresses(os.path.join(rep, "out/candidates.txt"))
    _require([_addr(r[0], path) for r in rows] == cands, "scores.tsv does not cover the candidates")
    for r in rows:
        try:
            probs = [float(v) for v in r[2:]]
        except ValueError:
            raise CheckError(f"scores.tsv: bad score in {r}") from None
        _require(all(0.0 <= p <= 1.0 for p in probs), f"scores.tsv: score out of [0, 1] in {r}")
        _require(abs(sum(probs) - 1.0) <= n_classes * 5e-7 + 1e-12,
                 f"scores.tsv: row sums to {sum(probs)}")
        pred = _int(r[1], "scores.tsv")
        _require(0 <= pred < n_classes and probs[pred] == max(probs),
                 f"scores.tsv: predicted {pred} is not the argmax of {probs}")


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def check_entropy_labels(rep: str, cfg: dict, spec: dict) -> None:
    """Seeds that share an entropy prefix group share a cluster."""
    seeds = _seeds(rep)
    ids = _labels(rep, "out/entropy/labels.tsv", seeds, "EntropyClustering")
    shift = 128 - 4 * cfg.get("fp_prefix_len", 8)
    group_ids: dict[int, set[int]] = defaultdict(set)
    for a, cid in zip(seeds, ids):
        group_ids[a >> shift].add(cid)
    split = [ipaddress.IPv6Address(g << shift) for g, c in group_ids.items() if len(c) > 1]
    _require(not split, f"prefix groups split across clusters: {split}")
    _require(len(set(ids)) <= int(cfg["k"]), "more entropy clusters than k")


def ari(labels_a: list, labels_b: list) -> float:
    """Adjusted Rand index between two labelings of the same items."""
    n = len(labels_a)
    pairs = sum(math.comb(c, 2) for c in Counter(zip(labels_a, labels_b)).values())
    rows = sum(math.comb(c, 2) for c in Counter(labels_a).values())
    cols = sum(math.comb(c, 2) for c in Counter(labels_b).values())
    expected = rows * cols / math.comb(n, 2)
    top = (rows + cols) / 2
    return 1.0 if top == expected else (pairs - expected) / (top - expected)


def check_ipv62vec_labels(rep: str, cfg: dict, spec: dict) -> None:
    """ipv62vec labels cover every seed, in order, with compact ids.

    Their adjusted Rand index against the planted families goes to stderr
    for reference; the method promises no particular value.
    """
    seeds = _seeds(rep)
    ids = _labels(rep, "out/ipv62vec/labels.tsv", seeds, "Ipv62Vec")
    universe = Universe(spec)
    score = ari(ids, [universe.family_pattern(a) for a in seeds])
    print(f"ipv62vec: {len(set(ids))} clusters, ARI vs planted families {score:.4f}",
          file=sys.stderr)


# ---------------------------------------------------------------------------
# Which checks each workload runs
# ---------------------------------------------------------------------------

CHECKS = {
    "train": (check_canonical, check_rfc_labels, check_train_log),
    "generate-evaluate": (check_canonical, check_rfc_labels, check_candidates,
                          check_alias_partition, check_report, check_scores),
    "classify": (check_canonical, check_rfc_labels, check_entropy_labels,
                 check_ipv62vec_labels),
}
