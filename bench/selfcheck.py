#!/usr/bin/env python3
"""Self-check of the benchmark at toy sizes.

    python3 bench/selfcheck.py

For every workload: run the set-up and one round of timed commands at toy
sizes, untraced and then traced, and require that every output check
passes and that every per-layer metric of BENCHMARK.json names a layer the
program has.  Then, for each check, corrupt one line of one output it
reads, in a copy of the outputs, and require that the check fails.  Exits
0 only when all of that holds.
"""

from __future__ import annotations

import ipaddress
import json
import os
import shutil
import sys

from run import ROOT, WORK_DIR, WorkloadRun, import_program, measure_traced
from workloads import WORKLOADS


def _edit_first(lines: list[str], edit, pick=lambda ln: True) -> list[str]:
    """Apply edit to the first data line (not blank, not a comment) that pick accepts."""
    for i, ln in enumerate(lines):
        if ln.strip() and not ln.startswith("#") and pick(ln):
            return lines[:i] + [edit(ln)] + lines[i + 1:]
    raise AssertionError("no line to corrupt")


def _set_field(index: int, value):
    def edit(ln: str) -> str:
        fields = ln.split("\t")
        fields[index] = str(value(fields[index]))
        return "\t".join(fields)
    return edit


def _json_field(key: str, value):
    def edit(ln: str) -> str:
        rec = json.loads(ln)
        rec[key] = value(rec[key])
        return json.dumps(rec, sort_keys=True)
    return edit


def _duplicate_first(lines: list[str]) -> list[str]:
    """Overwrite the second data line with the first."""
    data = [i for i, ln in enumerate(lines) if ln.strip() and not ln.startswith("#")]
    out = list(lines)
    out[data[1]] = lines[data[0]]
    return out


def _class_ids(lines: list[str]) -> set[int]:
    return {int(ln.split("\t")[2]) for ln in lines if ln.strip()}


# check name -> (output files it may read, first existing one is corrupted;
#                lines -> lines with exactly one line changed)
CORRUPTIONS = {
    "check_canonical": (
        ["out/seeds.txt"],
        lambda lines: _edit_first(lines, lambda ln: ipaddress.IPv6Address(ln).exploded),
    ),
    "check_rfc_labels": (
        ["out/rfc/labels.tsv", "out/labels.tsv"],
        lambda lines: _edit_first(lines, _set_field(3, lambda _: "Randomized")),
    ),
    "check_train_log": (
        ["out/train_log.jsonl"],
        lambda lines: _edit_first(lines, _json_field("mean_q_ad", lambda _: 99.0),
                                  lambda ln: '"g_step"' in ln),
    ),
    "check_candidates": (["out/candidates.txt"], _duplicate_first),
    "check_alias_partition": (
        ["out/kept.txt"],
        lambda lines: _edit_first(
            lines, lambda ln: ipaddress.IPv6Address(int(ipaddress.IPv6Address(ln)) ^ 1).compressed),
    ),
    "check_report": (
        ["out/report.json"],
        lambda lines: _edit_first(lines, lambda ln: ln.replace(": ", ": 1"),
                                  lambda ln: '"n_active"' in ln),
    ),
    "check_scores": (
        ["out/scores.tsv"],
        lambda lines: _edit_first(
            lines, _set_field(1, lambda p: (int(p) + 1) % (len(lines[1].split("\t")) - 2))),
    ),
    "check_entropy_labels": (
        ["out/entropy/labels.tsv"],
        lambda lines: _edit_first(
            lines, _set_field(2, lambda c: (int(c) + 1) % len(_class_ids(lines)))),
    ),
    "check_ipv62vec_labels": (
        ["out/ipv62vec/labels.tsv"],
        lambda lines: _edit_first(lines, _set_field(2, lambda _: max(_class_ids(lines)) + 2)),
    ),
}


def self_check(cli, name: str, per_layer: list[str], work: str) -> list[str]:
    from checks import CHECKS, CheckError

    failures = []
    run = WorkloadRun(cli, WORKLOADS[name], seed=1, work=os.path.join(work, name), toy=True)
    measure_traced(run, 0.0, per_layer)
    failures += [f"{name}: {p}" for p in run.problems]
    failures += [f"{name}: per-layer metric names missing layer {a}" for a in run.absent]
    if run.failed:
        failures.append(f"{name}: {run.failed} commands failed")
    rep = os.path.join(run.work, f"replica{run.n_replicas - 1}")
    for check in CHECKS[name]:
        paths, corrupt = CORRUPTIONS[check.__name__]
        rel = next(p for p in paths if os.path.isfile(os.path.join(rep, p)))
        bad = os.path.join(work, "corrupt")
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(rep, bad)
        with open(os.path.join(bad, rel), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        changed = corrupt(lines)
        assert len(changed) == len(lines) and sum(a != b for a, b in zip(lines, changed)) == 1
        with open(os.path.join(bad, rel), "w", encoding="utf-8") as fh:
            fh.write("\n".join(changed) + "\n")
        try:
            check(bad, run.cfg, run.spec)
            failures.append(f"{name}: {check.__name__} passed with one line of {rel} corrupted")
        except CheckError as err:
            print(f"ok  {name}: {check.__name__} rejects corrupted {rel}: {err}", file=sys.stderr)
    return failures


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        per_layer = [m["name"] for m in json.load(fh)["per_layer"]]
    cli, _ = import_program()
    work = os.path.join(WORK_DIR, f"selfcheck-{os.getpid()}")
    failures = []
    try:
        for name in WORKLOADS:
            failures += self_check(cli, name, per_layer, work)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
    for f in failures:
        print(f"FAIL {f}")
    print("self-check", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
