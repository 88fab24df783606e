#!/usr/bin/env python3
"""Whole-run benchmark of the `sixgan` command line.

    python3 bench/run.py --workload train --seed 1 --seconds 25 --trace 0

One process, one caller, closed loop: the workload's set-up commands run
several times (each in a fresh replica directory), then its timed commands
run in whole rounds through `sixgan.cli.main` until `--seconds` of timed
work have passed.  The last line of standard output is one JSON object:
`correct`, `attempted` and `failed` commands, and `metrics`.

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json:
  setup_s      import time plus the median set-up time
  wall_s       median wall seconds of one round of timed commands
  cpu_s        median user+system CPU seconds of this process per round
  peak_rss_mb  ru_maxrss of this process after the timed rounds
No wrappers are installed.

With `--trace 1` half the time runs untraced rounds, then every layer
named in BENCHMARK.json's per_layer list is wrapped (see tracing.py), one
set-up and the remaining rounds run traced, and the per-layer metrics are
the traced set-up plus the median traced round.  trace.overhead_s is the
median traced round minus the median untraced round.

Every run checks the outputs (checks.py) and records the SHA-256 of every
artifact: replicas, rounds, and earlier runs of the same code and seed
must agree byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

from tracing import RAW, Tracer, diff, split_metric, stat_value
from workloads import WORKLOADS, run_config, universe_spec, write_inputs

# One BLAS/OpenMP thread unless the caller chose otherwise; see README.md.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")

MIN_SETUPS = 3  # set-up repeats per run; more while they total under SETUP_SECONDS
MAX_SETUPS = 9
SETUP_SECONDS = 3.0


def import_program():
    """Import sixgan.cli from this checkout's src/, timing the import."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import sixgan.cli
    import_s = time.perf_counter() - t0
    if not os.path.abspath(sixgan.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"sixgan came from {sixgan.cli.__file__}, not from {SRC}")
    return sixgan.cli, import_s


def tree_digests(directory: str) -> dict[str, str]:
    """SHA-256 of every file under directory, keyed by relative path."""
    out = {}
    for base, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, directory)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def code_digest() -> str:
    """One SHA-256 over the program's and the benchmark's Python sources."""
    h = hashlib.sha256()
    for top in (SRC, BENCH_DIR):
        for rel, digest in sorted(tree_digests(top).items()):
            if rel.endswith(".py"):
                h.update(f"{os.path.basename(top)}/{rel} {digest}\n".encode())
    return h.hexdigest()


class WorkloadRun:
    """Runs one workload's commands and keeps the books on them."""

    def __init__(self, cli, workload, seed: int, work: str, toy: bool = False):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.work = work
        self.toy = toy
        self.cfg = run_config(workload, seed, toy)
        self.spec = universe_spec(workload, seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, dict[str, str]] = {}  # "setup"/"round" -> first seen
        self.n_replicas = 0
        self.absent: list[str] = []  # traced layers the program does not have

    def command(self, argv) -> bool:
        self.attempted += 1
        with contextlib.redirect_stdout(sys.stderr):
            try:
                rc = self.cli.main(list(argv))
            except Exception:  # a crash counts as a failed command
                traceback.print_exc()
                rc = None
        if rc != 0:
            self.failed += 1
            print(f"FAILED `sixgan {' '.join(argv)}` exited with {rc}", file=sys.stderr)
        return rc == 0

    def _same(self, kind: str, digests: dict[str, str]) -> None:
        """Record the first digests of this kind; later ones must equal them."""
        first = self.digests.setdefault(kind, digests)
        if digests != first:
            changed = sorted(k for k in first.keys() | digests.keys() if first.get(k) != digests.get(k))
            self.problems.append(f"{kind} artifacts differ between repeats: {changed}")

    def set_up(self) -> tuple[str, float]:
        """Write the inputs into a fresh replica and run the set-up commands."""
        rep = os.path.join(self.work, f"replica{self.n_replicas}")
        self.n_replicas += 1
        os.makedirs(rep)
        write_inputs(self.workload, self.seed, rep, self.toy)
        os.chdir(rep)
        t0 = time.perf_counter()
        for argv in self.workload.setup:
            if not self.command(argv):
                raise RuntimeError(f"set-up command failed: sixgan {' '.join(argv)}")
        seconds = time.perf_counter() - t0
        self._same("setup", tree_digests(rep))
        return rep, seconds

    def one_round(self, rep: str) -> tuple[float, float]:
        os.chdir(rep)
        c0, t0 = time.process_time(), time.perf_counter()
        for argv in self.workload.timed:
            self.command(argv)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        self._same("round", tree_digests(rep))
        return wall, cpu

    def rounds(self, rep: str, seconds: float, on_round=None) -> tuple[list[float], list[float]]:
        """Whole rounds until their wall time adds up to `seconds` (at least one)."""
        walls, cpus = [], []
        while not walls or sum(walls) < seconds:
            wall, cpu = self.one_round(rep)
            walls.append(wall)
            cpus.append(cpu)
            if on_round is not None:
                on_round()
        return walls, cpus

    def check(self, rep: str) -> None:
        # imported late: it loads NumPy, whose import time belongs to the timed import of sixgan
        from checks import CHECKS, CheckError

        for check in CHECKS[self.workload.name]:
            try:
                check(rep, self.cfg, self.spec)
            except CheckError as err:
                self.problems.append(f"{check.__name__}: {err}")
            except Exception as err:  # output too malformed for the check to read
                traceback.print_exc()
                self.problems.append(f"{check.__name__}: {type(err).__name__}: {err}")

    def compare_with_earlier_runs(self) -> None:
        """Byte-identical reruns: same code and seed must give the same artifacts."""
        doc = {"code": code_digest(), **self.digests}
        os.makedirs(os.path.join(RESULTS_DIR, "digests"), exist_ok=True)
        tag = "toy-" if self.toy else ""
        path = os.path.join(RESULTS_DIR, "digests", f"{tag}{self.workload.name}-seed{self.seed}.json")
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                earlier = json.load(fh)
            if earlier.get("code") == doc["code"]:
                if earlier != doc:
                    self.problems.append(f"artifacts differ from an earlier run recorded in {path}")
                return
        tmp = f"{path}.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)


def measure(run: WorkloadRun, seconds: float, import_s: float) -> dict[str, float]:
    setups = []
    while len(setups) < MIN_SETUPS or (sum(setups) < SETUP_SECONDS and len(setups) < MAX_SETUPS):
        rep, s = run.set_up()
        setups.append(s)
    walls, cpus = run.rounds(rep, seconds)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.check(rep)
    print(f"set-ups {len(setups)}, rounds {len(walls)}: wall {walls}", file=sys.stderr)
    return {
        "setup_s": import_s + statistics.median(setups),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak,
    }


def measure_traced(run: WorkloadRun, seconds: float, names: list[str]) -> dict[str, float]:
    rep, _ = run.set_up()
    untraced, _ = run.rounds(rep, seconds / 2)
    tracer = Tracer([split_metric(n)[0] for n in names if not n.startswith("trace.")])
    with tracer.installed():
        rep, _ = run.set_up()
        snaps = [tracer.snapshot()]
        traced, _ = run.rounds(rep, seconds / 2, on_round=lambda: snaps.append(tracer.snapshot()))
    run.check(rep)
    run.absent = tracer.absent
    if tracer.absent:
        print(f"trace: layers absent from the program: {tracer.absent}", file=sys.stderr)
    per_round = [diff(after, before) for before, after in zip(snaps, snaps[1:])]
    values = {"trace.overhead_s": statistics.median(traced) - statistics.median(untraced)}
    for name in names:
        if name in values:
            continue
        layer, stat = split_metric(name)
        raw = {k: snaps[0].get(layer, {}).get(k, 0.0)
               + statistics.median(r.get(layer, {}).get(k, 0.0) for r in per_round)
               for k in RAW}
        values[name] = stat_value(raw, stat)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}

    cli, import_s = import_program()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    # the program sees only the generated spec, config and files
    for var in [v for v in os.environ if v.startswith("SIXGAN_")]:
        del os.environ[var]

    work = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    run = WorkloadRun(cli, WORKLOADS[args.workload], args.seed, work)
    try:
        if args.trace:
            values = measure_traced(run, args.seconds, list(units))
        else:
            values = measure(run, args.seconds, import_s)
        run.compare_with_earlier_runs()
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
    for problem in run.problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }))
    return 0 if not run.problems else 1


if __name__ == "__main__":
    sys.exit(main())
