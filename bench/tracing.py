"""Per-layer tracing from outside the program.

Each per-layer metric is named `<module>.<function>.<stat>`, where
`<function>` may be `Class.method`.  The tracer wraps that public name in
`sixgan.<module>` and in every other `sixgan` module that imported it (so
`sixgan.gan.cnn_forward` is wrapped too), counts calls and times them.
Nothing is wrapped until `installed()` is entered, and everything is put
back when it exits.

Stats per layer:
  calls         number of calls
  s             inclusive seconds
  self_s        seconds minus the seconds of wrapped layers called inside
  rows          rows of the token batch argument (ROWS_ARG)
  bytes         size of the file named by the first argument, after the call
  cands         length of the returned list
  accept_ratio  cands over sequences sampled during the call, where one
                sequence is SEQ_LEN rows of nn.lstm_step_batch
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import defaultdict

SEQ_LEN = 32
# metric layer name -> program path, where the two differ
PATHS = {"oracle.probe": "oracle.UniverseOracle.probe"}
# index of the positional argument holding the [rows, ...] token batch
ROWS_ARG = {"nn.lstm_step_batch": 3, "nn.cnn_forward": 1}
RAW = ("calls", "s", "child_s", "rows", "bytes", "cands", "sampled")


def split_metric(name: str) -> tuple[str, str]:
    """`nn.RmsProp.update.s` -> (`nn.RmsProp.update`, `s`)."""
    layer, _, stat = name.rpartition(".")
    return layer, stat


class Tracer:
    def __init__(self, layers: list[str]):
        self.layers = sorted(set(layers))
        self.stats: dict[str, dict[str, float]] = defaultdict(lambda: dict.fromkeys(RAW, 0.0))
        self.absent: list[str] = []
        self._children: list[list[float]] = []  # child seconds of each open span

    def _wrap(self, layer: str, fn):
        rows_arg = ROWS_ARG.get(layer)
        step_rows = self.stats["nn.lstm_step_batch"]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            self._children.append(children)
            rows_before = step_rows["rows"]
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._children.pop()
                if self._children:
                    self._children[-1][0] += dt
            st = self.stats[layer]
            st["calls"] += 1
            st["s"] += dt
            st["child_s"] += children[0]
            if rows_arg is not None:
                st["rows"] += len(args[rows_arg])
            if isinstance(result, list):
                st["cands"] += len(result)
                st["sampled"] += (step_rows["rows"] - rows_before) / SEQ_LEN
            if args and isinstance(args[0], (str, os.PathLike)) and os.path.isfile(args[0]):
                st["bytes"] += os.path.getsize(args[0])
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced layer for the duration of the block."""
        undo: list[tuple[object, str, object]] = []
        self.absent = []
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "sixgan" or n.startswith("sixgan."))]
        try:
            for layer in self.layers:
                mod_name, _, path = PATHS.get(layer, layer).partition(".")
                owner = sys.modules.get(f"sixgan.{mod_name}")
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part, None)
                orig = owner.__dict__.get(attr) if owner is not None else None
                if not callable(orig):
                    self.absent.append(layer)
                    continue
                wrapper = self._wrap(layer, orig)
                if outer:  # a method: patch the class only
                    targets = [(owner, attr)]
                else:
                    targets = [(m, k) for m in mods for k, v in vars(m).items() if v is orig]
                for target, key in targets:
                    undo.append((target, key, orig))
                    setattr(target, key, wrapper)
            yield self
        finally:
            for target, key, orig in reversed(undo):
                setattr(target, key, orig)

    def snapshot(self) -> dict[str, dict[str, float]]:
        return {layer: dict(st) for layer, st in self.stats.items()}


def diff(after: dict, before: dict) -> dict:
    return {layer: {k: v - before.get(layer, {}).get(k, 0.0) for k, v in st.items()}
            for layer, st in after.items()}


def stat_value(raw: dict[str, float], stat: str) -> float:
    """A reported stat from the raw sums of one layer."""
    if stat == "self_s":
        return raw.get("s", 0.0) - raw.get("child_s", 0.0)
    if stat == "accept_ratio":
        sampled = raw.get("sampled", 0.0)
        return raw.get("cands", 0.0) / sampled if sampled else 0.0
    return raw.get(stat, 0.0)
