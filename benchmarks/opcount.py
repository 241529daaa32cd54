#!/usr/bin/env python3
"""Bytecodes one cold prepare executes, per ``plan_cold`` operation.

A deterministic companion to the timed pairs of ``ab_pairs.py`` for
optimizer changes: for the parent commit and the change, it builds the
queries of ``benchmarks/e2e/workloads.py::PlanCold`` (read-only: the
benchmark is imported, never edited), runs one untraced round of cold
prepares so imports and process-wide caches are warm, then counts the
opcodes each operation's cold prepare executes under ``sys.settrace``
with ``f_trace_opcodes`` — one operation per query x strategy x join
enumerator x parallelism.  It prints both sides' counts and their
difference per operation, and the totals.

    python3 benchmarks/opcount.py --parent HEAD~1
    python3 benchmarks/opcount.py --parent HEAD~1 --change HEAD --seed 1

``--parent`` / ``--change`` are read as in ``ab_pairs.py``: a git
revision, exported with ``git archive``, or a directory that holds a
checkout; ``--change`` defaults to the working tree as it is.  Exit
status 1 when the change executes more bytecodes than the parent on any
operation.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

from ab_pairs import REPO_ROOT, checkout

#: Run in each side's checkout: one JSON line ``[label, opcodes]`` per
#: operation of the round.
_COUNT = """
import json, sys
sys.path.insert(0, "benchmarks/e2e")
from workloads import PlanCold

workload = PlanCold({seed})
workload.build()
ops = workload.round()
for op in ops:
    workload.execute(op)
for op in ops:
    executed = 0

    def tracer(frame, event, arg):
        global executed
        if event == "opcode":
            executed += 1
        else:
            frame.f_trace_opcodes = True
        return tracer

    sys.settrace(tracer)
    try:
        workload.execute(op)
    finally:
        sys.settrace(None)
    print(json.dumps([op.label, executed]), flush=True)
"""


def count(tree: Path, seed: int) -> dict[str, int]:
    """Opcodes per operation label, run in checkout *tree*."""
    # String hashing is salted per process, and set iteration order with
    # it: one fixed salt makes both sides' counts repeatable.
    done = subprocess.run([sys.executable, "-c", _COUNT.format(seed=seed)],
                          cwd=tree, stdout=subprocess.PIPE, text=True,
                          env={**os.environ, "PYTHONHASHSEED": "0"},
                          check=True)
    return dict(json.loads(line) for line in done.stdout.splitlines())


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", metavar="REV|DIR")
    parser.add_argument("--change", default=str(REPO_ROOT), metavar="REV|DIR")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="opcount_") as out:
        parent = count(checkout(args.parent, Path(out) / "parent"), args.seed)
        change = count(checkout(args.change, Path(out) / "change"), args.seed)
    width = max(map(len, parent))
    print(f"{'operation':{width}s} {'parent':>10s} {'change':>10s} "
          f"{'change-parent':>14s}")
    for label, old in parent.items():
        new = change[label]
        print(f"{label:{width}s} {old:10d} {new:10d} {new - old:+14d}")
    total_old, total_new = sum(parent.values()), sum(change.values())
    print(f"{'total':{width}s} {total_old:10d} {total_new:10d} "
          f"{total_new - total_old:+14d}")
    return int(any(change[label] > old for label, old in parent.items()))


if __name__ == "__main__":
    sys.exit(main())
