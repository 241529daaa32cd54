#!/usr/bin/env python3
"""Alternating parent/change pairs of the end-to-end benchmark.

The ``choosing-metrics`` §8 procedure ``benchmarks/e2e/README.md`` asks
for before a gain is claimed: export the parent commit and the change
into two directories, run N **alternating** pairs of

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0

(the parent first in even pairs, the change first in odd ones), then
hand both sets of runs to ``benchmarks/e2e/compare.py``, which gives the
per-metric verdict against the bounds of ``BENCHMARK.json``.  Before
that it prints, per metric, each side's median and quartiles and the
pairs won, and — for the metric named by ``--claim`` — whether the §8
rule holds: the change wins at least nine tenths of all pairs (ties
count for neither) and the medians differ by more than the distance
between the parent's own quartiles.

    python3 benchmarks/ab_pairs.py --workload trading_serial --seed 1 --claim qps
    python3 benchmarks/ab_pairs.py --workload short_churn report_process \\
        --parent HEAD~1 --change HEAD --pairs 10 --out results/ab
    python3 benchmarks/ab_pairs.py --workload plan_cold --claim qps \\
        --bench-json BENCH_15.json

``--bench-json PATH`` appends what was printed — both revisions, host
facts, and per workload x metric each side's median [q1, q3], the ratio
and the pairs won — as one more entry of the ``runs`` list in *PATH*
(created when missing): the checked-in ``BENCH_<pr>.json`` trajectory
file of ROADMAP aim 1, one entry per invocation.

``--parent`` / ``--change`` take a git revision, exported with
``git archive`` (nothing in the repository is touched), or a directory
that already holds a checkout; ``--change`` defaults to the working
tree as it is, uncommitted edits included.  ``benchmarks/e2e`` itself is
never edited by a change that claims a gain, so both sides run the same
benchmark code.  Exit status: ``compare.py``'s (1 on any ``regressed``),
or 2 when a run failed or returned incorrect results.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Optional

REPO_ROOT = Path(__file__).resolve().parents[1]
RUN = Path("benchmarks") / "e2e" / "run.py"
COMPARE = Path("benchmarks") / "e2e" / "compare.py"


def checkout(spec: str, into: Path) -> Path:
    """The directory to run *spec* from: *spec* itself when it is a
    directory, else revision *spec* exported under *into*."""
    if Path(spec).is_dir():
        return Path(spec).resolve()
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(REPO_ROOT), "archive", spec],
                             check=True, stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into


def run_once(tree: Path, workload: str, seed: int, seconds: float,
             trace: int) -> Optional[dict]:
    """One ``run.py`` invocation in *tree*; its metric values, or
    ``None`` when it failed or verified incorrectly."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"{tree}: run.py exited {done.returncode}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        print(f"{tree}: {result['failed']} of {result['attempted']} "
              f"operations failed", file=sys.stderr)
        return None
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def summarize(parent: dict, change: dict, better: dict,
              claim: Optional[str]) -> dict:
    """Per metric: each side's median and quartiles, their ratio, the
    pairs the change won / lost (ties count for neither) and, for the
    *claim* metric, whether the §8 rule holds."""
    out = {}
    for metric, old in parent.items():
        new = change[metric]
        sign = -1 if better.get(metric) == "lower" else 1
        (oq1, omed, oq3), (nq1, nmed, nq3) = quartiles(old), quartiles(new)
        out[metric] = {
            "parent": {"median": omed, "q1": oq1, "q3": oq3},
            "change": {"median": nmed, "q1": nq1, "q3": nq3},
            "ratio": nmed / omed if omed else None,
            "pairs": len(old),
            "wins": sum(sign * n > sign * o for n, o in zip(new, old)),
            "losses": sum(sign * n < sign * o for n, o in zip(new, old)),
            "gain": sign * (nmed - omed)}
        if metric == claim:
            row = out[metric]
            row["claim_met"] = (row["wins"] >= 0.9 * len(old)
                                and row["gain"] > oq3 - oq1)
    return out


def report(workload: str, summary: dict) -> None:
    """Print *summary* (one :func:`summarize` result)."""
    pairs = next(iter(summary.values()))["pairs"]
    print(f"\n{workload}: {pairs} pairs "
          f"(median [q1, q3]; wins = pairs where the change read better)")
    for metric, row in summary.items():
        old, new = row["parent"], row["change"]
        ratio = (f"{row['ratio']:.3f} of parent" if row["ratio"] is not None
                 else "parent is 0")
        print(f"  {metric:18s} parent {old['median']:10.4g} "
              f"[{old['q1']:.4g}, {old['q3']:.4g}]  "
              f"change {new['median']:10.4g} [{new['q1']:.4g}, {new['q3']:.4g}]"
              f"  {ratio}  wins {row['wins']}/{pairs} losses {row['losses']}")
        if "claim_met" in row:
            print(f"  claim on {metric}: "
                  f"{'MET' if row['claim_met'] else 'NOT MET'} "
                  f"(wins {row['wins']}/{pairs} need >= 9/10; median gain "
                  f"{row['gain']:.4g} against parent IQR "
                  f"{old['q3'] - old['q1']:.4g})")


def revision(spec: str) -> dict:
    """What *spec* named: the commit it resolves to, or for a directory
    the path (and, when it is this repository, HEAD and whether the
    working tree differs from it)."""
    def git(*args: str) -> Optional[str]:
        done = subprocess.run(["git", "-C", str(REPO_ROOT), *args],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    if not Path(spec).is_dir():
        return {"spec": spec, "commit": git("rev-parse", spec)}
    directory = Path(spec).resolve()
    out = {"spec": spec, "directory": str(directory)}
    if directory == REPO_ROOT:
        out["commit"] = git("rev-parse", "HEAD")
        out["uncommitted_changes"] = bool(git("status", "--porcelain"))
    return out


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--parent", default="HEAD", metavar="REV|DIR")
    parser.add_argument("--change", default=str(REPO_ROOT), metavar="REV|DIR")
    parser.add_argument("--claim", metavar="METRIC",
                        help="apply the nine-of-ten-pairs rule to this metric")
    parser.add_argument("--out", type=Path, default=None,
                        help="where checkouts and result files go "
                             "(default: a new temporary directory)")
    parser.add_argument("--bench-json", type=Path, default=None, metavar="PATH",
                        help="append this invocation's summary to the "
                             "trajectory file PATH (BENCH_<pr>.json)")
    args = parser.parse_args(argv)

    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or declared["run_seconds"]
    better = {m["name"]: m["better"]
              for m in declared["end_to_end"] + declared["per_layer"]}
    out = args.out or Path(tempfile.mkdtemp(prefix="ab_pairs_"))
    out.mkdir(parents=True, exist_ok=True)
    trees = {"parent": checkout(args.parent, out / "parent"),
             "change": checkout(args.change, out / "change")}
    print(f"parent = {args.parent} at {trees['parent']}\n"
          f"change = {args.change} at {trees['change']}\n"
          f"{args.pairs} pairs x {args.workload}, seed {args.seed}, "
          f"{seconds:g} s, --trace {args.trace}")

    values: dict = {side: {w: {} for w in args.workload} for side in trees}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for workload in args.workload:
            for side in order:
                metrics = run_once(trees[side], workload, args.seed, seconds,
                                   args.trace)
                if metrics is None:
                    return 2
                for name, value in metrics.items():
                    values[side][workload].setdefault(name, []).append(value)
                shown = args.claim if args.claim in metrics else next(iter(metrics))
                print(f"pair {pair + 1:2d} {workload:15s} {side:6s} "
                      f"{shown} = {metrics[shown]:.6g}", flush=True)

    # The shape compare.py reads on either side (its BASELINE.json form).
    for side in trees:
        (out / f"{side}.json").write_text(json.dumps({"seeds": {str(args.seed): {
            workload: {"metrics": {name: {"values": series}
                                   for name, series in metrics.items()}}
            for workload, metrics in values[side].items()}}}, indent=1) + "\n")
    summaries = {workload: summarize(values["parent"][workload],
                                     values["change"][workload], better,
                                     args.claim)
                 for workload in args.workload}
    for workload, summary in summaries.items():
        report(workload, summary)
    if args.bench_json is not None:
        bench = (json.loads(args.bench_json.read_text())
                 if args.bench_json.exists() else {"runs": []})
        bench["runs"].append({
            "parent": revision(args.parent), "change": revision(args.change),
            "host": {"platform": platform.platform(),
                     "python": platform.python_version(),
                     "cpus": os.cpu_count()},
            "seed": args.seed, "pairs": args.pairs, "seconds": seconds,
            "trace": args.trace, "claim": args.claim,
            "workloads": summaries})
        args.bench_json.write_text(json.dumps(bench, indent=1) + "\n")
        print(f"\nappended to {args.bench_json}")
    print(f"\ncompare.py {out / 'change.json'} --against {out / 'parent.json'}")
    return subprocess.run(
        [sys.executable, str(COMPARE), str(out / "change.json"),
         "--against", str(out / "parent.json")], cwd=trees["change"]).returncode


if __name__ == "__main__":
    sys.exit(main())
