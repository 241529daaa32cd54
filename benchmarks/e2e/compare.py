#!/usr/bin/env python3
"""Compare benchmark runs: ``compare.py A.json... --against B.json...``

Each file is an ``e2e.json`` written by ``run.py`` (or, on the
``--against`` side, a ``BASELINE.json`` written by ``--summarize``).
Runs are compared seed by seed.  Per (workload, metric) the verdict is

* ``ok`` / ``regressed`` for an **exact** metric (cost units, error
  rate, counters): every run of both sides must read the same; a value
  that moved the wrong way is ``regressed``, one that moved the right
  way is ``ok (changed)``;
* ``ok`` / ``regressed`` / ``unresolved`` for a **timing** metric with a
  bound in ``BENCHMARK.json``: regressed when A's median is worse than
  B's by more than the bound; ``unresolved`` when B's own quartile
  spread exceeds the bound, unless every run of one side beats every
  run of the other;
* ``-`` for a per-layer timing, which has no bound: the ratio is shown.

Every ratio is printed with its base (B's median).  Exit status 1 on any
``regressed``.

``compare.py --summarize OUT.json RUN.json...`` writes the runs' median
and quartiles per (seed, workload, metric) with the host facts and every
distinct plan's ``explain()`` text: the trajectory's next point.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import measure
import metrics as registry

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_bounds(path: Path = BENCHMARK_JSON) -> dict[str, float]:
    declared = json.loads(path.read_text())
    return {m["name"]: m["bound"] for m in declared["end_to_end"]}


def collect(paths: list[Path]) -> dict:
    """seed -> workload -> metric -> list of values (``None`` kept)."""
    out: dict = {}
    for path in paths:
        data = json.loads(Path(path).read_text())
        if "seeds" in data:                         # a BASELINE.json
            for seed, workloads in data["seeds"].items():
                for workload, entries in workloads.items():
                    for metric, entry in entries["metrics"].items():
                        out.setdefault(str(seed), {}).setdefault(
                            workload, {}).setdefault(metric, []).extend(
                            entry["values"])
            continue
        if data["meta"].get("quick"):
            raise SystemExit(f"{path}: a --quick run is never comparable")
        seed = str(data["meta"]["seed"])
        for workload, sections in data["workloads"].items():
            for section in ("end_to_end", "per_layer"):
                for metric, entry in sections[section].items():
                    out.setdefault(seed, {}).setdefault(
                        workload, {}).setdefault(metric, []).append(
                        entry["value"])
    return out


def _same(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def _worse_by(metric: str, a: float, b: float) -> float:
    """How much worse *a* is than *b*, as a share of *b* (negative =
    better)."""
    if b == 0:
        return 0.0 if a == 0 else math.inf
    change = (a - b) / abs(b)
    return change if registry.better_of(metric) == "lower" else -change


def verdict(metric: str, a: list, b: list, bounds: dict) -> tuple[str, str]:
    """(verdict, explanation) for one (workload, metric)."""
    a_numbers = [v for v in a if v is not None]
    b_numbers = [v for v in b if v is not None]
    if not a_numbers or not b_numbers:
        if not a_numbers and not b_numbers:
            return "ok", "null on both sides"
        return "-", "null on one side: " + (
            "not measured by A" if not a_numbers else "not measured by B")
    a_median = measure.quartiles(a_numbers)[1]
    _, b_median, _ = measure.quartiles(b_numbers)
    ratio = (f"{a_median:.6g} / {b_median:.6g} = "
             f"{a_median / b_median:.4f} of B" if b_median
             else f"{a_median:.6g} against 0")
    if metric in registry.EXACT:
        everything = a + b
        if all(_same(v, everything[0]) for v in everything):
            return "ok", ratio + " (exact)"
        worse = _worse_by(metric, a_median, b_median)
        return ("regressed" if worse > 0 else "ok (changed)",
                ratio + " (exact metric moved)")
    bound = bounds.get(metric)
    if bound is None:
        return "-", ratio
    worse = _worse_by(metric, a_median, b_median)
    sign = 1 if registry.better_of(metric) == "lower" else -1
    a_beats_b = max(sign * v for v in a_numbers) < min(
        sign * v for v in b_numbers)
    b_beats_a = max(sign * v for v in b_numbers) < min(
        sign * v for v in a_numbers)
    note = f"{ratio}, bound {bound:.0%}"
    if not (a_beats_b or b_beats_a) and len(b_numbers) > 1 \
            and measure.spread(b_numbers) > bound:
        return "unresolved", (note + f"; B's own spread "
                              f"{measure.spread(b_numbers):.1%} exceeds it")
    return ("regressed" if worse > bound else "ok"), note


def compare(a: dict, b: dict, bounds: dict, out=sys.stdout) -> int:
    regressed = 0
    for seed in sorted(a):
        if seed not in b:
            print(f"seed {seed}: no run on the --against side, skipped",
                  file=out)
            continue
        for workload in a[seed]:
            for metric, values in a[seed][workload].items():
                base = b[seed].get(workload, {}).get(metric)
                if base is None:
                    continue
                result, why = verdict(metric, values, base, bounds)
                regressed += result == "regressed"
                print(f"seed {seed} {workload:15s} {metric:42s} "
                      f"{result:12s} {why}", file=out)
    print(f"{regressed} regressed", file=out)
    return 1 if regressed else 0


def summarize(paths: list[Path]) -> dict:
    runs = [json.loads(Path(p).read_text()) for p in paths]
    values = collect(paths)
    summary: dict = {
        "runs": len(runs),
        "host": {k: runs[0]["meta"][k]
                 for k in ("nproc", "python", "platform")},
        "seconds": runs[0]["meta"]["seconds"],
        "seeds": {},
    }
    for seed, workloads in values.items():
        for workload, metrics_ in workloads.items():
            entries = {}
            for metric, series in metrics_.items():
                numbers = [v for v in series if v is not None]
                entry: dict = {"unit": registry.unit_of(metric),
                               "values": series}
                if numbers:
                    q1, q2, q3 = measure.quartiles(numbers)
                    entry.update(median=q2, q1=q1, q3=q3)
                entries[metric] = entry
            run = next(r for r in runs if str(r["meta"]["seed"]) == seed)
            detail = run["workloads"][workload]["detail"]
            summary["seeds"].setdefault(seed, {})[workload] = {
                "metrics": entries,
                "shares": detail.get("shares", {}),
                "plans": detail.get("plans", {}),
            }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs", nargs="+", type=Path)
    parser.add_argument("--against", nargs="+", type=Path)
    parser.add_argument("--summarize", type=Path, metavar="OUT")
    args = parser.parse_args(argv)
    if args.summarize:
        args.summarize.write_text(
            json.dumps(summarize(args.runs), indent=1) + "\n")
        print(f"wrote {args.summarize}")
        return 0
    if not args.against:
        parser.error("--against (or --summarize) is required")
    return compare(collect(args.runs), collect(args.against), load_bounds())


if __name__ == "__main__":
    sys.exit(main())
