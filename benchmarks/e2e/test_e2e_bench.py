"""Tier-1 checks of the end-to-end benchmark itself.

Everything runs with ``quick=True`` (operation counts / 20, small data;
the output is marked and never comparable), so no assertion here is
about a timing: only names, units, counts, exactness and verification.
"""

from __future__ import annotations

import ast
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import compare
import layers
import measure
import metrics as registry
import reference as ref
import run
import surface
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("e2e")


@pytest.fixture(scope="module")
def quick_runs(out_dir):
    """One quick run per (workload, trace) at seed 1."""
    return {(name, trace): run.run_workload(name, 1, 1, trace, quick=True,
                                            out_dir=out_dir)
            for name in WORKLOADS for trace in (0, 1)}


# -- the declared benchmark ---------------------------------------------------------
def test_benchmark_json_matches_the_registry():
    declared = json.loads((surface.REPO_ROOT / "BENCHMARK.json").read_text())
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert declared["paths"] == ["benchmarks/e2e"]
    assert declared["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert declared["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in declared["end_to_end"]} == registry.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in declared["per_layer"]} == registry.PER_LAYER
    assert registry.END_TO_END["setup_s"][:2] == ("s", "lower")
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    names += [w["name"] for w in declared["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in declared["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    for workload in declared["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    # The issue's nine end-to-end names are all reported somewhere.
    assert set(registry.ISSUE_END_TO_END) <= set(names)


def test_every_metric_is_reported_with_its_unit(quick_runs, out_dir):
    for (name, trace), record in quick_runs.items():
        expected = registry.PER_LAYER if trace else registry.END_TO_END
        assert list(record["metrics"]) == list(expected), (name, trace)
        assert record["quick"] is True
        assert record["correct"] and record["failed"] == 0, record["failures"]
        assert record["attempted"] >= 1
        for metric, entry in record["metrics"].items():
            assert entry["unit"] == expected[metric][0]
            if entry["value"] is None:
                assert trace == 1 and entry["reason"], (name, metric)
            else:
                assert isinstance(entry["value"], (int, float))
        if trace == 0:
            assert all(e["value"] > 0 for e in record["metrics"].values())
            assert record["detail"]["error_rate"] == 0
        else:
            assert record["metrics"]["error_rate"]["value"] == 0
            assert record["detail"]["plans"]
            spans = (out_dir / f"spans_{name}.jsonl") \
                .read_text().splitlines()
            assert len(spans) == record["detail"]["spans"] > 0
            assert {"id", "name", "start", "end", "parent", "op"} \
                == set(json.loads(spans[0]))


def test_the_result_line_has_exactly_the_contract_keys(quick_runs):
    for record in quick_runs.values():
        line = json.loads(run.contract_line(record))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        for entry in line["metrics"].values():
            assert set(entry) == {"value", "unit"}
            assert isinstance(entry["value"], (int, float))


def test_each_workload_measures_the_layers_it_is_for(quick_runs):
    def layer(name, metric):
        return quick_runs[(name, 1)]["metrics"][metric]["value"]

    # plan_cold never executes; the others all do.
    assert layer("plan_cold", "engine.executor.run_ms") is None
    assert layer("plan_cold", "exec_cost_units") is None
    assert layer("plan_cold", "optimizer.goals_examined") > 0
    for name in ("trading_serial", "report_process", "short_churn"):
        assert layer(name, "engine.executor.run_ms") > 0
        assert layer(name, "exec_cost_units") > 0
    # Only the process backend pickles, dispatches and merges.
    assert layer("report_process", "service.backends.pool_tax_ms") is not None
    assert layer("report_process", "service.backends.task_pickle_bytes") > 0
    assert layer("report_process", "optimizer.shard_merge_plans") >= 1
    assert layer("trading_serial", "service.backends.pool_tax_ms") is None
    # Only short_churn invalidates plans.
    assert layer("short_churn", "service.plan_cache.invalidations") > 0
    assert layer("trading_serial", "service.plan_cache.invalidations") == 0
    assert layer("trading_serial", "optimizer.enforcers_in_plans") >= 3


# -- exactness ----------------------------------------------------------------------
def test_same_seed_runs_repeat_exactly(quick_runs, out_dir):
    for name in WORKLOADS:
        again = run.run_workload(name, 1, 1, 1, quick=True, out_dir=out_dir)
        first = quick_runs[(name, 1)]["metrics"]
        for metric in registry.EXACT & set(first):
            assert again["metrics"][metric]["value"] \
                == first[metric]["value"], (name, metric)
    assert {"exec_cost_units", "plan_cost_geomean", "error_rate",
            "service.plan_cache.hit_rate", "optimizer.goals_examined",
            "engine.comparisons"} <= registry.EXACT


def test_a_second_seed_changes_the_data_but_not_the_names(quick_runs, out_dir):
    other = run.run_workload("short_churn", 2, 1, 1, quick=True,
                             out_dir=out_dir)
    first = quick_runs[("short_churn", 1)]
    assert list(other["metrics"]) == list(first["metrics"])
    assert other["correct"]
    assert other["metrics"]["engine.comparisons"]["value"] \
        != first["metrics"]["engine.comparisons"]["value"]
    # The mix itself does not depend on the seed.
    assert other["metrics"]["service.plan_cache.hit_rate"]["value"] \
        == first["metrics"]["service.plan_cache.hit_rate"]["value"]


def test_a_corrupted_reference_is_caught():
    affinity = os.sched_getaffinity(0)
    record = run.run_workload("short_churn", 1, 1, 0, quick=True,
                              corrupt=True)
    assert os.sched_getaffinity(0) == affinity   # the pin is undone
    assert record["correct"] is False
    assert record["failed"] >= 1 and record["failures"]
    assert record["detail"]["error_rate"] > 0
    assert json.loads(run.contract_line(record))["correct"] is False


# -- the API-surface guard ----------------------------------------------------------
def test_sources_import_only_the_declared_surface():
    allowed = surface.END_TO_END
    for path in sorted(HERE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "repro":
                        assert alias.name in allowed \
                            and allowed[alias.name] is None, (path.name,
                                                              alias.name)
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.split(".")[0] == "repro":
                assert node.module in allowed, (path.name, node.module)
                names = allowed[node.module]
                for alias in node.names:
                    assert names is None or alias.name in names, (
                        path.name, node.module, alias.name)
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str) \
                    and re.match(r"^repro(\.\w+)+$", node.value):
                # Dotted module paths live in surface.py only.
                assert path.name == "surface.py", (path.name, node.value)


def test_a_vanished_layer_symbol_costs_a_metric_not_the_run(
        monkeypatch, out_dir):
    module, attribute = surface.LAYER_PROBES["shard_subplans"]
    monkeypatch.setitem(surface.LAYER_PROBES, "shard_subplans",
                        (module, "renamed_away"))
    module, attribute = surface.LAYER_PROBES["catalog_payload"]
    monkeypatch.setitem(surface.LAYER_PROBES, "catalog_payload",
                        (module + "_gone", attribute))
    record = run.run_workload("short_churn", 1, 1, 1, quick=True,
                              out_dir=out_dir)
    assert record["correct"]
    for metric in ("engine.subplan.shard_us", "storage.handoff.payload_ms",
                   "storage.handoff.payload_bytes"):
        entry = record["metrics"][metric]
        assert entry["value"] is None
        assert "renamed_away" in entry["reason"] or "gone" in entry["reason"]
    assert record["metrics"]["engine.executor.run_ms"]["value"] > 0
    line = json.loads(run.contract_line(record))
    assert line["metrics"]["engine.subplan.shard_us"]["value"] == 0


def test_without_the_program_source_the_command_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(surface.REPO_ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "plan_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert not done.stdout.strip()
    assert "cannot import 'repro'" in done.stderr


def _session_members(sid: int) -> list[tuple[int, str]]:
    """(pid, state) of every process, zombies included, in session *sid*."""
    found = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        state, _ppid, _pgrp, session = stat[stat.rindex(")") + 2:].split()[:4]
        if int(session) == sid:
            found.append((int(entry), state))
    return found


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_the_command_leaves_no_process_behind(tmp_path):
    # The layer pass on the process backend starts a spawn pool, and with
    # it multiprocessing's resource tracker, which used to outlive the run.
    done = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "report_process",
         "--seed", "1", "--seconds", "1", "--trace", "1", "--quick",
         "--out", str(tmp_path)],
        stdout=subprocess.PIPE, text=True, start_new_session=True)
    stdout, _ = done.communicate(timeout=120)
    assert _session_members(done.pid) == []
    assert done.returncode == 0
    assert json.loads(stdout.strip().splitlines()[-1])["correct"] is True


# -- helpers ------------------------------------------------------------------------
def test_percentile_is_nearest_rank():
    values = [5, 1, 4, 2, 3]
    assert measure.percentile(values, 50) == 3
    assert measure.percentile(values, 95) == 5
    assert measure.percentile(values, 0) == 1
    assert measure.percentile([7], 95) == 7
    assert measure.percentile(list(range(1, 101)), 95) == 95
    with pytest.raises(ValueError):
        measure.percentile([], 50)


def test_window_statistics_ignore_a_burst_shorter_than_half_the_window():
    quiet = (1.0, [0.05] * 6 + [0.3, 0.4])
    burst = (2.0, [0.1] * 6 + [0.6, 0.8])
    calm = measure.window_statistics([quiet] * 10)
    noisy = measure.window_statistics([quiet] * 6 + [burst] * 4)
    assert calm == noisy == {"qps": 8.0, "p50": 0.05, "p95": 0.4}
    swamped = measure.window_statistics([quiet] * 4 + [burst] * 6)
    assert swamped["qps"] == 4.0


def test_times_are_scaled_to_the_reference_host_speed():
    reference = measure.REFERENCE_KERNEL_SECONDS
    assert measure.kernel_seconds() > 0
    # Each kernel run reads the fake clock twice; make the host run at
    # the reference speed, then half as fast.
    ticks = iter([0, reference, 10, 10 + reference,
                  20, 20 + 3 * reference, 30, 30 + reference])
    host = measure.HostSpeed(clock=lambda: next(ticks))
    assert host.scale() == pytest.approx(1.0)
    assert host.scale() == pytest.approx(0.5)     # raw seconds count half
    assert host.scale() == pytest.approx(0.5)
    assert host.scales == [pytest.approx(1.0), pytest.approx(0.5),
                           pytest.approx(0.5)]


def test_quartiles_and_spread():
    assert measure.quartiles([3.0]) == (3.0, 3.0, 3.0)
    q1, q2, q3 = measure.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    assert (q1, q2, q3) == (2.75, 5.5, 8.25)
    assert measure.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == 1.0


def test_self_time_counts_overlapping_children_once():
    spans = [
        {"start": 0.0, "end": 10.0, "parent": None},   # root
        {"start": 1.0, "end": 5.0, "parent": 0},        # two shards that
        {"start": 3.0, "end": 8.0, "parent": 0},        # overlap 3..5
        {"start": 3.5, "end": 4.0, "parent": 2},
        {"start": 9.0, "end": None, "parent": 0},       # still open
    ]
    own = measure.self_times(spans)
    assert own == [pytest.approx(3.0), pytest.approx(4.0),
                   pytest.approx(4.5), pytest.approx(0.5), 0.0]
    assert measure.covered([(0, 2), (1, 3), (10, 12)], 0, 11) == 4.0


def test_span_recorder_nests_and_inherits_the_operation_id(tmp_path):
    ticks = iter(range(100))
    rec = measure.SpanRecorder(clock=lambda: next(ticks))
    with rec.span("op", op="7:q5"):
        with rec.span("inner"):
            pass
    rec.add("program.plan", 0.5, 0.75, 0, "7:q5")
    assert [s["parent"] for s in rec.spans] == [None, 0, 0]
    assert {s["op"] for s in rec.spans} == {"7:q5"}
    assert rec.spans[0]["end"] - rec.spans[0]["start"] == 3
    rec.dump(tmp_path / "spans.jsonl")
    assert len((tmp_path / "spans.jsonl").read_text().splitlines()) == 3


def _node(op, *children, table=None):
    node = SimpleNamespace(op=op, children=children, table=table)
    node.walk = lambda: [node] + [n for c in children for n in c.walk()]
    return node


def test_operator_self_time_per_class():
    scan_a, scan_b = _node("TableScan"), _node("TableScan")
    plan = _node("MergeJoin", _node("PartialSort", scan_a),
                 _node("PartialSort", _node("Filter", scan_b)))
    seconds = {"MergeJoin": 10.0, "PartialSort": 6.0, "Filter": 1.5,
               "TableScan:a": 1.0, "TableScan:b": 1.0}
    tags = ["MergeJoin", "PartialSort", "TableScan:a", "PartialSort",
            "Filter", "TableScan:b"]
    reports = [{"tag": t, "seconds": seconds[t]} for t in tags]
    own = layers.operator_self_seconds(plan, reports)
    assert own == {"merge_join": 4.0, "sort": 3.5, "other": 0.5, "scan": 2.0}
    assert layers.op_class("CoveringIndexScan:t.ix") == "scan"
    assert layers.op_class("SortedCombine") == "aggregate"
    assert layers.qerror(10, 40) == layers.qerror(40, 10) == 4.0
    assert layers.qerror(0, 0) == 1.0


def test_reference_check():
    rel = ref.Rel(("k", "v"), [(2, 1.0), (1, 2.0), (1, 3.0)])
    expected = ref.Expected.of(rel, order=("k",))
    assert ref.check(expected, [(1, 3.0), (1, 2.0), (2, 1.0)]) is None
    assert "order" in ref.check(expected, [(2, 1.0), (1, 2.0), (1, 3.0)])
    assert "rows" in ref.check(expected, [(1, 2.0), (2, 1.0)])
    assert "sorted row" in ref.check(expected, [(1, 2.0), (1, 3.5), (2, 1.0)])
    # Summation order may move the last digits of a float, no more.
    assert ref.check(expected, [(1, 2.0 + 1e-13), (1, 3.0), (2, 1.0)]) is None
    grouped = ref.group_by(rel, ["k"], [("n", "count", None),
                                        ("s", "sum", "v"), ("m", "min", "v")])
    assert sorted(grouped.rows) == [(1, 2, 5.0, 2.0), (2, 1, 1.0, 1.0)]
    joined = ref.join(rel, ref.Rel(("k2", "w"), [(1, "a"), (3, "b")]),
                      [("k", "k2")])
    assert sorted(joined.rows) == [(1, 2.0, 1, "a"), (1, 3.0, 1, "a")]


def test_compare_verdicts():
    bounds = {"qps": 0.08, "latency_p50_ms": 0.08}
    steady = [100.0, 101.0, 99.0]
    assert compare.verdict("qps", [100.5, 99.5, 100.0], steady,
                           bounds)[0] == "ok"
    assert compare.verdict("qps", [80.0, 81.0, 79.0], steady,
                           bounds)[0] == "regressed"
    assert compare.verdict("latency_p50_ms", [120.0, 121.0, 119.0], steady,
                           bounds)[0] == "regressed"
    # A baseline noisier than the bound cannot resolve a small change...
    noisy = [80.0, 100.0, 120.0, 90.0, 110.0]
    assert compare.verdict("qps", [95.0, 85.0, 105.0], noisy,
                           bounds)[0] == "unresolved"
    # ...unless every run of one side beats every run of the other.
    assert compare.verdict("qps", [60.0, 61.0], noisy, bounds)[0] == "regressed"
    assert compare.verdict("qps", [130.0, 131.0], noisy, bounds)[0] == "ok"
    # Exact metrics compare exactly, in the metric's direction.
    assert compare.verdict("exec_cost_units", [5.0, 5.0], [5.0],
                           bounds)[0] == "ok"
    assert compare.verdict("exec_cost_units", [5.1], [5.0],
                           bounds)[0] == "regressed"
    assert compare.verdict("exec_cost_units", [4.9], [5.0],
                           bounds)[0] == "ok (changed)"
    assert compare.verdict("exec_cost_units", [None], [None],
                           bounds)[0] == "ok"
    # A per-layer timing has no bound: the ratio is shown, no verdict.
    assert compare.verdict("engine.executor.run_ms", [2.0], [1.0],
                           bounds)[0] == "-"
