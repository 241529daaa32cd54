"""The layer pass: per-layer numbers, measured from outside.

Single-threaded, a few rounds of the workload's mix.  The benchmark
itself walks each operation through the layers' public functions and
records a span around each call (:class:`measure.SpanRecorder`); inside
the process backend and the optimizer stages it reads the span tree the
program already returns (``QueryServer(obs=True)``, a ``Tracer`` around
a cold ``prepare``).  Nothing under ``src/`` is edited.

Every deeper symbol comes from :func:`surface.probe`.  A probe that
cannot be imported, or a layer call that raises, marks the metrics it
feeds as unavailable (``null`` plus the reason) and the pass goes on: a
later rename must cost a metric, never the run.
"""

from __future__ import annotations

import pickle
import statistics
import time
from collections import defaultdict
from typing import Any, Callable, Optional, Sequence

import measure
import metrics as registry
import surface
from workloads import Op, Verifier, Workload

from repro.service import QuerySession  # noqa: E402  (workloads set the path)

_FAILED = object()
NOT_APPLICABLE = "not applicable on this workload"

_OP_CLASSES = {
    "Sort": "sort", "PartialSort": "sort",
    "MergeJoin": "merge_join", "HashJoin": "hash_join",
    "SortAggregate": "aggregate", "HashAggregate": "aggregate",
    "SortedCombine": "aggregate",
    "MergeExchange": "exchange", "ExchangeUnion": "exchange",
}
_STAGES = ("pre_check", "join_enumeration", "physical_selection",
           "parameterization")
#: Rows per streamed chunk of the process backend (its default).
_CHUNK_ROWS = 2048


def op_class(tag: str) -> str:
    """Operator class of a meter tag (``"TableScan:tran"`` -> scan)."""
    name = tag.partition(":")[0]
    if name.endswith("Scan"):
        return "scan"
    return _OP_CLASSES.get(name, "other")


def operator_self_seconds(plan, reports: Sequence[dict]) -> dict[str, float]:
    """Self time per operator class from one EXPLAIN ANALYZE.

    *reports* are ``node_reports()`` rows, pre-order like
    ``plan.walk()``; their times are inclusive and shared by every node
    with the same meter tag, so self time is taken per tag: the tag's
    inclusive seconds minus those of the tags directly beneath it."""
    nodes = list(plan.walk())
    inclusive: dict[str, float] = {}
    tag_of: dict[int, Optional[str]] = {}
    for node, report in zip(nodes, reports):
        tag = report["tag"] if report["seconds"] is not None else None
        tag_of[id(node)] = tag
        if tag is not None:
            inclusive[tag] = report["seconds"]
    below: dict[str, set] = defaultdict(set)

    def timed_below(node) -> set:
        found = set()
        for child in node.children:
            tag = tag_of.get(id(child))
            found |= {tag} if tag is not None else timed_below(child)
        return found

    for node in nodes:
        tag = tag_of.get(id(node))
        if tag is not None:
            below[tag] |= timed_below(node) - {tag}
    out: dict[str, float] = defaultdict(float)
    for tag, seconds in inclusive.items():
        own = seconds - sum(inclusive[t] for t in below[tag])
        out[op_class(tag)] += max(0.0, own)
    return dict(out)


def qerror(estimated: float, actual: float) -> float:
    lo, hi = sorted((max(1.0, estimated), max(1.0, actual)))
    return hi / lo


class LayerPass:
    """Runs the passes over one set-up workload and reduces the samples
    to the :data:`metrics.PER_LAYER` values."""

    def __init__(self, workload: Workload, build_seconds: float) -> None:
        self.w = workload
        self.rec = measure.SpanRecorder()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.values: dict[str, float] = {
            "storage.catalog.build_s": build_seconds}
        self.unavailable: dict[str, str] = {}
        self.verifier = Verifier(workload)
        self.shares: dict[str, float] = {}
        #: plan label -> ``explain()`` text of every distinct plan.
        self.plans: dict[str, str] = {}
        self._dead: set[str] = set()
        #: class -> latencies (seconds) per path, for differences.
        self._lat: dict[str, dict[str, list[float]]] = {
            path: defaultdict(list)
            for path in ("server", "traced", "run_plan", "run")}
        self._cost_units: dict[str, list[float]] = defaultdict(list)
        self._qerrors: list[float] = []
        self._probes: dict[str, Optional[Callable]] = {}
        self._tallies: dict[str, int] = defaultdict(int)

    # -- plumbing --------------------------------------------------------------------
    def mark(self, names: Sequence[str], reason: Any) -> None:
        if isinstance(reason, BaseException):
            reason = f"{type(reason).__name__}: {reason}"
        for name in names:
            self.unavailable.setdefault(name, str(reason))

    def probe(self, name: str, feeds: Sequence[str]) -> Optional[Callable]:
        try:
            return surface.probe(name)
        except surface.ProbeUnavailable as exc:
            self.mark(feeds, exc)
            return None

    def step(self, span: str, feeds: Sequence[str], fn: Callable, *args, **kw):
        """One layer call under a span: ``(result, seconds)``, or
        ``_FAILED`` (once a step failed it is skipped from then on)."""
        if span in self._dead:
            return _FAILED
        try:
            with self.rec.span(span) as record:
                out = fn(*args, **kw)
        except Exception as exc:  # the boundary that must keep running
            self._dead.add(span)
            self.mark(feeds, exc)
            return _FAILED
        return out, record["end"] - record["start"]

    def check(self, op: Op, result, where: str) -> None:
        self.verifier.check(op, result, where + " ")

    def guarded(self, feeds: Sequence[str], fn: Callable[[], None]) -> None:
        try:
            fn()
        except Exception as exc:  # the boundary that must keep running
            self.mark(feeds, exc)

    # -- the passes -------------------------------------------------------------------
    def run(self) -> None:
        w = self.w
        kernel_stats = self.probe("kernel_stats", (
            "engine.kernels.compiles", "engine.kernels.cache_hit_rate"))
        before = kernel_stats() if kernel_stats else None
        rounds = [w.round() for _ in range(w.layer_rounds)]
        if w.server is not None:
            self.guarded(_SERVED_METRICS, lambda: self.served_pass(rounds))
        else:
            self.mark(_SERVED_METRICS, NOT_APPLICABLE)
        self.walk_pass(rounds)
        self.guarded(_COLD_METRICS, self.cold_pass)
        if w.server is not None:
            self.guarded(_ANALYZE_METRICS, lambda: self.analyze_pass(rounds[0]))
        else:
            self.mark(_ANALYZE_METRICS + _EXECUTE_METRICS, NOT_APPLICABLE)
        if kernel_stats:
            after = kernel_stats()
            compiled = after["kernels_compiled"] - before["kernels_compiled"]
            hits = after["kernel_cache_hits"] - before["kernel_cache_hits"]
            self.values["engine.kernels.compiles"] = compiled
            if compiled + hits:
                self.values["engine.kernels.cache_hit_rate"] = \
                    hits / (compiled + hits)
        self.guarded(_STORAGE_METRICS, self.storage_pass)
        self.derive()

    # 1. the serving path, untraced then traced, round by round
    def served_pass(self, rounds: list[list[Op]]) -> None:
        w = self.w
        # The workload's own server already runs threads, so a second
        # worker pool must not fork.
        traced = w.make_server(obs=True, **(
            {"mp_context": "spawn"} if w.backend == "process" else {}))
        try:
            index = 0
            for ops in rounds:
                for op in ops:
                    w.before(op)
                    start = time.perf_counter()
                    rows = w.execute(op)
                    self._lat["server"][op.cls].append(
                        time.perf_counter() - start)
                    self.check(op, rows, "served")
                for op in ops:
                    w.before(op)
                    start = time.perf_counter()
                    result = traced.execute(op.query, trace=True,
                                            **dict(op.binds))
                    end = time.perf_counter()
                    self._lat["traced"][op.cls].append(end - start)
                    self.check(op, result.rows, "traced")
                    self.harvest(result.trace, start, end,
                                 f"served:{index}:{op.cls}")
                    index += 1
            stats = traced.stats()
        finally:
            traced.close()
        lookups = stats["cache_hits"] + stats["cache_misses"]
        self.values["service.plan_cache.hit_rate"] = \
            stats["cache_hits"] / lookups if lookups else 0.0
        self.values["service.plan_cache.invalidations"] = \
            stats["cache_invalidations"]
        self.values["service.server.rejected"] = (
            stats["rejected_queue_full"] + stats["rejected_quota"]
            + stats["rejected_circuit"])
        self.values["service.server.timeouts"] = stats["timeouts"]
        self.values["service.server.failed"] = stats["failed"]
        pool = ("service.backends.streamed_chunks",
                "service.backends.pool_rebuilds",
                "service.backends.worker_lower_hit_rate")
        if "streamed_chunks" in stats:
            self.values[pool[0]] = stats["streamed_chunks"]
            self.values[pool[1]] = stats["pool_rebuilds"]
            shipped = stats["subplan_cache_hits"] + stats["subplan_cache_misses"]
            if shipped:
                self.values[pool[2]] = stats["subplan_cache_hits"] / shipped
        else:
            self.mark(pool, NOT_APPLICABLE)
        self.samples["obs.tracing_overhead_us"] = [1e6 * self.difference(
            self._lat["traced"], self._lat["server"])]

    def harvest(self, trace, start: float, end: float, op_id: str) -> None:
        """Fold one query's program-side span tree into the recorder and
        read the serving-layer timings off it."""
        spans = list(trace.spans)
        finished = [s for s in spans if s.end is not None]
        root = next(s for s in finished if s.parent_id is None)
        base = start - root.start
        index_of: dict = {}
        by_name: dict[str, list] = defaultdict(list)
        for s in finished:
            by_name[s.name].append(s)
            index_of[s.span_id] = self.rec.add(
                f"program.{s.name}", base + s.start, base + s.end,
                index_of.get(s.parent_id), op_id)
        self.samples["obs.spans_per_query"].append(len(spans))
        for s in by_name["queue_wait"]:
            self.samples["service.server.queue_wait_us"].append(
                1e6 * (s.end - s.start))
        for stage in _STAGES:
            for s in by_name[stage]:
                self.samples[f"optimizer.{stage}_ms"].append(
                    1e3 * (s.end - s.start))
        # Share of the client's wait that falls inside a named span:
        # what is left is un-instrumented time in the root and in
        # `execute` (plus the hop back to the client).
        position = {s.span_id: i for i, s in enumerate(finished)}
        own: dict[str, float] = defaultdict(float)
        for s, seconds in zip(finished, measure.self_times(
                [{"start": s.start, "end": s.end,
                  "parent": position.get(s.parent_id)} for s in finished])):
            own[s.name] += seconds
        named = (root.end - root.start) - own["query"] - own["execute"]
        self.samples["_span_coverage"].append(named / (end - start))
        dispatches = by_name["shard_dispatch"]
        if not dispatches:
            return
        workers = {s.parent_id: s for s in by_name["worker_execute"]}
        runs = {s.parent_id: s for s in by_name["run"]}
        waits, slowest = [], 0.0
        for d in dispatches:
            worker = workers.get(d.span_id)
            if worker is None:
                continue
            waits.append((d.end - d.start) - (worker.end - worker.start))
            run = runs.get(worker.span_id)
            if run is not None:
                slowest = max(slowest, run.end - run.start)
        if waits:
            self.samples["service.backends.dispatch_ms"].append(
                1e3 * statistics.fmean(waits))
        for execute in by_name["execute"]:
            self.samples["service.backends.pool_tax_ms"].append(
                1e3 * ((execute.end - execute.start) - slowest))
        for merge in by_name["merge"]:
            busy = measure.covered(
                [(s.start, s.end) for s in workers.values()],
                merge.start, merge.end)
            self.samples["service.backends.merge_self_ms"].append(
                1e3 * ((merge.end - merge.start) - busy))

    # 2. the harness walks each operation through the layers
    def walk_pass(self, rounds: list[list[Op]]) -> None:
        w = self.w
        process = w.backend == "process"
        pickled = ("service.backends.task_pickle_bytes",
                   "service.backends.result_pickle_bytes")
        self._probes = {
            "split": self.probe("split_required_order", _FINGERPRINT),
            "fingerprint": self.probe("logical_fingerprint", _FINGERPRINT),
            "tables_of": self.probe("referenced_tables", _CACHE_GET),
            "context": self.probe("ExecutionContext", _EXECUTE_METRICS),
            "executor": self.probe("BatchedExecutor", _EXECUTE_METRICS),
            "shard": self.probe("shard_subplans",
                                ("engine.subplan.shard_us",) + pickled),
            "serial": self.probe("SerialBackend",
                                 ("engine.executor.serial_p4_ms",))
            if process else None,
        }
        if not process:
            self.mark(("engine.executor.serial_p4_ms",) + pickled,
                      NOT_APPLICABLE)
        sessions: dict = {}
        for round_index, ops in enumerate(rounds):
            for i, op in enumerate(ops):
                session = sessions.get((id(op.catalog), op.session))
                if session is None:
                    session = sessions[(id(op.catalog), op.session)] = \
                        QuerySession(op.catalog, **dict(op.session))
                with self.rec.span("op", op=f"walk:{round_index}:{i}:{op.cls}"):
                    w.before(op)
                    self.walk(op, session, first_round=round_index == 0)
        tallies = self._tallies
        if self._lat["run"]:
            for name in ("blocks_read", "blocks_written", "comparisons"):
                self.values[f"engine.{name}"] = tallies[name]
            self.values["engine.sort_runs_created"] = tallies["runs_created"]
            self.values["engine.sort_segments"] = tallies["segments_sorted"]
            self.values["engine.executor.rows_per_s"] = \
                tallies["rows_scanned"] / sum(
                    sum(v) for v in self._lat["run"].values())
        for name in pickled:
            if name in tallies:
                self.values[name] = tallies[name]

    def walk(self, op: Op, session, first_round: bool) -> None:
        """One operation, layer by layer, each call under its own span."""
        probes, sample = self._probes, self.samples
        expr = None
        if probes["split"] and probes["fingerprint"]:
            out = self.step("logical.fingerprint", _FINGERPRINT, lambda:
                            probes["fingerprint"](*probes["split"](op.query)))
            if out is not _FAILED:
                sample["logical.fingerprint_us"].append(1e6 * out[1])
                expr = probes["split"](op.query)[0]
        out = self.step("service.session.prepare",
                        ("service.session.prepare_warm_us",),
                        session.prepare, op.query, parallelism=op.parallelism)
        if out is _FAILED:
            return
        prepared, seconds = out
        if prepared.from_cache:
            sample["service.session.prepare_warm_us"].append(1e6 * seconds)
        if expr is not None and probes["tables_of"]:
            out = self.step("service.plan_cache.get", _CACHE_GET, lambda:
                            session.cache.get(
                                prepared.fingerprint,
                                op.catalog.table_versions(
                                    probes["tables_of"](expr))))
            if out is not _FAILED:
                sample["service.plan_cache.get_us"].append(1e6 * out[1])
        if self.w.server is None:
            # Planning only: the (cold) plan is the result.
            if not prepared.from_cache:
                self.check(op, prepared, "walked")
            return
        out = self.step("optimizer.bind", ("optimizer.bind_us",),
                        prepared.bind, **dict(op.binds))
        if out is _FAILED:
            return
        bound = out[0]
        sample["optimizer.bind_us"].append(1e6 * out[1])
        tasks = None
        if probes["shard"]:
            out = self.step("engine.subplan.shard",
                            ("engine.subplan.shard_us",),
                            probes["shard"], bound)
            if out is not _FAILED:
                tasks = out[0][1]
                sample["engine.subplan.shard_us"].append(1e6 * out[1])
        context, executor = probes["context"], probes["executor"]
        if context and executor:
            self.execute_metered(op, bound, context, executor, first_round)
        out = self.step("service.backends.run_plan",
                        ("service.backends.run_plan_ms",
                         "service.server.overhead_us"),
                        self.w.server.backend.run_plan, bound, op.catalog,
                        parallelism=op.parallelism)
        if out is not _FAILED:
            self.check(op, out[0], "run_plan")
            self._lat["run_plan"][op.cls].append(out[1])
            sample["service.backends.run_plan_ms"].append(1e3 * out[1])
        if probes["serial"]:
            out = self.step("engine.executor.serial_p4",
                            ("engine.executor.serial_p4_ms",),
                            probes["serial"]().run_plan, bound, op.catalog,
                            parallelism=op.parallelism)
            if out is not _FAILED:
                sample["engine.executor.serial_p4_ms"].append(1e3 * out[1])
        if probes["serial"] and tasks and context and executor \
                and first_round:
            self.guarded(("service.backends.task_pickle_bytes",
                          "service.backends.result_pickle_bytes"),
                         lambda: self.pickle_bytes(tasks, executor, context,
                                                   op.catalog))

    def execute_metered(self, op: Op, bound, context, executor,
                        first_round: bool) -> None:
        """Lower and run *bound* in-process on a metering context."""
        out = self.step("engine.lowering.lower",
                        ("engine.lowering.lower_us",),
                        bound.to_operator, op.catalog)
        if out is _FAILED:
            return
        self.samples["engine.lowering.lower_us"].append(1e6 * out[1])
        ctx = context(op.catalog)
        ran = self.step("engine.executor.run", _EXECUTE_METRICS,
                        executor(parallelism=op.parallelism).run, out[0], ctx)
        if ran is _FAILED:
            return
        self.check(op, ran[0], "walked")
        self._lat["run"][op.cls].append(ran[1])
        self.samples["engine.executor.run_ms"].append(1e3 * ran[1])
        self.meter(ctx, op, first_round)

    def meter(self, ctx, op: Op, first_round: bool) -> None:
        """Fold one metered execution's counters in."""
        counted = ctx.tallies()
        tallies = self._tallies
        for name in ("blocks_read", "blocks_written", "comparisons",
                     "runs_created", "segments_sorted"):
            tallies[name] += counted[name]
        for tag, (estimated, actual) in counted["operator_rows"].items():
            self._qerrors.append(qerror(estimated, actual))
            if op_class(tag) == "scan":
                tallies["rows_scanned"] += actual
        self._cost_units[op.cls].append(ctx.cost_units())
        if first_round:
            # The paper's metric: one metered round of the mix.
            self.values["exec_cost_units"] = \
                self.values.get("exec_cost_units", 0.0) + ctx.cost_units()

    def pickle_bytes(self, tasks, executor, context, catalog) -> None:
        """What the process backend would pickle for this operation:
        the shard tasks out, their rows back in chunks.  Computed here
        (``pickle.dumps``), not observed in the pool."""
        tallies = self._tallies
        for task in tasks:
            tallies["service.backends.task_pickle_bytes"] += len(
                pickle.dumps(task, pickle.HIGHEST_PROTOCOL))
            rows = executor().run(task.to_operator(catalog), context(catalog))
            for at in range(0, len(rows), _CHUNK_ROWS):
                tallies["service.backends.result_pickle_bytes"] += len(
                    pickle.dumps(rows[at:at + _CHUNK_ROWS],
                                 pickle.HIGHEST_PROTOCOL))

    # 3. one traced cold prepare per distinct plan
    def cold_pass(self) -> None:
        tracer_cls = self.probe("Tracer", tuple(
            f"optimizer.{stage}_ms" for stage in _STAGES))
        attach = self.probe("attach_plan_kernels",
                            ("engine.kernels.attach_ms",))
        counters = ("goals_examined", "goals_pruned", "memo_hits",
                    "failure_memo_hits", "join_order_candidates",
                    "shard_merge_plans", "post_union_sort_plans")
        totals: dict[str, int] = defaultdict(int)
        enforcers = 0
        costs, ratios = [], []
        wall = optimizing = 0.0
        for i, case in enumerate(self.w.cases()):
            op_id = f"cold:{i}:{case.label}"
            start = time.perf_counter()
            session = QuerySession(case.catalog, **dict(case.session))
            trace = tracer_cls().start("prepare") if tracer_cls else None
            epoch = time.perf_counter()
            if trace is not None:
                with trace.span("prepare"):
                    prepared = session.prepare(case.query,
                                               parallelism=case.parallelism)
            else:
                prepared = session.prepare(case.query,
                                           parallelism=case.parallelism)
            end = time.perf_counter()
            wall += end - start
            root = self.rec.add("op", start, end, None, op_id)
            for s in (trace.spans if trace is not None else ()):
                if s.end is None:
                    continue
                self.rec.add(f"program.{s.name}", epoch + s.start,
                             epoch + s.end, root, op_id)
                if s.name in _STAGES:
                    self.samples[f"optimizer.{s.name}_ms"].append(
                        1e3 * (s.end - s.start))
            stats = session.stats()
            optimizing += stats["optimize_seconds"]
            self.samples["optimizer.optimize_ms"].append(
                1e3 * stats["optimize_seconds"])
            for name in counters:
                totals[name] += stats[name]
            costs.append(prepared.total_cost)
            self.plans[case.label] = prepared.explain()
            enforcers += sum(1 for node in prepared.plan.walk()
                             if node.op in ("Sort", "PartialSort"))
            metered = self._cost_units.get(case.cls)
            if metered:
                ratios.append(prepared.total_cost / statistics.fmean(metered))
            if attach:
                raw = session.optimizer.optimize(
                    case.query, parallelism=case.parallelism)
                out = self.step("engine.kernels.attach",
                                ("engine.kernels.attach_ms",), attach, raw)
                if out is not _FAILED:
                    self.samples["engine.kernels.attach_ms"].append(
                        1e3 * out[1])
        for name in counters:
            self.values[f"optimizer.{name}"] = totals[name]
        self.values["optimizer.enforcers_in_plans"] = enforcers
        self.values["plan_cost_geomean"] = measure.geomean(costs)
        if ratios:
            self.values["optimizer.cost.est_over_metered"] = \
                measure.geomean(ratios)
        if wall:
            self.shares["optimize_share_of_cold_prepare"] = optimizing / wall

    # 4. EXPLAIN ANALYZE of every operation of one round
    def analyze_pass(self, ops: list[Op]) -> None:
        session = QuerySession(self.w.catalog)
        classes = ("scan", "sort", "merge_join", "hash_join", "aggregate",
                   "exchange", "other")
        wall = sorting = 0.0
        for op in ops:
            self.w.before(op)
            report = session.explain_analyze(
                op.query, parallelism=op.parallelism, **dict(op.binds))
            self.check(op, report.rows, "analyzed")
            own = operator_self_seconds(report.plan, report.node_reports())
            # The program's meter times an operator's next() calls only;
            # work done before the first batch is handed over (hash
            # builds, eager aggregation) is in no operator's time.  Keep
            # the classes adding up to the wall: the rest is "other".
            own["other"] = own.get("other", 0.0) + max(
                0.0, report.wall_seconds - sum(own.values()))
            for cls in classes:
                self.samples[f"engine.op.{cls}_ms"].append(
                    1e3 * own.get(cls, 0.0))
            wall += report.wall_seconds
            sorting += own.get("sort", 0.0)
        if wall:
            self.values["engine.enforcer_share"] = sorting / wall

    # 5. storage: statistics refresh and the worker handoff
    def storage_pass(self) -> None:
        catalog = self.w.catalog
        payload = self.probe("catalog_payload", (
            "storage.handoff.payload_ms", "storage.handoff.payload_bytes"))
        if payload:
            out = self.step("storage.handoff.payload",
                            ("storage.handoff.payload_ms",), payload, catalog)
            if out is not _FAILED:
                self.samples["storage.handoff.payload_ms"].append(1e3 * out[1])
                self.values["storage.handoff.payload_bytes"] = len(
                    pickle.dumps(out[0], pickle.HIGHEST_PROTOCOL))
        table = next((op.refresh for op in self.w.round() if op.refresh),
                     None) or max(
            (t for t in catalog.tables() if t.is_materialized),
            key=len).name
        for _ in range(3):
            out = self.step("storage.catalog.refresh_stats",
                            ("storage.catalog.refresh_stats_ms",),
                            catalog.refresh_stats, table)
            if out is not _FAILED:
                self.samples["storage.catalog.refresh_stats_ms"].append(
                    1e3 * out[1])

    # -- reduction ---------------------------------------------------------------------
    def difference(self, a: dict, b: dict) -> float:
        """Mix-weighted difference of per-class median latencies."""
        total = weight = 0.0
        for cls, values in a.items():
            if b.get(cls):
                total += len(values) * (statistics.median(values)
                                        - statistics.median(b[cls]))
                weight += len(values)
        if not weight:
            raise ValueError("no class measured on both paths")
        return total / weight

    def derive(self) -> None:
        lat = self._lat
        if lat["server"] and lat["run_plan"]:
            self.samples["service.server.overhead_us"] = [
                1e6 * self.difference(lat["server"], lat["run_plan"])]
        if lat["server"] and lat["run"] and self.w.backend != "process":
            # (Behind the pool the shards run side by side, so in-process
            # execution time is no share of the latency there.)
            mix = sum(len(v) * statistics.median(v)
                      for v in lat["server"].values())
            run = sum(len(lat["server"][c]) * statistics.median(v)
                      for c, v in lat["run"].items() if c in lat["server"])
            self.shares["execute_share_of_latency"] = run / mix
        coverage = self.samples.pop("_span_coverage", None)
        if coverage:
            self.shares["span_coverage_of_latency"] = \
                statistics.median(coverage)
        if self._qerrors:
            self.values["optimizer.cost.qerror_p50"] = \
                measure.percentile(self._qerrors, 50)
            self.values["optimizer.cost.qerror_max"] = max(self._qerrors)
        checked = self.verifier
        self.values["error_rate"] = \
            len(checked.failures) / checked.attempted \
            if checked.attempted else 0.0

    def results(self) -> dict[str, dict]:
        """name -> {"value", "unit"[, "reason"]} for every per-layer
        metric; ``value`` is ``None`` when it could not be measured."""
        out = {}
        for name, (unit, _) in registry.PER_LAYER.items():
            entry: dict = {"value": None, "unit": unit}
            if name in self.values:
                entry["value"] = self.values[name]
            elif self.samples.get(name):
                values = self.samples[name]
                # Operator-class times are per operation of the mix, and
                # most operations lack most classes: a mean, not a median.
                entry["value"] = statistics.fmean(values) \
                    if name.startswith("engine.op.") \
                    else statistics.median(values)
                entry["samples"] = len(values)
            else:
                entry["reason"] = self.unavailable.get(name, NOT_APPLICABLE)
            out[name] = entry
        return out


_FINGERPRINT = ("logical.fingerprint_us",)
_CACHE_GET = ("service.plan_cache.get_us",)
_SERVED_METRICS = (
    "service.plan_cache.hit_rate", "service.plan_cache.invalidations",
    "service.server.queue_wait_us", "service.server.rejected",
    "service.server.timeouts", "service.server.failed",
    "service.server.overhead_us", "service.backends.run_plan_ms",
    "service.backends.dispatch_ms", "service.backends.merge_self_ms",
    "service.backends.pool_tax_ms", "service.backends.streamed_chunks",
    "service.backends.pool_rebuilds",
    "service.backends.worker_lower_hit_rate",
    "obs.tracing_overhead_us", "obs.spans_per_query")
_EXECUTE_METRICS = (
    "engine.lowering.lower_us", "engine.executor.run_ms",
    "engine.executor.rows_per_s", "engine.executor.serial_p4_ms",
    "engine.subplan.shard_us", "engine.blocks_read", "engine.blocks_written",
    "engine.comparisons", "engine.sort_runs_created", "engine.sort_segments",
    "optimizer.bind_us", "optimizer.cost.qerror_p50",
    "optimizer.cost.qerror_max", "optimizer.cost.est_over_metered",
    "exec_cost_units", "service.backends.task_pickle_bytes",
    "service.backends.result_pickle_bytes")
_COLD_METRICS = (
    "plan_cost_geomean", "optimizer.optimize_ms", "optimizer.goals_examined",
    "optimizer.goals_pruned", "optimizer.memo_hits",
    "optimizer.failure_memo_hits", "optimizer.join_order_candidates",
    "optimizer.enforcers_in_plans", "optimizer.shard_merge_plans",
    "optimizer.post_union_sort_plans", "engine.kernels.attach_ms")
_ANALYZE_METRICS = tuple(
    f"engine.op.{cls}_ms" for cls in (
        "scan", "sort", "merge_join", "hash_join", "aggregate", "exchange",
        "other")) + ("engine.enforcer_share",)
_STORAGE_METRICS = (
    "storage.catalog.refresh_stats_ms", "storage.handoff.payload_ms",
    "storage.handoff.payload_bytes")
