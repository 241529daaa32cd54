"""Experiment A2 / Figure 8 — rate of output: tuples produced vs time.

MRS starts emitting immediately (first segment closes after ~N/k rows);
SRS emits its first tuple only after consuming the entire input.  We
chart cost-units-so-far against tuples produced.
"""

import pytest

from repro.bench import format_table, run_plan
from repro.core.sort_order import SortOrder
from repro.engine import Sort, TableScan
from repro.storage import SystemParameters
from repro.workloads import segmented_catalog

NUM_ROWS = 60_000
DISTINCT_C1 = 6_000  # 10 rows per segment — the paper used 10,000 of 10M


@pytest.fixture(scope="module")
def catalog():
    params = SystemParameters(block_size=4096, sort_memory_blocks=64)
    return segmented_catalog(NUM_ROWS, NUM_ROWS // DISTINCT_C1, params=params)


def _sort_plan(catalog, algorithm):
    scan = TableScan(catalog.table("r"))
    prefix = SortOrder(["c1"]) if algorithm == "mrs" else SortOrder(())
    return Sort(scan, SortOrder(["c1", "c2"]), algorithm=algorithm,
                known_prefix=prefix)


def test_fig8_rate_of_output(benchmark, catalog, results_sink):
    sample = NUM_ROWS // 10

    srs = run_plan(_sort_plan(catalog, "srs"), catalog, "SRS",
                   sample_every=sample)
    mrs = benchmark.pedantic(
        lambda: run_plan(_sort_plan(catalog, "mrs"), catalog, "MRS",
                         sample_every=sample),
        rounds=3, iterations=1)

    assert srs.rows == mrs.rows == NUM_ROWS

    # First 10% of output: MRS must have paid only a sliver of its total
    # cost; SRS has already paid nearly everything (full input consumed).
    srs_first = srs.output_timeline[0][1] / srs.cost_units
    mrs_first = mrs.output_timeline[0][1] / max(mrs.cost_units, 1e-9)
    assert srs_first > 0.5, f"SRS produced early unexpectedly ({srs_first:.2f})"
    assert mrs_first < 0.35, f"MRS not pipelined ({mrs_first:.2f})"

    rows = []
    for (n_s, c_s), (n_m, c_m) in zip(srs.output_timeline, mrs.output_timeline):
        rows.append([n_s, round(c_s, 1), round(c_m, 1)])
    results_sink(format_table(
        ["tuples produced", "SRS cost so far", "MRS cost so far"],
        rows,
        title=(f"Figure 8 — Experiment A2: rate of output "
               f"({NUM_ROWS} rows, {DISTINCT_C1} distinct c1); "
               f"cost at first decile: SRS {100*srs_first:.0f}% vs "
               f"MRS {100*mrs_first:.0f}% of total")))
    benchmark.extra_info["srs_first_decile_fraction"] = round(srs_first, 3)
    benchmark.extra_info["mrs_first_decile_fraction"] = round(mrs_first, 3)


def test_fig8_first_tuple_latency(catalog, benchmark):
    """Time-to-first-tuple: MRS ≪ SRS."""
    import itertools
    from repro.engine import ExecutionContext

    def first_tuple_cost(algorithm):
        ctx = ExecutionContext(catalog)
        op = _sort_plan(catalog, algorithm)
        next(op.execute_batches(ctx))
        return ctx.cost_units()

    mrs_cost = benchmark.pedantic(lambda: first_tuple_cost("mrs"),
                                  rounds=3, iterations=1)
    srs_cost = first_tuple_cost("srs")
    assert mrs_cost < srs_cost / 5
