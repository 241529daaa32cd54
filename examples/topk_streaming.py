"""Top-K with early output: the pipelining benefit of MRS (§3.1).

"Producing tuples early has immense benefits for Top-K queries and
situations where the user retrieves only some result tuples."  With the
input clustered on the first ORDER BY column, MRS + LIMIT answers a
top-k query after sorting *one segment*; SRS must consume everything.

Run:  python examples/topk_streaming.py
"""

from repro.bench import format_table
from repro.core.sort_order import SortOrder
from repro.engine import ExecutionContext, Limit, Sort, TableScan
from repro.storage import SystemParameters
from repro.workloads import segmented_catalog

NUM_ROWS = 50_000
ROWS_PER_SEGMENT = 50
K = 100


def run(algorithm: str):
    params = SystemParameters(block_size=4096, sort_memory_blocks=64)
    catalog = segmented_catalog(NUM_ROWS, ROWS_PER_SEGMENT, params=params)
    scan = TableScan(catalog.table("r"))
    prefix = SortOrder(["c1"]) if algorithm == "mrs" else SortOrder(())
    sort = Sort(scan, SortOrder(["c1", "c2"]), algorithm=algorithm,
                known_prefix=prefix)
    plan = Limit(sort, K)
    ctx = ExecutionContext(catalog)
    rows = plan.run(ctx)
    return rows, ctx


def main() -> None:
    srs_rows, srs_ctx = run("srs")
    mrs_rows, mrs_ctx = run("mrs")
    assert [r[:2] for r in srs_rows] == [r[:2] for r in mrs_rows]

    print(format_table(
        ["variant", "cost units", "comparisons", "blocks r+w"],
        [["SRS + LIMIT (full sort first)", round(srs_ctx.cost_units(), 2),
          srs_ctx.comparisons.value, srs_ctx.io.total_blocks],
         ["MRS + LIMIT (stops after 2 segments)",
          round(mrs_ctx.cost_units(), 2), mrs_ctx.comparisons.value,
          mrs_ctx.io.total_blocks]],
        title=f"Top-{K} of ORDER BY (c1, c2) over {NUM_ROWS} rows "
              f"clustered on c1"))
    gain = srs_ctx.cost_units() / max(mrs_ctx.cost_units(), 1e-9)
    print(f"\nMRS answers the Top-{K} query {gain:,.0f}x cheaper — it sorts "
          f"only ⌈{K}/{ROWS_PER_SEGMENT}⌉ segments and never touches the "
          f"rest of the input.")


if __name__ == "__main__":
    main()
