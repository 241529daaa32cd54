"""Top-K with early output: the pipelining benefit of MRS (§3.1).

"Producing tuples early has immense benefits for Top-K queries and
situations where the user retrieves only some result tuples."  With the
input clustered on the first ORDER BY column, MRS + LIMIT answers a
top-k query after sorting *one segment*; SRS must consume everything.

Run:  python examples/topk_streaming.py
"""

from repro.core.sort_order import SortOrder
from repro.engine import ExecutionContext, Limit, Sort, TableScan
from repro.storage import SystemParameters
from repro.workloads import segmented_catalog

NUM_ROWS = 50_000
ROWS_PER_SEGMENT = 50
K = 100


def run(prefix: SortOrder):
    """Top-k over a sort told *prefix* of its target: ε is a full sort
    (SRS), ``(c1)`` the partial sort (MRS)."""
    params = SystemParameters(block_size=4096, sort_memory_blocks=64)
    catalog = segmented_catalog(NUM_ROWS, ROWS_PER_SEGMENT, params=params)
    scan = TableScan(catalog.table("r"))
    sort = Sort(scan, SortOrder(["c1", "c2"]), known_prefix=prefix)
    plan = Limit(sort, K)
    ctx = ExecutionContext(catalog)
    rows = plan.run(ctx)
    return rows, ctx


def main() -> None:
    srs_rows, srs_ctx = run(SortOrder(()))
    mrs_rows, mrs_ctx = run(SortOrder(["c1"]))
    assert [r[:2] for r in srs_rows] == [r[:2] for r in mrs_rows]

    print(f"Top-{K} of ORDER BY (c1, c2) over {NUM_ROWS} rows clustered on c1")
    for label, ctx in (("SRS + LIMIT (full sort first)", srs_ctx),
                       ("MRS + LIMIT (stops after 2 segments)", mrs_ctx)):
        print(f"  {label:<38} {ctx.cost_units():>9,.2f} cost units  "
              f"{ctx.comparisons.value:>9,} comparisons  "
              f"{ctx.io.total_blocks:>5,} blocks r+w")
    gain = srs_ctx.cost_units() / max(mrs_ctx.cost_units(), 1e-9)
    print(f"\nMRS answers the Top-{K} query {gain:,.0f}x cheaper — it sorts "
          f"only ⌈{K}/{ROWS_PER_SEGMENT}⌉ segments and never touches the "
          f"rest of the input.")


if __name__ == "__main__":
    main()
