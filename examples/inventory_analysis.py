"""The paper's Query 3: parts running out of stock (Experiment B1).

Demonstrates the cost-based choice of interesting orders: the covering
indexes favour (suppkey, partkey); the clustering index favours
(partkey, suppkey); the ORDER BY favours partkey-first.  The optimizer
must weigh all three — and lands on the paper's Figure 10(b) plan.

Run:  python examples/inventory_analysis.py
"""

from repro.engine import ExecutionContext
from repro.optimizer import Optimizer
from repro.optimizer.baselines import postgres_default_q3, pyro_o_q3
from repro.storage import SystemParameters
from repro.workloads import (
    add_query3_indexes,
    query3,
    tpch_catalog,
    tpch_stats_catalog,
)


def main() -> None:
    # Optimizer study at TPC-H scale factor 1 (stats only).
    stats = tpch_stats_catalog()
    add_query3_indexes(stats)
    plan = Optimizer(stats, strategy="pyro-o", enable_hash_join=False,
                     enable_hash_aggregate=False).optimize(query3())
    print("Query 3 plan chosen at TPC-H SF1 (paper Figure 10b):")
    print(plan.explain())

    # Execute both the PostgreSQL-default shape and the PYRO-O shape on
    # materialised data and compare.  Sort memory is scaled down with the
    # data (64 KB) so the full sort of the lineitem index goes external,
    # as it does at the paper's scale.
    params = SystemParameters(block_size=4096, sort_memory_blocks=16)
    exec_cat = tpch_catalog(scale=0.005, seed=7, params=params)
    add_query3_indexes(exec_cat)
    print("\nQuery 3 executed at 1/200 scale:")
    costs = []
    for label, build in (("PostgreSQL default (full sorts + hash agg)",
                          postgres_default_q3),
                         ("PYRO-O (partial sorts + group agg)", pyro_o_q3)):
        ctx = ExecutionContext(exec_cat)
        rows = build(exec_cat).execute(exec_cat, ctx)
        costs.append(ctx.cost_units())
        print(f"  {label:<44} {len(rows):>5,} rows  "
              f"{ctx.cost_units():>7,.1f} cost units  "
              f"{ctx.io.total_blocks:>5,} blocks  "
              f"{ctx.comparisons.value:>9,} comparisons")
    print(f"\nSpeedup (cost units): "
          f"{costs[0] / costs[1]:.2f}x "
          f"(paper Fig. 12: ~3x on PostgreSQL)")


if __name__ == "__main__":
    main()
