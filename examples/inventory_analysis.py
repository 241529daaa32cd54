"""The paper's Query 3: parts running out of stock (Experiment B1).

Demonstrates the cost-based choice of interesting orders: the covering
indexes favour (suppkey, partkey); the clustering index favours
(partkey, suppkey); the ORDER BY favours partkey-first.  The optimizer
must weigh all three — and lands on the paper's Figure 10(b) plan.

Run:  python examples/inventory_analysis.py
"""

from repro.bench import format_table, postgres_default_q3, pyro_o_q3, run_plan
from repro.optimizer import Optimizer
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
    default = run_plan(postgres_default_q3(exec_cat), exec_cat,
                       "PostgreSQL default (full sorts + hash agg)")
    ours = run_plan(pyro_o_q3(exec_cat), exec_cat,
                    "PYRO-O (partial sorts + group agg)")
    print()
    print(format_table(
        ["plan", "rows", "cost units", "blocks", "comparisons", "wall s"],
        [[r.label, r.rows, r.cost_units, r.total_blocks, r.comparisons,
          r.wall_seconds] for r in (default, ours)],
        title="Query 3 executed at 1/200 scale"))
    print(f"\nSpeedup (cost units): "
          f"{default.cost_units / ours.cost_units:.2f}x "
          f"(paper Fig. 12: ~3x on PostgreSQL)")


if __name__ == "__main__":
    main()
