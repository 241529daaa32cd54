"""Queries 5 and 6: the financial-trading workload of Experiment B3.

Query 5 — executed value per order — is a five-attribute self-join where
the PostgreSQL-style heuristic has 5 candidate orders but picks the
secondary attributes arbitrarily; the clustering index on
(userid, basketid, parentorderid) rewards a three-deep prefix match
only PYRO-O finds.

Run:  python examples/trading_analytics.py
"""

from repro.engine import ExecutionContext
from repro.optimizer import Optimizer
from repro.workloads import query5, query6, trading_catalog, trading_stats_catalog

STRATEGIES = ["pyro", "pyro-o-", "pyro-p", "pyro-o", "pyro-e"]


def main() -> None:
    stats = trading_stats_catalog()
    print("Normalized estimated plan costs (PYRO-E = 100), paper Figure 15:\n")
    print(f"{'query':<20}" + "".join(f"{s:>9}" for s in STRATEGIES))
    for name, q in (("Q5 executed value", query5()),
                    ("Q6 basket analytics", query6())):
        costs = {}
        for s in STRATEGIES:
            opt = Optimizer(stats, strategy=s, enable_hash_join=False,
                            enable_hash_aggregate=False,
                            refine=s in ("pyro-o", "pyro-o-"))
            costs[s] = opt.optimize(q).total_cost
        print(f"{name:<20}" + "".join(
            f"{100 * costs[s] / costs['pyro-e']:>9.1f}" for s in STRATEGIES))

    print("\nPYRO-O's Query 5 plan (10M-row TRAN, stats-only):")
    plan = Optimizer(stats, strategy="pyro-o", enable_hash_join=False,
                     enable_hash_aggregate=False).optimize(query5())
    print(plan.explain())

    # Execute Query 5 end-to-end on a materialised scaled catalog.
    exec_cat = trading_catalog(scale=0.01)
    plan = Optimizer(exec_cat, strategy="pyro-o").optimize(query5())
    ctx = ExecutionContext(exec_cat)
    rows = plan.execute(exec_cat, ctx)
    print(f"\nExecuted Query 5 at 1/100 scale: {len(rows)} orders, "
          f"{ctx.io.total_blocks} block I/Os.")
    print("Sample:", rows[:2])


if __name__ == "__main__":
    main()
