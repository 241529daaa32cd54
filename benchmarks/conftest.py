"""Shared benchmark fixtures: cached catalogs and a results sink.

Every benchmark prints a paper-style table *and* appends it to
``results/benchmarks.txt``, so the regenerated figures survive pytest's
output capture.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def results_sink():
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "benchmarks.txt"
    handle = path.open("a")

    def write(text: str) -> None:
        print("\n" + text)
        handle.write(text + "\n\n")
        handle.flush()

    yield write
    handle.close()


@pytest.fixture(scope="session")
def tpch_exec_catalog():
    """Materialised TPC-H-like catalog for execution experiments.

    Scale 1/200 of the paper's SF1 (30K lineitem rows) keeps wall time
    in seconds while preserving the lineitem:partsupp ratio.
    """
    from repro.storage import SystemParameters
    from repro.workloads import (
        add_query1_indexes,
        add_query2_indexes,
        add_query3_indexes,
        tpch_catalog,
    )
    # 64 KB of sort memory: external effects appear at this scale.
    params = SystemParameters(block_size=4096, sort_memory_blocks=16)
    cat = tpch_catalog(scale=0.005, seed=7, params=params)
    add_query1_indexes(cat)
    add_query2_indexes(cat)
    add_query3_indexes(cat)
    return cat


@pytest.fixture(scope="session")
def tpch_paper_stats():
    """Stats-only TPC-H at the paper's full scale (optimizer experiments)."""
    from repro.workloads import add_query3_indexes, tpch_stats_catalog
    cat = tpch_stats_catalog()
    add_query3_indexes(cat)
    return cat


@pytest.fixture(scope="session")
def r_tables_exec_catalog():
    """Materialised R1..R3 for Query 4 execution (scaled from 100K rows)."""
    from repro.storage import SystemParameters
    from repro.workloads import identical_r_tables
    params = SystemParameters(block_size=4096, sort_memory_blocks=16)
    return identical_r_tables(num_rows=20_000, params=params)


@pytest.fixture(scope="session")
def query3():
    from repro import workloads
    return workloads.query3()
