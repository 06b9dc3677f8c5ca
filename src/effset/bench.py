"""Timing harness comparing the search against brute-force enumeration.

Instances are drawn per (criteria, constraints, variables) group over a
run of seeds. The brute-force pass is optional in the sense that it may
refuse oversized boxes; a refused pass counts as a solver win, since the
search returned an answer the enumerator could not.

Both `cpu` and `oracle_cpu` are process CPU seconds (`time.process_time`),
so time other processes take from a shared host is not charged to either
side. `evaluated` counts the distinct integer node optima of the search, the
points it ran membership on; `efficient_unvisited` counts the points of
X_E | X_E' (criteria-efficient or utility-efficient, as the scan finds them)
that the search never evaluated.
"""
from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Sequence

from . import branch_cut, oracle
from .errors import EnumerationBudgetExceeded
from .generator import GeneratorConfig, generate
from .model import Point

SUMMARY_COLUMNS = (
    "r",
    "m",
    "n",
    "cpu_mean",
    "cpu_max",
    "cpu_min",
    "nodes_mean",
    "nodes_max",
    "nodes_min",
    "mu",
)


@dataclass(frozen=True)
class BenchRecord:
    r: int
    m: int
    n: int
    seed: int
    cpu: float
    nodes: int
    solutions: int
    oracle_cpu: float | None
    oracle_feasible: int | None
    oracle_efficient: int | None
    agreed: bool | None
    win: bool
    evaluated: int
    efficient_unvisited: int | None


DETAIL_COLUMNS = tuple(f.name for f in fields(BenchRecord))


def coverage(
    report: branch_cut.SearchReport,
    x_e: Iterable[Point] | None,
    x_ep: Iterable[Point] | None,
) -> tuple[int, int | None]:
    """(evaluated, efficient_unvisited) for one search. The evaluated points
    are the distinct integer node optima on the report's trace; the second
    count is the number of points of x_e | x_ep not among them, or None
    when either set is missing."""
    evaluated = {
        tuple(int(v) for v in rec.point)
        for rec in report.trace
        if rec.point is not None and all(v.denominator == 1 for v in rec.point)
    }
    if x_e is None or x_ep is None:
        return len(evaluated), None
    return len(evaluated), len((set(x_e) | set(x_ep)) - evaluated)


def run_benchmark(
    groups: Sequence[tuple[int, int, int]],
    seeds: int = 10,
    base_seed: int = 0,
    oracle_budget: int = oracle.DEFAULT_BUDGET,
    generator_overrides: Mapping | None = None,
    compare: bool = True,
) -> list[BenchRecord]:
    """Each group is (criteria, constraints, variables). Returns one record
    per group and seed. compare=False skips the brute-force pass entirely."""
    overrides = dict(generator_overrides or {})
    records = []
    for r, m, n in groups:
        for offset in range(seeds):
            cfg = GeneratorConfig(
                num_vars=n,
                num_constraints=m,
                num_criteria=r,
                seed=base_seed + offset,
                **overrides,
            )
            inst = generate(cfg)

            start = time.process_time()
            report = branch_cut.run(inst)
            cpu = time.process_time() - start

            oracle_cpu = feasible = efficient = agreed = None
            x_e = x_ep = None
            if compare:
                start = time.process_time()
                try:
                    points = oracle.enumerate_feasible(inst, oracle_budget)
                    x_e = oracle.maximal_points(points, inst.criteria)
                    x_ep = oracle.maximal_points(points, inst.utilities)
                except EnumerationBudgetExceeded:
                    pass
                else:
                    oracle_cpu = time.process_time() - start
                    feasible = len(points)
                    efficient = len(x_e)
                    agreed = report.solution_points() == set(x_e) & set(x_ep)

            win = oracle_cpu is None or cpu < oracle_cpu
            evaluated, unvisited = coverage(report, x_e, x_ep)
            records.append(
                BenchRecord(
                    r,
                    m,
                    n,
                    cfg.seed,
                    cpu,
                    report.nodes_processed,
                    len(report.solutions),
                    oracle_cpu,
                    feasible,
                    efficient,
                    agreed,
                    win,
                    evaluated,
                    unvisited,
                )
            )
    return records


def summarize(records: Sequence[BenchRecord]) -> list[dict]:
    """One row per (r, m, n) group, in first-seen order. mu is the mean
    count of criteria-efficient points over the seeds whose brute-force
    pass ran; it is None when every pass was refused."""
    grouped: dict[tuple[int, int, int], list[BenchRecord]] = {}
    for rec in records:
        grouped.setdefault((rec.r, rec.m, rec.n), []).append(rec)

    rows = []
    for key, batch in grouped.items():
        cpus = [rec.cpu for rec in batch]
        nodes = [rec.nodes for rec in batch]
        mus = [rec.oracle_efficient for rec in batch if rec.oracle_efficient is not None]
        rows.append(
            {
                "r": key[0],
                "m": key[1],
                "n": key[2],
                "cpu_mean": statistics.fmean(cpus),
                "cpu_max": max(cpus),
                "cpu_min": min(cpus),
                "nodes_mean": statistics.fmean(nodes),
                "nodes_max": max(nodes),
                "nodes_min": min(nodes),
                "mu": statistics.fmean(mus) if mus else None,
            }
        )
    return rows


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def write_summary_csv(records: Sequence[BenchRecord], stream) -> None:
    writer = csv.writer(stream)
    writer.writerow(SUMMARY_COLUMNS)
    for row in summarize(records):
        writer.writerow(_cell(row[col]) for col in SUMMARY_COLUMNS)


def write_detail_csv(records: Sequence[BenchRecord], stream) -> None:
    writer = csv.writer(stream)
    writer.writerow(DETAIL_COLUMNS)
    for rec in records:
        writer.writerow(_cell(getattr(rec, col)) for col in DETAIL_COLUMNS)
