"""Command line front end.

Exit codes: 0 success, 1 no solutions (infeasible instance or empty
intersection, the empty set is still printed), 2 assumption violation,
3 malformed instance file, 4 enumeration budget exceeded, 5 internal
invariant violated (a solver defect, not an input problem).
"""
from __future__ import annotations

import argparse
import sys

from . import bench as bench_mod
from . import branch_cut, instances, oracle
from .errors import (
    AssumptionViolated,
    EnumerationBudgetExceeded,
    GenerationFailed,
    InvariantViolated,
    ParseError,
)
from .generator import GeneratorConfig, generate
from .model import ProblemInstance

EXIT_OK = 0
EXIT_EMPTY = 1
EXIT_ASSUMPTION = 2
EXIT_PARSE = 3
EXIT_BUDGET = 4
EXIT_INVARIANT = 5

_OBJECTIVE = {"f1": 0, "f2": 1}


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _values(seq) -> str:
    return " ".join(str(v) for v in seq)


def _point_text(pt) -> str:
    return "(" + ", ".join(str(v) for v in pt) + ")"


def _load(path: str) -> ProblemInstance:
    return instances.load(path)


def _run_search(inst: ProblemInstance, args) -> branch_cut.SearchReport:
    return branch_cut.run(
        inst, strategy=args.strategy, objective=_OBJECTIVE[args.objective]
    )


def _cmd_solve(args) -> int:
    report = _run_search(_load(args.file), args)
    if args.format == "csv":
        print("point,criteria,utilities")
        for rec in report.solutions:
            print(
                f"{_values(rec.point)},{_values(rec.criteria_values)},"
                f"{_values(rec.utility_values)}"
            )
    else:
        print(f"solution set: {len(report.solutions)} point(s)")
        for rec in report.solutions:
            print(
                f"x = {_point_text(rec.point)}  criteria = "
                f"{_point_text(rec.criteria_values)}  utilities = "
                f"{_point_text(rec.utility_values)}"
            )
        print(f"nodes processed: {report.nodes_processed}")
    return EXIT_OK if report.solutions else EXIT_EMPTY


def _cmd_trace(args) -> int:
    report = _run_search(_load(args.file), args)
    def fmt_set(s):
        return "{" + ",".join(f"x{j}" for j in sorted(s)) + "}" if s is not None else "-"

    if args.format == "csv":
        print("node,parent,action,point,value,h,hprime")
        for rec in report.trace:
            parent = "" if rec.parent is None else rec.parent
            point = _values(rec.point) if rec.point is not None else ""
            value = rec.value if rec.value is not None else ""
            h = _values(sorted(rec.h)) if rec.h is not None else ""
            hp = _values(sorted(rec.hprime)) if rec.hprime is not None else ""
            print(f"{rec.node_id},{parent},{rec.action},{point},{value},{h},{hp}")
    else:
        for rec in report.trace:
            parent = "root" if rec.parent is None else f"parent {rec.parent}"
            line = f"node {rec.node_id} ({parent}): {rec.action}"
            if rec.point is not None:
                line += f" point={_point_text(rec.point)} value={rec.value}"
            if rec.h is not None:
                line += f" H={fmt_set(rec.h)} H'={fmt_set(rec.hprime)}"
            print(line)
        print(f"solutions: {', '.join(_point_text(r.point) for r in report.solutions) or 'none'}")
    return EXIT_OK if report.solutions else EXIT_EMPTY


def _cmd_enumerate(args) -> int:
    inst = _load(args.file)
    x_e, x_ep, both = oracle.efficient_sets(inst, args.budget)
    sections = (
        ("criteria-efficient", x_e),
        ("utility-efficient", x_ep),
        ("common", both),
    )
    if args.format == "csv":
        print("set,point")
        for name, points in sections:
            for pt in points:
                print(f"{name},{_values(pt)}")
    else:
        for name, points in sections:
            body = " ".join(_point_text(pt) for pt in points) or "(empty)"
            print(f"{name} ({len(points)}): {body}")
    return EXIT_OK if both else EXIT_EMPTY


def _cmd_check(args) -> int:
    inst = _load(args.file)
    report = _run_search(inst, args)
    _, _, both = oracle.efficient_sets(inst, args.budget)
    solver_set = report.solution_points()
    oracle_set = set(both)
    print(f"solver:     {' '.join(map(_point_text, sorted(solver_set))) or '(empty)'}")
    print(f"exhaustive: {' '.join(map(_point_text, sorted(oracle_set))) or '(empty)'}")
    if solver_set != oracle_set:
        print("verdict: MISMATCH")
        return EXIT_EMPTY
    print("verdict: agree")
    return EXIT_OK if solver_set else EXIT_EMPTY


def _cmd_generate(args) -> int:
    cfg = GeneratorConfig(
        num_vars=args.vars,
        num_constraints=args.constraints,
        num_criteria=args.criteria,
        seed=args.seed,
    )
    text = instances.dumps(generate(cfg))
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _parse_group(token: str) -> tuple[int, int, int]:
    parts = token.lower().split("x")
    if len(parts) != 3 or not all(p.isdigit() for p in parts):
        raise argparse.ArgumentTypeError(
            f"group {token!r} must look like RxMxN, e.g. 3x10x5"
        )
    r, m, n = map(int, parts)
    return r, m, n


def _cmd_bench(args) -> int:
    records = bench_mod.run_benchmark(
        args.groups,
        seeds=args.seeds,
        base_seed=args.seed,
        oracle_budget=args.budget,
        compare=not args.no_compare,
    )
    if args.detail:
        with open(args.detail, "w", newline="") as handle:
            bench_mod.write_detail_csv(records, handle)
    if args.format == "csv":
        bench_mod.write_summary_csv(records, sys.stdout)
    else:
        rows = bench_mod.summarize(records)
        header = " ".join(f"{c:>10}" for c in bench_mod.SUMMARY_COLUMNS)
        print(header)
        for row in rows:
            cells = []
            for col in bench_mod.SUMMARY_COLUMNS:
                v = row[col]
                if v is None:
                    cells.append(f"{'-':>10}")
                elif isinstance(v, float):
                    cells.append(f"{v:>10.4f}")
                else:
                    cells.append(f"{v:>10}")
            print(" ".join(cells))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effset",
        description="Exact solver for the common efficient points of ratio "
        "criteria and a utility pair over integer polytopes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_search_flags(p):
        p.add_argument(
            "--objective",
            choices=("f1", "f2"),
            default="f1",
            help="which utility each node maximizes (the result set is the same)",
        )
        p.add_argument(
            "--strategy",
            choices=("dfs", "bfs"),
            default="dfs",
            help="node visiting order (the result set is the same)",
        )

    def add_format_flag(p):
        p.add_argument("--format", choices=("text", "csv"), default="text")

    p = sub.add_parser("solve", help="run the search, print the solution set")
    p.add_argument("file")
    add_search_flags(p)
    add_format_flag(p)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("trace", help="run the search, print the full node trace")
    p.add_argument("file")
    add_search_flags(p)
    add_format_flag(p)
    p.set_defaults(handler=_cmd_trace)

    p = sub.add_parser("enumerate", help="brute-force the efficient sets")
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=oracle.DEFAULT_BUDGET)
    add_format_flag(p)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("check", help="solve and brute-force, compare the answers")
    p.add_argument("file")
    add_search_flags(p)
    p.add_argument("--budget", type=int, default=oracle.DEFAULT_BUDGET)
    add_format_flag(p)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("generate", help="draw a random instance file")
    p.add_argument("--vars", "-n", type=int, required=True)
    p.add_argument("--constraints", "-m", type=int, required=True)
    p.add_argument("--criteria", "-k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", help="write here instead of stdout")
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("bench", help="time the search against brute force")
    p.add_argument("groups", nargs="+", type=_parse_group, metavar="RxMxN")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0, help="first seed of the run")
    p.add_argument("--budget", type=int, default=oracle.DEFAULT_BUDGET)
    p.add_argument("--no-compare", action="store_true", help="skip brute force")
    p.add_argument("--detail", help="also write one CSV row per instance here")
    add_format_flag(p)
    p.set_defaults(handler=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except FileNotFoundError as exc:
        return _fail(f"cannot read {exc.filename}", EXIT_PARSE)
    except ParseError as exc:
        return _fail(str(exc), EXIT_PARSE)
    except AssumptionViolated as exc:
        if exc.reason == "empty-domain":
            print("solution set: 0 point(s)")
            return _fail(str(exc), EXIT_EMPTY)
        return _fail(str(exc), EXIT_ASSUMPTION)
    except GenerationFailed as exc:
        return _fail(str(exc), EXIT_ASSUMPTION)
    except EnumerationBudgetExceeded as exc:
        return _fail(str(exc), EXIT_BUDGET)
    except InvariantViolated as exc:
        return _fail(f"internal invariant violated: {exc}", EXIT_INVARIANT)


if __name__ == "__main__":
    sys.exit(main())
