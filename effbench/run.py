"""effset benchmark: seeded workloads, end-to-end metrics, traced layers.

    python3 effbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Instances come from `effset.generator.generate` at consecutive generator
seeds starting at --seed. Set-up (generation, which validates, plus the
brute-force reference answers) happens before any timing and is repeated
SETUP_REPEATS times; `setup_s` is the median. One caller drives the
program in a closed loop from this process: each operation starts when
the previous one has returned and been checked against the oracle.

Both modes run a fixed batch of instances whose size follows --seconds, so
the work of a run depends on the seed and --seconds only, never on how
fast the host or the program is; the batch is sized to take about
--seconds on a shared 2-vCPU x86_64 VM.

--trace 0 runs the batch once untraced and prints the end-to-end metrics.
Their times are scaled to a reference speed (see REF_UNIT_S); the table
prints the wall figures beside them.

--trace 1 runs a smaller batch traced, untraced and traced again
(`tracing.instrument`), checks that the two traced passes give identical
counts and that their spans cover the timed loop, and prints the
per-layer metrics of the first.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Lines before it are a results header and
a human-readable table of every metric with its unit and sample count.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"
DECLARED = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 3

# The host's speed drifts: a fixed Fraction loop ran anywhere from 72 to 129
# times a second within one minute on a shared 2-vCPU x86_64 VM, with CPU
# time equal to wall time. So every timing is also scaled to a reference
# speed, measured by a calibration loop that runs between operations at
# least every CAL_EVERY_S seconds: a scaled time is the raw time times
# REF_UNIT_S over the reference unit's current duration.
CAL_EVERY_S = 0.5
CAL_REPEATS = 5
REF_UNIT_S = 0.003


def import_effset() -> None:
    """Put this checkout's sources first on the path, or exit without a result."""
    if not (SRC / "effset" / "__init__.py").is_file():
        raise SystemExit(f"effbench: no effset sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import effset

    if Path(effset.__file__).resolve().parent != SRC / "effset":
        raise SystemExit(f"effbench: imported effset from {effset.__file__}, not {SRC}")


# Both workloads draw 3 criteria x 10 constraints x 5 variables, the
# `effset bench` group whose searches split about evenly between node
# ratio solves and membership MILPs. 3x10x10 is not a workload: one of its
# instances takes 2-45 s, too few fit in a run for a steady figure.
SIZE = "3x10x5"


def config(seed: int):
    from effset.generator import GeneratorConfig

    return GeneratorConfig(num_vars=5, num_constraints=10, num_criteria=3, seed=seed)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "search": branch_cut.run per instance; "membership": one query per point
    per_s: float  # untraced batch: instances per second of --seconds
    trace_per_s: float  # traced batch: the same


WORKLOADS = {
    w.name: w
    for w in (
        Workload("search-3x10x5", "search", per_s=1.0, trace_per_s=0.4),
        Workload("membership-3x10x5", "membership", per_s=0.9, trace_per_s=0.32),
    )
}


@dataclass(frozen=True)
class Case:
    seed: int
    inst: object
    digest: str
    criteria_efficient: frozenset
    utility_efficient: frozenset
    solution_set: frozenset
    points: tuple  # feasible integer points, membership workloads only


def digest(inst) -> str:
    from effset.instances import dumps

    return hashlib.sha256(dumps(inst).encode()).hexdigest()


def prepare(w: Workload, seed: int, count: int) -> list[Case]:
    """Generate (and so validate) `count` instances and their oracle answers."""
    from effset import oracle
    from effset.generator import generate

    cases = []
    for s in range(seed, seed + count):
        inst = generate(config(s))
        x_e, x_ep, both = oracle.efficient_sets(inst)
        points = tuple(oracle.enumerate_feasible(inst)) if w.kind == "membership" else ()
        cases.append(
            Case(s, inst, digest(inst), frozenset(x_e), frozenset(x_ep), frozenset(both), points)
        )
    return cases


def operations(w: Workload, cases: list[Case]) -> list[tuple[Case, tuple | None]]:
    if w.kind == "search":
        return [(case, None) for case in cases]
    return [(case, point) for case in cases for point in case.points]


def check_pins() -> list[str]:
    """Digests of the default seed's first instances against the kept ones."""
    from effset.generator import generate

    problems = []
    for s, expected in enumerate(json.loads(PINS.read_text())[SIZE]):
        got = digest(generate(config(s)))
        if got != expected:
            problems.append(f"pinned instance seed {s}: sha256 {got} != {expected}")
    return problems


def verify(case: Case, point, outcome) -> str | None:
    """None when the outcome matches the oracle, else a description."""
    from effset.model import criteria_image, dominates, is_feasible, utility_image

    if point is None:
        got = outcome.solution_points()
        if got != case.solution_set:
            return f"seed {case.seed}: solution set {sorted(got)} != oracle {sorted(case.solution_set)}"
        return None
    mo, bo = point in case.criteria_efficient, point in case.utility_efficient
    if (outcome.moilfp_efficient, outcome.boilfp_efficient) != (mo, bo):
        return (
            f"seed {case.seed} point {point}: verdict "
            f"{(outcome.moilfp_efficient, outcome.boilfp_efficient)} != oracle {(mo, bo)}"
        )
    witness = outcome.witness
    if (witness is None) != (mo and bo):
        return f"seed {case.seed} point {point}: witness {witness} with verdict {(mo, bo)}"
    if witness is not None:
        image = criteria_image if not mo else utility_image
        if not (is_feasible(case.inst, witness) and dominates(image(case.inst, witness), image(case.inst, point))):
            return f"seed {case.seed} point {point}: witness {witness} does not dominate it"
    return None


def reference_unit() -> None:
    """Fixed exact Gauss-Jordan work in the style of the simplex pivot,
    sharing no code with effset."""
    n = 8
    rows = [[Fraction((i * 7 + j * 3) % 11 + 1, (i + 2 * j) % 5 + 1) for j in range(2 * n)] for i in range(n)]
    for k in range(n):
        pivot = rows[k][k]
        rows[k] = [v / pivot for v in rows[k]]
        for i in range(n):
            if i != k:
                factor = rows[i][k]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[k])]


def slowdown() -> float:
    """Current duration of the reference unit over REF_UNIT_S (median of
    CAL_REPEATS). The collector is off so the program's heap is not scanned
    on the reference's clock."""
    times = []
    gc.disable()
    try:
        for _ in range(CAL_REPEATS):
            t0 = time.perf_counter()
            reference_unit()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times) / REF_UNIT_S


def batch_size(per_s: float, seconds: int) -> int:
    return max(1, round(seconds * per_s))


@dataclass
class Pass:
    latencies: list  # seconds per attempted operation
    scaled: list  # the same at the reference speed
    failures: list  # descriptions of failed operations
    reports: list  # SearchReports of the search operations
    wall: float  # the loop's time: operations and their checks, not calibration
    slowdowns: list

    @property
    def ok(self) -> int:
        return len(self.latencies) - len(self.failures)


def run_pass(ops: list) -> Pass:
    """Closed loop that runs each operation of `ops` once, in order, and
    checks every answer. An operation's scaled time uses the mean of the
    calibrations before and after it."""
    from effset import branch_cut, efficiency

    clock = time.perf_counter
    result = Pass([], [], [], [], 0.0, [slowdown()])
    last_cal = clock()
    for i, (case, point) in enumerate(ops, 1):
        t0 = clock()
        try:
            if point is None:
                outcome = branch_cut.run(case.inst)
            else:
                outcome = efficiency.is_in_solution_set(case.inst, point)
        except Exception as exc:  # a raised error is a failed operation, never dropped
            result.latencies.append(clock() - t0)
            result.failures.append(f"seed {case.seed} point {point}: {type(exc).__name__}: {exc}")
        else:
            result.latencies.append(clock() - t0)
            problem = verify(case, point, outcome)
            if problem:
                result.failures.append(problem)
            if point is None:
                result.reports.append(outcome)
        now = clock()
        result.wall += now - t0
        if i == len(ops) or now - last_cal >= CAL_EVERY_S:
            result.slowdowns.append(slowdown())
            factor = (result.slowdowns[-2] + result.slowdowns[-1]) / 2
            result.scaled.extend(x / factor for x in result.latencies[len(result.scaled):])
            last_cal = clock()
    return result


def quantile(values: list, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def header(w: Workload, seed: int, seconds: int, trace: int, cases: list[Case]) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
        )
        describe = described.stdout.strip() if described.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        describe = "unknown"
    return {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "git_describe": describe,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "instances": [{"seed": c.seed, "sha256": c.digest} for c in cases],
    }


def end_to_end(w: Workload, setups: list, run: Pass) -> list[tuple]:
    """Table rows (name, value, unit, samples) of an untraced run. Times
    are at the reference speed unless named wall."""
    n = len(run.scaled)
    ms = [1000 * x for x in run.scaled]
    ops_per_s = run.ok / sum(run.scaled)
    rows = [
        ("setup_s", statistics.median(s for s, _ in setups), "s", len(setups)),
        ("setup_wall_s", statistics.median(wall for _, wall in setups), "s", len(setups)),
        ("ops_per_s", ops_per_s, "1/s", n),
        ("ops_per_wall_s", run.ok / run.wall, "1/s", n),
        ("op_ms_p50", quantile(ms, 50), "ms", n),
        ("op_ms_p90", quantile(ms, 90), "ms", n),
        ("host_slowdown", statistics.median(run.slowdowns), "ratio", len(run.slowdowns)),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        ("failed_ratio", len(run.failures) / n, "ratio", n),
    ]
    if w.kind == "search":
        nodes = sum(r.nodes_processed for r in run.reports)
        return rows + [
            ("instances_per_s", ops_per_s, "1/s", n),
            ("solve_s_p50", quantile(run.scaled, 50), "s", n),
            ("ms_per_node", sum(ms) / max(nodes, 1), "ms", nodes),
        ]
    return rows + [
        ("membership_calls_per_s", ops_per_s, "1/s", n),
        ("membership_ms_p50", quantile(ms, 50), "ms", n),
        ("membership_ms_p95", quantile(ms, 95), "ms", n),
    ]


REPEATING_COUNTS = (
    "simplex.pivot.calls",
    "simplex.reduced.calls",
    "simplex.phase1.calls",
    "simplex.solve_lp.calls",
    "fractional.solve_lfp.calls",
    "milp.solve_milp.calls",
    "milp.node_lps",
    "milp.early_stops",
    "efficiency.membership.calls",
    "efficiency.t2_after_mm_reject",
    "branch_cut.archive_avoidable",
    "branch_cut.nodes",
    "branch_cut.nodes.branch",
    "branch_cut.nodes.cut",
    "branch_cut.fathom.infeasible",
    "branch_cut.fathom.empty_h",
    "branch_cut.fathom.empty_hprime",
)

# Least share of a traced pass's loop time (`Pass.wall`) that its root
# spans must cover. The layer self times sum to the root spans' time by
# construction, so this checks what lies outside every span: the loop and
# the answer checks. Time in an unwrapped function inside a layer counts
# as that layer's self time and is not caught here.
MIN_SELF_SUM_SHARE = 0.95


def search_counts(reports: list) -> dict:
    from effset import branch_cut as bc

    actions = [rec.action for report in reports for rec in report.trace]
    return {
        "branch_cut.nodes": sum(r.nodes_processed for r in reports),
        "branch_cut.nodes.branch": actions.count(bc.BRANCH),
        "branch_cut.nodes.cut": actions.count(bc.CUT),
        "branch_cut.fathom.infeasible": actions.count(bc.FATHOM_INFEASIBLE),
        "branch_cut.fathom.empty_h": actions.count(bc.FATHOM_EMPTY_H),
        "branch_cut.fathom.empty_hprime": actions.count(bc.FATHOM_EMPTY_HPRIME),
    }


def traced_pass(ops: list):
    """One pass over `ops` under a fresh tracer: (pass, metrics, self time
    per span name). The spans are dropped before the next pass."""
    import tracing

    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        p = run_pass(ops)
    metrics = tracing.layer_metrics(tracer.spans, p.wall)
    metrics.update(search_counts(p.reports))
    return p, metrics, tracing.self_times(tracer.spans)


def traced_run(w: Workload, seed: int, seconds: int):
    """Per-layer metrics over a fixed batch. Returns the cases, the metrics,
    the three passes, any determinism or coverage problems and self times
    by span name."""
    import tracing

    batch = batch_size(w.trace_per_s, seconds)
    setup_tracer = tracing.Tracer()
    with tracing.instrument(setup_tracer):
        cases = prepare(w, seed, batch)
    ops = operations(w, cases)

    # Traced, untraced, traced: the overhead estimate is not skewed by drift.
    traced = [traced_pass(ops)]
    untraced = run_pass(ops)
    traced.append(traced_pass(ops))
    (first, metrics, self_s), (second, again, _) = traced
    problems = [
        f"count {k} differs between traced passes: {metrics[k]} != {again[k]}"
        for k in REPEATING_COUNTS
        if metrics[k] != again[k]
    ]
    problems += [
        f"traced pass {i}: layer self times cover {m['trace.self_sum_share']:.1%} "
        f"of its loop time, under {MIN_SELF_SUM_SHARE:.0%}"
        for i, m in enumerate((metrics, again), 1)
        if m["trace.self_sum_share"] < MIN_SELF_SUM_SHARE
    ]

    setup_spans = setup_tracer.spans
    scans = [s for s in setup_spans if s.name == "oracle.efficient_sets"]
    metrics["validate.total_s"] += sum(s.total_s for s in setup_spans if s.name == "validate.validate_instance")
    metrics["generator.total_s"] = sum(s.total_s for s in setup_spans if s.name == "generator.generate")
    metrics["oracle.scan_s"] = sum(s.total_s for s in scans)
    metrics["oracle.feasible_points"] = sum(
        len(s.result)
        for s in setup_spans
        if s.name == "oracle.enumerate_feasible" and setup_spans[s.parent].name == "oracle.efficient_sets"
    )

    untraced_wall = sum(untraced.scaled)
    metrics["trace.ops"] = len(ops)
    metrics["trace.overhead_s"] = (sum(first.scaled) + sum(second.scaled)) / 2 - untraced_wall
    metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / untraced_wall
    top = sorted(self_s.items(), key=lambda kv: -kv[1])
    return cases, metrics, (first, untraced, second), problems, top


def emit_table(rows: list) -> None:
    for name, value, unit, samples in rows:
        print(f"  {name:38s} {value:14.6g} {unit:12s} n={samples}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    w = WORKLOADS[args.workload]

    declared = json.loads(DECLARED.read_text())
    import_effset()
    sys.path.insert(0, str(HERE))
    problems = check_pins()

    if args.trace:
        cases, layer, passes, trace_problems, top = traced_run(w, args.seed, args.seconds)
        problems += trace_problems
        failures = [f for p in passes for f in p.failures]
        attempted = sum(len(p.latencies) for p in passes)
        rows = [(m["name"], layer[m["name"]], m["unit"], layer["trace.ops"]) for m in declared["per_layer"]]
    else:
        setups = []  # (at the reference speed, wall)
        for _ in range(SETUP_REPEATS):
            before = slowdown()
            t0 = time.perf_counter()
            cases = prepare(w, args.seed, batch_size(w.per_s, args.seconds))
            wall = time.perf_counter() - t0
            setups.append((wall * 2 / (before + slowdown()), wall))
        run = run_pass(operations(w, cases))
        failures = run.failures
        attempted = len(run.latencies)
        rows = end_to_end(w, setups, run)

    # Exactly the metrics BENCHMARK.json declares for this mode; a declared
    # metric the run did not produce is an error, not a silent gap.
    values = {name: value for name, value, _, _ in rows}
    declared_mode = declared["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared_mode}
    head = header(w, args.seed, args.seconds, args.trace, cases)
    print("# header " + json.dumps(head))
    why = {x["name"]: x["why"] for x in declared["workloads"]}[w.name]
    print(f"# {w.name}: {why}")
    emit_table(rows)
    if args.trace:
        wall = layer["trace.wall_s"]
        print("# largest self times: " + ", ".join(f"{k} {v:.3f}s" for k, v in top[:6]))
        if w.kind == "search":
            print(f"# search split of traced wall {wall:.3f}s: node LFP "
                  f"{layer['fractional.solve_lfp.share']:.1%}, membership "
                  f"{layer['efficiency.membership.total_s'] / wall:.1%}, cut sets "
                  f"{layer['branch_cut.cut_sets.self_share']:.1%}, branch_cut self "
                  f"{layer['branch_cut.run.self_share']:.1%}")
    for message in failures + problems:
        print(f"# FAILED: {message}")

    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
