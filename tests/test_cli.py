import re
from pathlib import Path

import pytest

import effset.branch_cut as branch_cut
from effset.cli import build_parser, main
from effset.instances import dumps, loads
from effset.model import instance

from conftest import INT_DIGIT_LIMIT, build_demo, needs_int_digit_limit

README = Path(__file__).resolve().parent.parent / "README.md"

EMPTY_INTERSECTION = """\
effset-instance 1
vars 1
constraints 1
criteria 2
a 1
b 1
criterion num 1 0 den 0 1
criterion num 1 0 den 0 1
utility num -1 0 den 0 1
utility num -1 0 den 0 1
"""

EMPTY_DOMAIN = EMPTY_INTERSECTION.replace("b 1", "b -1")

BAD_DENOMINATOR = EMPTY_INTERSECTION.replace(
    "criterion num 1 0 den 0 1", "criterion num 1 0 den 1 -1", 1
).replace("b 1", "b 2")

UNBOUNDED = """\
effset-instance 1
vars 2
constraints 1
criteria 2
a 1 -1
b 3
criterion num 1 0 0 den 0 0 1
criterion num 0 1 0 den 0 0 1
utility num 1 0 0 den 0 0 1
utility num 0 1 0 den 0 0 1
"""


@pytest.fixture
def search_drops_a_point(monkeypatch):
    """A defective search: every run loses its first solution."""
    run = branch_cut.run

    def dropping(*args, **kwargs):
        report = run(*args, **kwargs)
        assert report.solutions
        report.solutions.pop(0)
        return report

    monkeypatch.setattr(branch_cut, "run", dropping)


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.txt"
    path.write_text(dumps(build_demo()))
    return str(path)


def write(tmp_path, text, name="inst.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_text_output(self, demo_file, capsys):
        code, out, _ = run_cli(capsys, "solve", demo_file)
        assert code == 0
        assert "solution set: 3 point(s)" in out
        assert "x = (4, 1)" in out
        assert "x = (1, 0)" in out
        assert "x = (0, 0)" in out
        assert "nodes processed: 10" in out
        assert "candidates: 2 by archive, 3 by MILP" in out
        assert "presolve: 0 of 2 rows implied by the others" in out

    def test_text_output_counts_the_implied_rows(self, tmp_path, capsys):
        """x0 + x1 <= 9 holds with slack over the demo's region, whose
        largest x0 + x1 is 40/7: the presolve marks it, and the answer is
        the demo's."""
        demo = build_demo()
        a, b = [*demo.a_matrix, (1, 1)], [*demo.b_vector, 9]
        path = write(tmp_path, dumps(instance(a, b, demo.criteria, demo.utilities)))
        code, out, _ = run_cli(capsys, "solve", path)
        assert code == 0
        assert "solution set: 3 point(s)" in out
        assert "presolve: 1 of 3 rows implied by the others" in out

    def test_csv_output(self, demo_file, capsys):
        code, out, _ = run_cli(capsys, "solve", demo_file, "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "point,criteria,utilities"
        assert lines[1] == "4 1,0 0 -3,-3/5 -12/11"
        assert len(lines) == 4

    @pytest.mark.parametrize("flags", [(), ("--strategy", "bfs"), ("--objective", "f2")])
    def test_walk_flags_do_not_change_the_set(self, demo_file, capsys, flags):
        code, out, _ = run_cli(capsys, "solve", demo_file, *flags)
        assert code == 0
        assert "solution set: 3 point(s)" in out

    def test_empty_intersection_exits_one(self, tmp_path, capsys):
        path = write(tmp_path, EMPTY_INTERSECTION)
        code, out, _ = run_cli(capsys, "solve", path)
        assert code == 1
        assert "solution set: 0 point(s)" in out

    def test_empty_domain_exits_one(self, tmp_path, capsys):
        path = write(tmp_path, EMPTY_DOMAIN)
        code, out, err = run_cli(capsys, "solve", path)
        assert code == 1
        assert "solution set: 0 point(s)" in out
        assert "error:" in err

    @pytest.mark.parametrize(
        "command, header",
        [
            ("solve", "point,criteria,utilities"),
            ("trace", "node,parent,action,point,value,h,hprime"),
            ("enumerate", "set,point"),
        ],
    )
    def test_empty_domain_csv_prints_the_header_only(self, tmp_path, capsys, command, header):
        path = write(tmp_path, EMPTY_DOMAIN)
        code, out, err = run_cli(capsys, command, path, "--format", "csv")
        assert code == 1
        assert out == header + "\n"
        assert "error:" in err


class TestTrace:
    def test_text_output(self, demo_file, capsys):
        code, out, _ = run_cli(capsys, "trace", demo_file)
        assert code == 0
        assert "node 0 (root): branch point=(32/7, 8/7) value=-45/79" in out
        assert "H={x1,x9} H'={x1,x9}" in out
        assert out.strip().splitlines()[-1] == "solutions: (4, 1), (1, 0), (0, 0)"

    def test_csv_output(self, demo_file, capsys):
        code, out, _ = run_cli(capsys, "trace", demo_file, "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "node,parent,action,point,value,h,hprime"
        assert lines[1] == "0,,branch,32/7 8/7,-45/79,,"
        assert len(lines) == 11


class TestEnumerate:
    def test_text_output(self, demo_file, capsys):
        code, out, _ = run_cli(capsys, "enumerate", demo_file)
        assert code == 0
        assert "criteria-efficient (5):" in out
        assert "utility-efficient (3):" in out
        assert "common (3):" in out

    def test_csv_output(self, demo_file, capsys):
        code, out, _ = run_cli(capsys, "enumerate", demo_file, "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "set,point"
        assert "criteria-efficient,4 1" in lines
        assert "common,0 0" in lines

    def test_budget_exhaustion_exits_four(self, demo_file, capsys):
        code, _, err = run_cli(capsys, "enumerate", demo_file, "--budget", "1")
        assert code == 4
        assert "budget" in err


class TestCheck:
    def test_agreement(self, demo_file, capsys):
        code, out, _ = run_cli(capsys, "check", demo_file)
        assert code == 0
        assert "verdict: agree" in out

    def test_empty_agreement_exits_one(self, tmp_path, capsys):
        path = write(tmp_path, EMPTY_INTERSECTION)
        code, out, _ = run_cli(capsys, "check", path)
        assert code == 1
        assert "verdict: agree" in out
        assert "solver:     (empty)" in out

    def test_disagreement_exits_five(self, demo_file, capsys, search_drops_a_point):
        code, out, err = run_cli(capsys, "check", demo_file)
        assert code == 5
        assert "verdict: MISMATCH" in out
        assert "disagree" in err


class TestGenerate:
    def test_stdout_is_loadable(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "-n", "2", "-m", "2", "-k", "3", "--seed", "4"
        )
        assert code == 0
        inst = loads(out)
        assert inst.variable_count == 2
        assert len(inst.criteria) == 3

    def test_output_file_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        for target in (a, b):
            code, _, _ = run_cli(
                capsys, "generate", "-n", "3", "-m", "2", "-k", "2", "-o", str(target)
            )
            assert code == 0
        assert a.read_text() == b.read_text()


class TestBench:
    def test_text_summary(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "2x2x2", "--seeds", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == list(
            ("r", "m", "n", "cpu_mean", "cpu_max", "cpu_min",
             "nodes_mean", "nodes_max", "nodes_min", "mu")
        )
        assert len(lines) == 2

    def test_csv_summary_and_detail(self, tmp_path, capsys):
        detail = tmp_path / "detail.csv"
        code, out, _ = run_cli(
            capsys,
            "bench", "2x2x2", "--seeds", "1", "--format", "csv",
            "--detail", str(detail),
        )
        assert code == 0
        assert out.splitlines()[0].startswith("r,m,n,cpu_mean")
        assert detail.read_text().splitlines()[0].startswith("r,m,n,seed")

    def test_disagreement_exits_five(self, tmp_path, capsys, search_drops_a_point):
        """The summary is still printed, and the detail CSV marks the
        instance that disagreed."""
        detail = tmp_path / "detail.csv"
        code, out, err = run_cli(
            capsys, "bench", "2x2x2", "--seeds", "1", "--format", "csv", "--detail", str(detail)
        )
        assert code == 5
        assert out.splitlines()[0].startswith("r,m,n,cpu_mean")
        assert "2x2x2 seed 0" in err
        header, row = detail.read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["agreed"] == "no"

    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_seed_count_below_one_exits_two(self, capsys, seeds):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "2x2x2", "--seeds", seeds])
        assert exc.value.code == 2
        assert "--seeds" in capsys.readouterr().err

    def test_bad_group_token(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "3x10"])

    @pytest.mark.parametrize("group", ["\u00b2x10x5", "3x\u0661\u0660x5"])
    def test_non_ascii_digit_group_gets_the_group_message(self, capsys, group):
        with pytest.raises(SystemExit) as exc:
            main(["bench", group])
        assert exc.value.code == 2
        assert "must look like RxMxN" in capsys.readouterr().err

    def test_non_ascii_digit_seed_count_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "2x2x2", "--seeds", "\u00b2"])
        assert exc.value.code == 2
        assert "whole number" in capsys.readouterr().err

    def test_out_of_range_group_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "1x2x2"])
        assert exc.value.code == 2
        assert "at least two ranking criteria" in capsys.readouterr().err

    def test_out_of_range_generate_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "generate", "-n", "2", "-m", "2", "-k", "1")
        assert code == 2
        assert out == ""
        assert "at least two ranking criteria" in err


class TestFailures:
    def test_missing_file_exits_three(self, capsys):
        code, _, err = run_cli(capsys, "solve", "/nonexistent/path.txt")
        assert code == 3
        assert "cannot read" in err

    @pytest.mark.parametrize("kind", ["directory", "not UTF-8"])
    def test_unreadable_file_exits_three(self, tmp_path, capsys, kind):
        path = tmp_path / "inst.txt"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff" + EMPTY_INTERSECTION.encode())
        code, out, err = run_cli(capsys, "solve", str(path))
        assert code == 3
        assert out == ""
        assert f"cannot read {path}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "-n", "2", "-m", "2", "-k", "2", "-o", "{dir}"],
            ["generate", "-n", "2", "-m", "2", "-k", "2", "-o", "{dir}/missing/x.txt"],
            ["bench", "2x2x2", "--seeds", "1", "--no-compare", "--detail", "{dir}"],
        ],
    )
    def test_unwritable_output_exits_three(self, tmp_path, capsys, argv):
        argv = [arg.format(dir=tmp_path) for arg in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert f"cannot write {argv[-1]}" in err

    def test_parse_error_exits_three(self, tmp_path, capsys):
        path = write(tmp_path, "effset-instance 1\nvars 2\nbogus\n")
        code, _, err = run_cli(capsys, "solve", path)
        assert code == 3
        assert "error:" in err

    def test_a_non_ascii_digit_exits_three(self, tmp_path, capsys):
        # U+0661 is the Arabic-Indic digit one: it would load as 1.
        path = tmp_path / "inst.txt"
        path.write_text(EMPTY_INTERSECTION.replace("a 1", "a \u0661"), encoding="utf-8")
        code, out, err = run_cli(capsys, "solve", str(path))
        assert code == 3
        assert out == ""
        assert "integer or p/q rational" in err

    @needs_int_digit_limit
    def test_a_literal_past_the_digit_limit_exits_three(self, tmp_path, capsys):
        # One more digit than int() converts.
        path = write(tmp_path, EMPTY_INTERSECTION.replace("a 1", "a 1" + "0" * INT_DIGIT_LIMIT))
        code, out, err = run_cli(capsys, "solve", path)
        assert code == 3
        assert out == ""
        assert "too long" in err

    def test_a_single_criterion_exits_three(self, tmp_path, capsys):
        one = EMPTY_INTERSECTION.replace("criteria 2", "criteria 1").replace(
            "criterion num 1 0 den 0 1\n", "", 1
        )
        path = write(tmp_path, one)
        code, out, err = run_cli(capsys, "solve", path)
        assert code == 3
        assert out == ""
        assert err.startswith("error: line 4: criteria: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["solve", "trace", "enumerate", "check"])
    def test_denominator_violation_exits_two(self, tmp_path, capsys, command):
        path = write(tmp_path, BAD_DENOMINATOR)
        code, _, err = run_cli(capsys, command, path)
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("command", ["solve", "trace", "enumerate", "check"])
    def test_unbounded_domain_exits_two(self, tmp_path, capsys, command):
        path = write(tmp_path, UNBOUNDED)
        code, _, err = run_cli(capsys, command, path)
        assert code == 2
        assert "unbounded" in err

    def test_invariant_violation_exits_five(self, demo_file, capsys, monkeypatch):
        # A search node lies in its ancestors' regions, so a re-solve of a
        # carried maximum that finds its region empty can only come from a
        # solver defect.
        from effset import branch_cut

        maximize = branch_cut.maximize

        def broken_maximize(num_vars, rows, objective, parent=None):
            return None if parent is not None else maximize(num_vars, rows, objective)

        monkeypatch.setattr(branch_cut, "maximize", broken_maximize)
        code, _, err = run_cli(capsys, "solve", demo_file)
        assert code == 5
        assert "internal invariant violated" in err


class TestReadme:
    def test_command_line_usage_lines_parse(self, demo_file):
        """Each `effset ...` usage line of the README's Command line
        section, with its placeholders filled in, parses."""
        section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
        lines = re.findall(r"^- `(effset [^`]*)`", section, re.M)
        assert len(lines) == 6
        values = {"FILE": demo_file, "RxMxN": "2x2x2", "N": "2", "M": "3", "K": "2", "S": "1"}
        parser = build_parser()
        for line in lines:
            words = re.sub(r"\[[^]]*\]", "", line).split()[1:]
            args = parser.parse_args([values.get(w, w) for w in words])
            assert args.command == words[0], line


GENERATE = ["generate", "-n", "2", "-m", "2", "-k", "2"]


@pytest.mark.parametrize(
    "argv, option",
    [
        (["generate", "-n", "{digit}", "-m", "2", "-k", "2"], "--vars/-n"),
        (["generate", "--vars", "{digit}", "-m", "2", "-k", "2"], "--vars/-n"),
        (["generate", "-n", "2", "-m", "{digit}", "-k", "2"], "--constraints/-m"),
        (["generate", "-n", "2", "-m", "2", "-k", "{digit}"], "--criteria/-k"),
        (GENERATE + ["--seed", "{digit}"], "--seed"),
        (["bench", "2x2x2", "--seeds", "1", "--seed", "{digit}"], "--seed"),
        (["bench", "2x2x2", "--seeds", "1", "--budget", "{digit}"], "--budget"),
        (["enumerate", "x.txt", "--budget", "{digit}"], "--budget"),
        (["check", "x.txt", "--budget", "{digit}"], "--budget"),
        (["bench", "2x2x2", "--seeds", "1", "--budget", "-1"], "--budget"),
        (["enumerate", "x.txt", "--budget", "-1"], "--budget"),
        (["check", "x.txt", "--budget", "-1"], "--budget"),
    ],
)
def test_a_non_ascii_digit_option_exits_two(capsys, argv, option):
    """int() takes any Unicode decimal digit; U+0662 and U+0663 are the
    Arabic-Indic two and three, which every integer option refuses. A
    budget is also at least 0, so -1 exits 2 before any work."""
    tokens = ("\u0662", "\u0663", "-\u0663") if "{digit}" in argv else (argv[-1],)
    for token in tokens:
        with pytest.raises(SystemExit) as exc:
            main([arg.format(digit=token) for arg in argv])
        assert exc.value.code == 2
        assert f"argument {option}: {token!r} must be a whole number" in capsys.readouterr().err


def test_integer_options_keep_their_ascii_values(capsys):
    """ASCII whole numbers, negative ones included, parse as before."""
    args = build_parser().parse_args(GENERATE + ["--seed", "-3"])
    assert (args.vars, args.constraints, args.criteria, args.seed) == (2, 2, 2, -3)
    args = build_parser().parse_args(["bench", "2x2x2", "--seeds", "4", "--budget", "7"])
    assert (args.seeds, args.seed, args.budget) == (4, 0, 7)
