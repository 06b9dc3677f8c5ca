import pytest

from effset.cli import main
from effset.instances import dumps, loads

from conftest import build_demo

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


class TestTrace:
    def test_text_output(self, demo_file, capsys):
        code, out, _ = run_cli(capsys, "trace", demo_file)
        assert code == 0
        assert "node 0 (root): branch point=(32/7, 8/7) value=-45/79" in out
        assert "H={x6,x10} H'={x10}" in out
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

    def test_bad_group_token(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "3x10"])


class TestFailures:
    def test_missing_file_exits_three(self, capsys):
        code, _, err = run_cli(capsys, "solve", "/nonexistent/path.txt")
        assert code == 3
        assert "cannot read" in err

    def test_parse_error_exits_three(self, tmp_path, capsys):
        path = write(tmp_path, "effset-instance 1\nvars 2\nbogus\n")
        code, _, err = run_cli(capsys, "solve", path)
        assert code == 3
        assert "error:" in err

    def test_denominator_violation_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, BAD_DENOMINATOR)
        code, _, err = run_cli(capsys, "solve", path)
        assert code == 2
        assert "error:" in err

    def test_invariant_violation_exits_five(self, demo_file, capsys, monkeypatch):
        # A membership MILP is seeded with the candidate at value 0, so a
        # negative optimum can only come from a solver defect.
        from effset import efficiency
        from effset.milp import MilpResult
        from effset.simplex import Status

        def broken_milp(problem, cutoff=None, incumbent=None, node_limit=None):
            return MilpResult(Status.OPTIMAL, incumbent[0], -1)

        monkeypatch.setattr(efficiency, "solve_milp", broken_milp)
        code, _, err = run_cli(capsys, "solve", demo_file)
        assert code == 5
        assert "internal invariant violated" in err
