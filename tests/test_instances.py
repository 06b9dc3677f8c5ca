import pytest

from effset.errors import ParseError
from effset.generator import GeneratorConfig, generate
from effset.instances import dumps, load, loads, save

from conftest import INT_DIGIT_LIMIT, build_demo, needs_int_digit_limit

GOOD = """\
# small two-variable example
effset-instance 1
vars 2
constraints 2
criteria 3

a -1 4
a 2 -1
b 0 8
criterion num 1 0 -4 den 0 -1 2  # z1
criterion num -1 0 4 den 0 1 1
criterion num -1 1 0 den 0 0 1
utility num -1 1 -3 den 2 1 1
utility num -4 3 1 den 2 1 2
"""


def test_loads_accepts_comments_and_blank_lines():
    assert loads(GOOD) == build_demo()


def test_round_trip_is_identity():
    inst = build_demo()
    assert loads(dumps(inst)) == inst


@pytest.mark.parametrize("seed", range(5))
def test_round_trip_generated(seed):
    inst = generate(GeneratorConfig(2, 2, 3, seed=seed, b_range=(5, 15), a_range=(1, 8)))
    assert loads(dumps(inst)) == inst


def test_save_and_load(tmp_path):
    inst = build_demo()
    target = tmp_path / "demo.txt"
    save(inst, target)
    assert load(target) == inst


def _expect_error(text, needle, lineno=None):
    with pytest.raises(ParseError) as info:
        loads(text)
    assert needle in str(info.value)
    if lineno is not None:
        assert f"line {lineno}" in str(info.value)


class TestRejection:
    def test_missing_header(self):
        _expect_error("vars 2\n", "expected 'effset-instance'", lineno=1)

    def test_wrong_version(self):
        _expect_error("effset-instance 2\nvars 2\n", "unsupported format version")

    def test_decimal_literal(self):
        bad = GOOD.replace("b 0 8", "b 0 8.5")
        _expect_error(bad, "integer or p/q rational", lineno=9)

    def test_zero_denominator_literal(self):
        bad = GOOD.replace("b 0 8", "b 0 8/0")
        _expect_error(bad, "zero denominator", lineno=9)

    def test_wrong_row_width(self):
        bad = GOOD.replace("a -1 4", "a -1 4 9")
        _expect_error(bad, "expected 2 values, found 3", lineno=7)

    def test_missing_utility_line(self):
        bad = GOOD.rsplit("utility", 1)[0]
        _expect_error(bad, "file ends before its 'utility' line")

    def test_trailing_content(self):
        _expect_error(GOOD + "utility num 1 1 1 den 0 0 1\n", "unexpected trailing content")

    def test_nonpositive_count(self):
        _expect_error(GOOD.replace("vars 2", "vars 0"), "one positive integer", lineno=3)

    def test_non_ascii_digit_count(self):
        _expect_error(GOOD.replace("vars 2", "vars \u00b2"), "one positive integer", lineno=3)

    @pytest.mark.parametrize(
        "line, bad",
        [
            (7, ("a -1 4", "a -1 \u0664")),
            (9, ("b 0 8", "b 0 8/\u0663")),
            (10, ("den 0 -1 2", "den 0 -1 \u00b2")),
        ],
        ids=["arabic-indic", "denominator", "superscript"],
    )
    def test_non_ascii_digit_literal(self, line, bad):
        _expect_error(GOOD.replace(*bad), "integer or p/q rational", lineno=line)

    @needs_int_digit_limit
    @pytest.mark.parametrize("line, bad", [(3, ("vars 2", "vars 1")), (8, ("a 2 -1", "a 2 -1"))])
    def test_an_integer_past_the_digit_limit(self, line, bad):
        before, after = bad
        long_text = GOOD.replace(before, after + "0" * INT_DIGIT_LIMIT)
        _expect_error(long_text, "too long", lineno=line)

    def test_objective_missing_den(self):
        bad = GOOD.replace(" den 2 1 2", "")
        _expect_error(bad, "missing its 'den' part")

    def test_empty_file(self):
        _expect_error("", "file ends before")
