"""Plain-text instance files.

The format is line oriented and exact: every number is an integer or a p/q
rational literal, never a decimal float, so a file round-trips through
load/save without any value drifting. `#` starts a comment, blank lines are
ignored.

    effset-instance 1
    vars 2
    constraints 2
    criteria 3
    a 7 1
    a -1 3
    b 36 7
    criterion num -1 2 2 den 0 1 2
    ...                              # k criterion lines
    utility num 1 1 -4 den 2 1 1
    utility num ...                  # exactly two utility lines

Objective lines list the numerator's n coefficients then its constant,
followed by the same for the denominator.
"""
from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path

from .errors import LengthMismatch, ParseError
from .model import FractionalObjective, ProblemInstance, instance, ratio

HEADER = "effset-instance"
FORMAT_VERSION = 1

# ASCII digits only, as dumps writes them: \d also matches "٣".
_RATIONAL = re.compile(r"^[+-]?[0-9]+(?:/[0-9]+)?$")


def _fmt(value: Fraction) -> str:
    return str(value)


def _objective_text(obj: FractionalObjective) -> str:
    num = [*obj.numerator.coeffs, obj.numerator.constant]
    den = [*obj.denominator.coeffs, obj.denominator.constant]
    return "num " + " ".join(map(_fmt, num)) + " den " + " ".join(map(_fmt, den))


def dumps(inst: ProblemInstance) -> str:
    lines = [
        f"{HEADER} {FORMAT_VERSION}",
        f"vars {inst.variable_count}",
        f"constraints {inst.constraint_count}",
        f"criteria {len(inst.criteria)}",
    ]
    lines.extend("a " + " ".join(map(_fmt, row)) for row in inst.a_matrix)
    lines.append("b " + " ".join(map(_fmt, inst.b_vector)))
    lines.extend("criterion " + _objective_text(obj) for obj in inst.criteria)
    lines.extend("utility " + _objective_text(obj) for obj in inst.utilities)
    return "\n".join(lines) + "\n"


def save(inst: ProblemInstance, path) -> None:
    Path(path).write_text(dumps(inst))


class _Reader:
    def __init__(self, text: str):
        self.entries = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.split("#", 1)[0].strip()
            if stripped:
                self.entries.append((lineno, stripped.split()))
        self.pos = 0

    def next(self, keyword: str) -> tuple[int, list[str]]:
        if self.pos >= len(self.entries):
            raise ParseError(f"file ends before its {keyword!r} line")
        lineno, tokens = self.entries[self.pos]
        self.pos += 1
        if tokens[0] != keyword:
            raise ParseError(f"expected {keyword!r}, found {tokens[0]!r}", lineno)
        return lineno, tokens[1:]

    def finished(self) -> None:
        if self.pos < len(self.entries):
            lineno, tokens = self.entries[self.pos]
            raise ParseError(f"unexpected trailing content {' '.join(tokens)!r}", lineno)


def _rational(token: str, lineno: int) -> Fraction:
    if not _RATIONAL.match(token):
        raise ParseError(
            f"expected an integer or p/q rational, got {token!r}", lineno
        )
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in literal {token!r}", lineno) from None
    except ValueError:  # more digits than int() converts
        raise ParseError(f"a literal of {len(token)} characters is too long", lineno) from None


def _rationals(tokens: list[str], count: int, lineno: int, what: str) -> list[Fraction]:
    if len(tokens) != count:
        raise ParseError(f"{what}: expected {count} values, found {len(tokens)}", lineno)
    return [_rational(t, lineno) for t in tokens]


def _count(tokens: list[str], lineno: int, what: str) -> int:
    text = tokens[0] if len(tokens) == 1 else ""
    # ASCII digits only, as dumps writes them: str.isdigit alone accepts '²'.
    if not (text.isascii() and text.isdigit()):
        raise ParseError(f"{what} takes one positive integer", lineno)
    try:
        count = int(text)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"{what}: a count of {len(text)} digits is too long", lineno) from None
    if count < 1:
        raise ParseError(f"{what} takes one positive integer", lineno)
    return count


def _objective(reader: _Reader, keyword: str, n: int) -> FractionalObjective:
    lineno, tokens = reader.next(keyword)
    if len(tokens) < 2 or tokens[0] != "num":
        raise ParseError(f"{keyword} line must start with 'num'", lineno)
    try:
        split = tokens.index("den")
    except ValueError:
        raise ParseError(f"{keyword} line is missing its 'den' part", lineno) from None
    num = _rationals(tokens[1:split], n + 1, lineno, f"{keyword} numerator")
    den = _rationals(tokens[split + 1 :], n + 1, lineno, f"{keyword} denominator")
    return ratio(num[:-1], num[-1], den[:-1], den[-1])


def loads(text: str) -> ProblemInstance:
    reader = _Reader(text)
    lineno, tokens = reader.next(HEADER)
    if tokens != [str(FORMAT_VERSION)]:
        raise ParseError(
            f"unsupported format version {' '.join(tokens) or '(none)'!s}", lineno
        )
    lineno, tokens = reader.next("vars")
    n = _count(tokens, lineno, "vars")
    lineno, tokens = reader.next("constraints")
    m = _count(tokens, lineno, "constraints")
    criteria_line, tokens = reader.next("criteria")
    k = _count(tokens, criteria_line, "criteria")

    a = []
    for _ in range(m):
        lineno, tokens = reader.next("a")
        a.append(_rationals(tokens, n, lineno, "constraint row"))
    lineno, tokens = reader.next("b")
    b = _rationals(tokens, m, lineno, "right-hand side")
    criteria = [_objective(reader, "criterion", n) for _ in range(k)]
    utilities = [_objective(reader, "utility", n) for _ in range(2)]
    reader.finished()
    # Every row and objective has its counted length by now, so the model
    # can only reject the number of criteria.
    try:
        return instance(a, b, criteria, utilities)
    except LengthMismatch as exc:
        raise ParseError(f"criteria: {exc}", criteria_line) from None


def load(path) -> ProblemInstance:
    return loads(Path(path).read_text(encoding="utf-8"))
