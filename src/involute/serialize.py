"""Parsing and formatting of rationals, matrices and vectors.

A rational prints as `str` prints it: "p/q", or just "p" when the
denominator is 1, for a Fraction and an int alike.  A matrix that is only
printed may hold that text already (`_rational_text`), so every writer
maps `str` over its entries, which leaves text as it is.  The parser
additionally accepts terminating decimals ("0.25"), which convert exactly.
Pretty matrix output marks structural zeros, the entries whose defining
interval is empty, with a middle dot: x + z < n - 1 in P, z > x in the
down-step matrix H, told from P by its zeros above the diagonal.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._linalg import check_table
from .errors import OutOfRange

DOT = "·"


# the largest |e| accepted in a decimal exponent such as "1e-e": Fraction
# builds 10**|e|, which takes seconds from |e| = 10**6 on, and Python refuses
# int literals of more than this many digits
MAX_DECIMAL_EXPONENT = 4300


def _rational_text(num: int, den: int) -> str:
    """str(Fraction(num, den)) for integers num and den != 0, without the
    Fraction: one gcd, with the sign put on the numerator.  It is private so
    that a traced run records no span per entry."""
    g = math.gcd(num, den)
    if den < 0:
        g = -g
    if den == g:
        return str(num // g)
    return f"{num // g}/{den // g}"


def parse_rational(text: str) -> Fraction:
    text = text.strip()
    _, has_exponent, exponent = text.lower().partition("e")
    try:
        if has_exponent and abs(int(exponent)) > MAX_DECIMAL_EXPONENT:
            raise OutOfRange(f"decimal exponent in {text!r} is above the limit of "
                             f"{MAX_DECIMAL_EXPONENT} in magnitude")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise OutOfRange(f"cannot parse rational from {text!r}") from exc


def parse_rational_list(text: str) -> list[Fraction]:
    """Parse a comma-separated list like '1,1/2,0.25'."""
    items = [t for t in text.split(",") if t.strip()]
    if not items:
        raise OutOfRange("empty rational list")
    return [parse_rational(t) for t in items]


def matrix_to_csv(rows) -> str:
    """A header c0,...,c(m-1) and one line per row, each ended by a newline:
    the trailing empty line puts the last newline in the one join."""
    n_cols = len(rows[0]) if rows else 0
    lines = [",".join(f"c{j}" for j in range(n_cols))]
    lines += [",".join(map(str, row)) for row in rows]
    lines.append("")
    return "\n".join(lines)


def _csv_lines(text: str) -> list:
    """(line, cells) of each non-empty line of a CSV text, stripped, less a
    header: the first line, when none of its cells reads as a number (a digit
    after any signs and points), as "c0,c1" and "y,x,p/q" do not, "1/0,1" does."""
    lines = [line.strip() for line in text.splitlines()]
    rows = [(line, [c.strip() for c in line.split(",")]) for line in lines if line]
    if rows and not any(c.lstrip("+-.")[:1].isdigit() for c in rows[0][1]):
        del rows[0]
    return rows


def matrix_from_csv(text: str):
    """Read a matrix of 'p/q' entries, less a header (`_csv_lines`); any
    other line that does not parse is refused, naming it.  More rows than
    TABLE_BUDGET are refused before any cell is parsed."""
    lines = _csv_lines(text)
    check_table(len(lines))
    rows = []
    for line, cells in lines:
        try:
            rows.append([parse_rational(c) for c in cells])
        except OutOfRange as exc:
            raise OutOfRange(f"bad matrix row {line!r}: {exc}") from None
    if not rows:
        raise OutOfRange("no matrix rows found")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise OutOfRange("ragged matrix rows")
    return rows


def matrix_to_json(rows) -> str:
    """json.dumps({"n": len(rows), "entries": rows as lists of text}), filled
    into one template: the text of a rational is digits, "-" and "/", none
    of which JSON escapes.  No rows give "entries": [], and an empty row []."""
    entries = ", ".join(['["%s"]' % '", "'.join(map(str, row)) if row else "[]"
                         for row in rows])
    return '{"n": %d, "entries": [%s]}' % (len(rows), entries)


def matrix_to_pretty(rows, structural_dots: bool = True) -> str:
    """Align columns; structural zeros print as a dot, true zeros as 0.

    A zero is structural at z > x when all entries there print as 0, as in H,
    and else at x + z < n - 1, as in P, where P[0][n-1] = 1 for n >= 2."""
    n = len(rows)
    cells = [list(map(str, row)) for row in rows]
    lower = structural_dots and all(c == "0" for x, line in enumerate(cells) for c in line[x + 1:])
    for x, line in enumerate(cells):
        if structural_dots and len(line) == n:
            for z in range(x + 1, n) if lower else range(n - 1 - x):
                if line[z] == "0":
                    line[z] = DOT
    widths = [max(map(len, column)) for column in zip(*cells)]
    return "\n".join("  ".join(s.rjust(w) for s, w in zip(line, widths)) for line in cells)
