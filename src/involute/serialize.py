"""Parsing and formatting of rationals, matrices and vectors.

A rational prints as `str` prints it: "p/q", or just "p" when the
denominator is 1, for a Fraction and an int alike, so every writer maps
`str` over its entries.  The parser additionally accepts terminating
decimals ("0.25"), which convert exactly.  Pretty matrix output marks
structural zeros (entries with x + z < n - 1, where the defining interval
is empty) with a middle dot.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import OutOfRange

DOT = "·"


# the largest |e| accepted in a decimal exponent such as "1e-e": Fraction
# builds 10**|e|, which takes seconds from |e| = 10**6 on, and Python refuses
# int literals of more than this many digits
MAX_DECIMAL_EXPONENT = 4300


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
    n_cols = len(rows[0]) if rows else 0
    lines = [",".join(f"c{j}" for j in range(n_cols))]
    lines += [",".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n"


def matrix_from_csv(text: str):
    """Read a matrix of 'p/q' entries; a non-numeric first row is a header."""
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        cells = [c.strip() for c in line.split(",")]
        try:
            rows.append([parse_rational(c) for c in cells])
        except OutOfRange:
            if rows:
                raise
            # tolerate a single header line
    if not rows:
        raise OutOfRange("no matrix rows found")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise OutOfRange("ragged matrix rows")
    return rows


def matrix_to_json(rows) -> str:
    entries = [list(map(str, row)) for row in rows]
    return json.dumps({"n": len(rows), "entries": entries})


def matrix_to_pretty(rows, structural_dots: bool = True) -> str:
    """Align columns; structural zeros print as a dot, true zeros as 0."""
    n = len(rows)
    cells = []
    for x, row in enumerate(rows):
        line = []
        for z, value in enumerate(row):
            if structural_dots and value == 0 and x + z < n - 1 and len(row) == n:
                line.append(DOT)
            else:
                line.append(str(value))
        cells.append(line)
    widths = [max(len(cells[i][j]) for i in range(len(cells))) for j in range(len(cells[0]))]
    lines = []
    for line in cells:
        lines.append("  ".join(s.rjust(w) for s, w in zip(line, widths)))
    return "\n".join(lines)
