"""Rational parsing, their `str` text, and matrix round trips."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from involute.errors import OutOfRange
from involute.serialize import (
    DOT,
    _rational_text,
    matrix_from_csv,
    matrix_to_csv,
    matrix_to_json,
    matrix_to_pretty,
    MAX_DECIMAL_EXPONENT,
    parse_rational,
    parse_rational_list,
)


def test_rational_round_trip():
    for text, value in (("3/4", F(3, 4)), ("-7", F(-7)), ("0.25", F(1, 4)), ("2", F(2))):
        assert parse_rational(text) == value
        assert parse_rational(str(value)) == value
    assert str(F(6, 3)) == "2"
    assert str(F(-1, 2)) == "-1/2"


def test_str_of_ints_and_fractions():
    # every writer prints a rational by str: an int and a Fraction of the same
    # value print alike, and the text parses back to the value
    big = 3**200
    cases = [(0, "0"), (F(0), "0"), (7, "7"), (F(7), "7"), (-12, "-12"), (F(-12, 1), "-12"),
             (F(-1, 2), "-1/2"), (F(6, -4), "-3/2"), (big, str(big)), (-big, f"-{big}"),
             (F(big, 2**64), f"{big}/{2**64}"), (F(-big, 5**90), f"-{big}/{5**90}")]
    for value, text in cases:
        assert str(value) == text
        assert parse_rational(text) == value


def test_parse_errors():
    with pytest.raises(OutOfRange):
        parse_rational("eleven")
    with pytest.raises(OutOfRange):
        parse_rational("1/0")
    with pytest.raises(OutOfRange):
        parse_rational_list(" , ,")


def test_decimal_exponent_is_bounded():
    # Fraction builds 10**|e| for an exponent e, seconds from |e| = 10**6 on
    assert parse_rational("1e400") == 10**400
    assert parse_rational("0.25") == F(1, 4)
    assert parse_rational(f"-1E+{MAX_DECIMAL_EXPONENT}") == -(10**MAX_DECIMAL_EXPONENT)
    assert parse_rational(f"1e-{MAX_DECIMAL_EXPONENT}") == F(1, 10**MAX_DECIMAL_EXPONENT)
    for text in (f"1e-{MAX_DECIMAL_EXPONENT + 1}", f"1E{MAX_DECIMAL_EXPONENT + 1}",
                 "1e-1000000", "1e-10000000"):
        with pytest.raises(OutOfRange, match=f"above the limit of {MAX_DECIMAL_EXPONENT}"):
            parse_rational(text)


def test_parse_rational_list():
    assert parse_rational_list("1,1/2, 0.5") == [F(1), F(1, 2), F(1, 2)]


def test_matrix_csv_round_trip():
    rows = [[F(0), F(1)], [F(1, 3), F(2, 3)]]
    text = matrix_to_csv(rows)
    assert text.splitlines()[0] == "c0,c1"
    assert matrix_from_csv(text) == rows
    assert matrix_from_csv("0,1\n1/3,2/3\n") == rows
    with pytest.raises(OutOfRange):
        matrix_from_csv("1,2\n3\n")


def test_pretty_structural_dots():
    rows = [[F(0), F(1)], [F(1, 2), F(1, 2)]]
    out = matrix_to_pretty(rows)
    assert "·" in out.splitlines()[0]
    # true zeros inside the support region print as 0, not as a dot
    rows = [[F(0), F(0), F(1)], [F(0), F(1), F(0)], [F(1), F(0), F(0)]]
    lines = matrix_to_pretty(rows).splitlines()
    assert lines[1].split() == ["·", "1", "0"]
    # a matrix that is not anti-triangular keeps its entries there
    assert matrix_to_pretty([[F(1, 2), F(1, 2)], [F(1), F(0)]]).splitlines() == [
        "1/2  1/2", "  1    0"]
    # H is lower triangular: its structural zeros are those above the diagonal
    rows = [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(1, 2), F(1, 2)]]
    assert matrix_to_pretty(rows).splitlines() == [
        "1    ·    ·", "0    1    ·", "0  1/2  1/2"]
    # text entries, as a printed-only matrix holds them, read the same
    text = [list(map(str, row)) for row in rows]
    assert matrix_to_pretty(text) == matrix_to_pretty(rows)


@pytest.mark.parametrize("rows, dotted", [
    # lower-triangular, as H: every entry above the diagonal is a structural zero
    ([[1, 0, 0], [F(1, 2), F(1, 2), 0], [0, F(1, 2), F(1, 2)]],
     ["  1    ·    ·", "1/2  1/2    ·", "  0  1/2  1/2"]),
    # anti-triangular, as P: the zeros at x + z < n - 1, not the true zero at (2, 2)
    ([[0, 0, 1], [0, F(1, 2), F(1, 2)], [1, 0, 0]],
     ["·    ·    1", "·  1/2  1/2", "1    0    0"]),
    # neither: read as P, its one zero before the anti-diagonal dotted and
    # the zeros above the diagonal kept
    ([[1, F(1, 2), 0], [0, 1, 0], [F(1, 2), 0, F(1, 2)]],
     ["  1  1/2    0", "  ·    1    0", "1/2    0  1/2"]),
    # 1 x 1: no entry lies above the diagonal or before the anti-diagonal
    ([[0]], ["0"]),
])
def test_pretty_reads_the_shape_off_the_matrix(rows, dotted):
    assert matrix_to_pretty(rows).splitlines() == dotted
    text = [list(map(str, row)) for row in rows]
    assert matrix_to_pretty(text) == matrix_to_pretty(rows)
    assert DOT not in matrix_to_pretty(rows, structural_dots=False)


@given(st.integers(), st.integers().filter(bool))
def test_rational_text_is_the_text_of_the_fraction(num, den):
    assert _rational_text(num, den) == str(F(num, den))
    big = 10**40 + 7
    assert _rational_text(num * big, den * big) == str(F(num, den))


# one matrix entry as a Fraction, an int, or the text of a reduced pair
entries = st.one_of(
    st.fractions(),
    st.integers(),
    st.builds(_rational_text, st.integers(), st.integers().filter(bool)),
)


@given(st.lists(st.lists(entries, max_size=5), max_size=5))
def test_json_template_is_json_dumps(rows):
    # 0 rows, 1 x 1 and empty rows included
    assert matrix_to_json(rows) == json.dumps(
        {"n": len(rows), "entries": [list(map(str, r)) for r in rows]})


def test_json_template_edge_cases():
    assert matrix_to_json([]) == '{"n": 0, "entries": []}'
    assert matrix_to_json([[F(-1, 3)]]) == '{"n": 1, "entries": [["-1/3"]]}'
    assert matrix_to_json([[], ["7"]]) == '{"n": 2, "entries": [[], ["7"]]}'


@given(st.lists(st.lists(entries, min_size=1, max_size=5), max_size=5))
def test_csv_is_its_lines_each_ended_by_a_newline(rows):
    n_cols = len(rows[0]) if rows else 0
    lines = [",".join(f"c{j}" for j in range(n_cols))] + [",".join(map(str, r)) for r in rows]
    assert matrix_to_csv(rows) == "".join(line + "\n" for line in lines)
