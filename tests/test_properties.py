"""Property tests: the three coefficient routes agree on random terms,
the global sign has its closed form, the CLI's data output is a
function of its arguments alone, and its CSV and JSON forms carry the
same rows."""

import contextlib
import csv
import io
import json
from math import comb

from hypothesis import given, settings, strategies as st

from circulant_terms import cli
from circulant_terms.circulant import (det_coeff_er, det_coeff_oracle,
                                       det_table, permanent_terms,
                                       sign_epsilon)


@st.composite
def admissible_terms(draw, max_n=7):
    """(n, i, b): b is entry i of permanent_terms(n)."""
    n = draw(st.integers(1, max_n))
    terms = permanent_terms(n)
    i = draw(st.integers(0, len(terms) - 1))
    return n, i, terms[i]


@settings(max_examples=60, deadline=None)
@given(admissible_terms())
def test_newton_engine_and_oracle_agree(case):
    n, i, b = case
    assert det_table(n)[i] == det_coeff_er(b) == \
        sign_epsilon(n) * det_coeff_oracle(b)


@settings(max_examples=64, deadline=None)
@given(st.integers(1, 64))
def test_sign_epsilon_closed_form(n):
    # the x_1^n probe runs the engine's branch with only length-1 bricks
    assert sign_epsilon(n) == (-1) ** comb(n - 1, 2)


def _stdout(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


@settings(max_examples=12, deadline=None)
@given(st.one_of(
    st.tuples(st.just("table"), st.just("--max-n"),
              st.integers(1, 9).map(str)),
    st.tuples(st.just("verify"), st.integers(2, 7).map(str))))
def test_cli_stdout_repeats_byte_for_byte(argv):
    first = _stdout(list(argv))
    assert first[0] == 0
    assert _stdout(list(argv)) == first


@st.composite
def table_or_coeff_argv(draw):
    """A `table` or `coeff` command line; coeff's b is any exponent
    vector summing to n, admissible or not."""
    if draw(st.booleans()):
        return ["table", "--max-n", str(draw(st.integers(1, 8))),
                "--oracle-max", str(draw(st.integers(0, 6)))]
    n = draw(st.integers(1, 7))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=n - 1,
                                max_size=n - 1)))
    b = [hi - lo for lo, hi in zip([0] + cuts, cuts + [n])]
    method = draw(st.sampled_from(("er", "oracle", "both")))
    return ["coeff", str(n), ",".join(map(str, b)), "--method", method]


@settings(max_examples=25, deadline=None)
@given(table_or_coeff_argv())
def test_csv_and_json_parse_to_the_same_rows(argv):
    code, as_csv = _stdout(argv + ["--format", "csv"])
    assert code == 0
    code, as_json = _stdout(argv + ["--format", "json"])
    assert code == 0
    assert list(csv.DictReader(io.StringIO(as_csv))) == json.loads(as_json)
