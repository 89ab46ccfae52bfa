"""Property tests: the three coefficient routes agree on random terms,
and the CLI's data output is a function of its arguments alone."""

import contextlib
import io

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
