"""Command-line front end: reproducible tables, coefficients, and
verification reports as CSV or JSON.

Data rows go to stdout (or --out FILE); summaries and diagnostics go to
stderr.  Every value is serialized as a decimal string (rationals as
"num/den"), so no consumer ever sees a float, and identical invocations
produce byte-identical output.

Exit codes: 0 success/consistent, 1 usage, validation or output error, 2 an
internal cross-check caught an inconsistency.
"""

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from .exactmath import prime_power
from .partitions import partitions_of
from .bricks import m_to_p_expansion
from .circulant import (ExponentVector, ORACLE_MAX_N, RouteDisagreement,
                        _det_table, d_count, det_coeff_er, det_coeff_oracle,
                        expand_det, p_count, permanent_terms, sign_epsilon)
from .theorem import dominance_check

# Reference term counts for n = 1..12 as (d, p); every entry is
# recomputable from this package itself (d by any coefficient route,
# p by any of the four counting methods).  `verify` exits 0 only when
# its recomputation matches this row.
REFERENCE_COUNTS = {
    1: (1, 1), 2: (2, 2), 3: (4, 4), 4: (10, 10), 5: (26, 26),
    6: (68, 80), 7: (246, 246), 8: (810, 810), 9: (2704, 2704),
    10: (7492, 9252), 11: (32066, 32066), 12: (86500, 112720),
}

VERIFY_MAX_N = 12

# cold coeff queries: seconds at n = 24, past a minute at 26 (see README)
COEFF_MAX_N = 24


class _UsageError(Exception):
    pass


class _OutputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")

    def _parse_optional(self, arg_string):
        # no option starts with a digit: -1,2,2 is a value, not an option
        if arg_string[:1] == "-" and arg_string[1:2].isdigit():
            return None
        return super()._parse_optional(arg_string)


def _integer(text):
    """int(text) for ASCII decimal digits with an optional leading minus
    sign and surrounding spaces; int() alone would also take "1_0", "+1"
    and non-ASCII digits."""
    digits = text.strip(" ").removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"not a decimal integer: {text!r}")
    return int(text)


def _fraction_str(value):
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{value.numerator}/{value.denominator}"
    return str(int(value))


def _emit(fieldnames, rows, fmt, out_path):
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([row[name] for name in fieldnames])
        text = buf.getvalue()
    else:
        text = json.dumps([{name: row[name] for name in fieldnames}
                           for row in rows], indent=2) + "\n"
    if out_path is not None:
        _write_out(out_path, text)
    else:
        sys.stdout.write(text)


def _check_destination(path):
    if not path:
        raise _OutputError("cannot write '': empty file name")
    # through a symbolic link the file written is the link's target
    folder = os.path.dirname(os.path.realpath(path))
    if not os.path.isdir(folder):
        raise _OutputError(f"cannot write {path}: no directory {folder}")


def _write_out(path, text):
    # a rename over a symbolic link would replace the link, not its target
    target = os.path.realpath(path)
    try:
        if os.path.exists(target) and not os.path.isfile(target):
            # a device or pipe, which a rename would replace by a file
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            _write_atomically(target, text)
    except OSError as exc:
        raise _OutputError(f"cannot write {path}: {exc.strerror}") from None


def _write_atomically(path, text):
    # a temporary file beside the destination, renamed over it, so the
    # destination never holds a partial table
    tmp = os.path.join(os.path.dirname(path),
                       f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def cmd_table(args):
    """Rows (n, d(n), p(n), equal) for n = 1..max_n, with the d column
    cross-checked against the expansion oracle for n <= --oracle-max."""
    if not 1 <= args.max_n <= VERIFY_MAX_N:
        raise _UsageError(f"--max-n must be between 1 and {VERIFY_MAX_N}")
    if args.jobs < 1:
        raise _UsageError("--jobs must be at least 1")
    if args.oracle_max < 0:
        raise _UsageError("--oracle-max must be at least 0")
    oracle_limit = min(args.max_n, args.oracle_max, ORACLE_MAX_N)
    rows = []
    diagnostics = []
    for n in range(1, args.max_n + 1):
        d = d_count(n, "er")
        p = p_count(n, "formula")
        rows.append({"n": str(n), "d": str(d), "p": str(p),
                     "equal": "true" if d == p else "false"})
        if n <= oracle_limit:
            d_oracle = len(expand_det(n))
            if d_oracle != d:
                diagnostics.append(
                    f"n={n}: d={d} by the partition sum but {d_oracle} "
                    f"by the expansion oracle")
            p_enum = len(permanent_terms(n))
            if p_enum != p:
                diagnostics.append(
                    f"n={n}: p={p} by the formula but {p_enum} by "
                    f"direct enumeration")
    _emit(("n", "d", "p", "equal"), rows, args.format, args.out)
    for line in diagnostics:
        print(f"inconsistency: {line}", file=sys.stderr)
    return 2 if diagnostics else 0


def cmd_coeff(args):
    """The exact coefficient of x^b in det(A), by the requested method(s)."""
    if args.jobs < 1:
        raise _UsageError("--jobs must be at least 1")
    if args.n > COEFF_MAX_N:
        raise ValueError(f"coeff bound exceeded (n <= {COEFF_MAX_N})")
    try:
        exponents = [_integer(tok) for tok in args.b.split(",")]
    except argparse.ArgumentTypeError:
        raise _UsageError("b must be comma-separated integers") from None
    b = ExponentVector(args.n, exponents)
    if args.method != "er" and args.n > ORACLE_MAX_N:
        raise ValueError("oracle bound exceeded")
    row = {"n": str(args.n), "b": str(b)}
    inconsistent = False
    if args.method in ("er", "both"):
        row["coeff_er"] = str(det_coeff_er(b))
    if args.method in ("oracle", "both"):
        row["coeff_oracle"] = str(det_coeff_oracle(b))
    if args.method == "both":
        eps = sign_epsilon(args.n)
        row["sign_epsilon"] = f"{eps:+d}"
        consistent = int(row["coeff_er"]) == eps * int(row["coeff_oracle"])
        row["consistent"] = "true" if consistent else "false"
        inconsistent = not consistent
    fieldnames = [name for name in ("n", "b", "coeff_er", "coeff_oracle",
                                    "sign_epsilon", "consistent")
                  if name in row]
    _emit(fieldnames, [row], args.format, args.out)
    if inconsistent:
        print("inconsistency: the two coefficient routes disagree",
              file=sys.stderr)
        return 2
    return 0


def cmd_verify(args):
    """For prime-power n: run dominance_check over every admissible b and
    report the valuation spectra.  Otherwise: list the admissible b whose
    coefficient vanishes.  Exits 0 only when the outcome matches the
    reference counts."""
    n = args.n
    if n < 2:
        raise _UsageError("n must be at least 2")
    fieldnames = ("n", "b", "pass", "valuations")
    if n > VERIFY_MAX_N:
        _emit(fieldnames,
              [{"n": str(n), "b": "", "pass": "skipped", "valuations": ""}],
              args.format, args.out)
        print(f"skipped: n={n} exceeds the supported bound "
              f"(n <= {VERIFY_MAX_N})", file=sys.stderr)
        return 1
    terms = []
    coeffs = _det_table(n, terms)
    nonzero = sum(1 for c in coeffs if c)
    expected_d, expected_p = REFERENCE_COUNTS[n]
    ok = nonzero == expected_d and len(terms) == expected_p
    rows = []
    if prime_power(n) is not None:
        passes = 0
        for b, c in zip(terms, coeffs):
            b = ExponentVector._trusted(n, b)
            report = dominance_check(b, n, c)
            if report.passed:
                passes += 1
            others = ",".join(str(v) for v in report.other_valuations())
            rows.append({
                "n": str(n), "b": str(b),
                "pass": "true" if report.passed else "false",
                "valuations": f"{report.q_class_valuation}|{others}",
            })
        _emit(fieldnames, rows, args.format, args.out)
        print(f"{passes}/{len(terms)} dominance passes, d={nonzero}, "
              f"p={len(terms)}", file=sys.stderr)
        ok = ok and passes == len(terms)
    else:
        for b, c in zip(terms, coeffs):
            if not c:
                b = ExponentVector._trusted(n, b)
                rows.append({"n": str(n), "b": str(b), "pass": "false",
                             "valuations": ""})
        _emit(fieldnames, rows, args.format, args.out)
        print(f"{len(rows)} vanishing coefficients, d={nonzero}, "
              f"p={len(terms)}", file=sys.stderr)
    if not ok:
        print("inconsistency: results do not match the reference counts",
              file=sys.stderr)
        return 2
    return 0


def cmd_m2p(args):
    """The full monomial-to-power-sum transition matrix for degree q."""
    if not 1 <= args.q <= 8:
        raise _UsageError("q must be between 1 and 8")
    lams = partitions_of(args.q)
    labels = [str(lam) for lam in lams]
    rows = []
    for mu in lams:
        coeffs = m_to_p_expansion(mu)
        row = {"mu": str(mu)}
        for lam, label in zip(lams, labels):
            row[label] = _fraction_str(coeffs.get(lam, 0))
        rows.append(row)
    _emit(["mu"] + labels, rows, args.format, args.out)
    return 0


def _build_parser():
    parser = _Parser(prog="circulant-terms",
                     description="Exact term counts and coefficients for "
                                 "determinants and permanents of generic "
                                 "circulant matrices.")
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default csv)")
    common.add_argument("--out", metavar="FILE", default=None,
                        help="write data rows to FILE instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", parents=[common],
                             help="term counts d(n), p(n) for n = 1..max-n")
    p_table.add_argument("--max-n", type=_integer, default=8, dest="max_n")
    p_table.add_argument("--oracle-max", type=_integer, default=8,
                         dest="oracle_max",
                         help="cross-check d against the expansion oracle "
                              "for n up to this bound (default 8)")
    p_table.add_argument("--jobs", type=_integer, default=1,
                         help="has no effect; kept for compatibility")
    p_table.set_defaults(func=cmd_table)

    p_coeff = sub.add_parser("coeff", parents=[common],
                             help="coefficient of x^b in det(A)")
    p_coeff.add_argument("n", type=_integer)
    p_coeff.add_argument("b", help="comma-separated exponents, e.g. 1,1,1")
    p_coeff.add_argument("--method", choices=("er", "oracle", "both"),
                         default="er")
    p_coeff.add_argument("--jobs", type=_integer, default=1,
                         help="has no effect; kept for compatibility")
    p_coeff.set_defaults(func=cmd_coeff)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="certify non-cancellation (prime powers) "
                                   "or list vanishing coefficients")
    p_verify.add_argument("n", type=_integer)
    p_verify.set_defaults(func=cmd_verify)

    p_m2p = sub.add_parser("m2p", parents=[common],
                           help="monomial-to-power-sum transition matrix "
                                "for degree q")
    p_m2p.add_argument("q", type=_integer)
    p_m2p.set_defaults(func=cmd_m2p)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    try:
        if args.out is not None:
            _check_destination(args.out)
        return args.func(args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (ValueError, _OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RouteDisagreement as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # imported here: it loads tokenize, linecache and textwrap
        import traceback
        traceback.print_exc()
        print("internal inconsistency detected", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
