"""Command-line front end: reproducible tables, coefficients, and
verification reports as CSV or JSON.

Data rows go to stdout (or --out FILE; --out - is stdout); summaries and
diagnostics go to stderr.  Every value is serialized as a decimal string
(rationals as "num/den"), so no consumer ever sees a float, and identical
invocations produce byte-identical output.

Exit codes: 0 success/consistent, 1 usage, validation or output error, 2 an
internal cross-check (exactmath.admit) caught an inconsistency, printed as
one line "inconsistency: n=... [b=...]: <what> disagrees: <v1> by <r1>, ..."
and no rows from `table` or `verify`; other errors exit 2 with a traceback.

Every launch compiles what this module imports, so it imports only code a
command runs: the certificate module for `verify`, not the theorem module
with its per-term route; json in the JSON branch of _emit alone, and
traceback only to report an internal error.
"""

import csv
import io
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

from .exactmath import (RouteDisagreement, admit, multinomial,
                        prime_power, valuation)
from .partitions import partitions_of
from .bricks import m_to_p_expansion
from .circulant import (ExponentVector, ORACLE_MAX_N, _affine_images,
                        _orbit_values, affine_orbits, d_count, det_coeff_er,
                        det_coeff_oracle, expand_det, hall_admissible,
                        p_count, sign_epsilon)
from .certificate import dominance_table

# Reference term counts for n = 1..12 as (d, p); every entry is
# recomputable from this package itself (d by any coefficient route,
# p by p_count's closed form or by the orbit sizes; the tests also hold
# p to three exhaustive counts in tests/oracles.py).  `verify` admits
# its recomputation against this row before it writes any.
REFERENCE_COUNTS = {
    1: (1, 1), 2: (2, 2), 3: (4, 4), 4: (10, 10), 5: (26, 26),
    6: (68, 80), 7: (246, 246), 8: (810, 810), 9: (2704, 2704),
    10: (7492, 9252), 11: (32066, 32066), 12: (86500, 112720),
}

VERIFY_MAX_N = 12

# a cold coeff process at n = 24 takes 0.08-0.25 s on random draws, but
# the dense term (all ones, a 2 at x_1 and a 0 at x_13; box
# prod(b_i + 1) = 12,582,912, a third of it once det_coeff_er drops the
# 2 as length-n bricks) takes 19 s at 44 MB: 0.6 s at n = 20, 2.8 s at
# 22 (see README)
COEFF_MAX_N = 24


class _UsageError(Exception):
    pass


class _OutputError(Exception):
    pass


class _Help(Exception):
    """-h or --help: its argument is the help text to print."""


def _integer(text):
    """int(text) for ASCII decimal digits with an optional leading minus
    sign and surrounding spaces; int() alone would also take "1_0", "+1"
    and non-ASCII digits."""
    digits = text.strip(" ").removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
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
        # imported here: no other path needs it, and it costs every launch
        import json
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
    cross-checked against the expansion oracle for n <= --oracle-max.
    The p column's closed form is checked against the orbit sizes the d
    column sums, and the orbit count against Burnside's lemma, for every
    n, inside affine_orbits."""
    if not 1 <= args.max_n <= VERIFY_MAX_N:
        raise _UsageError(f"--max-n must be between 1 and {VERIFY_MAX_N}")
    if args.jobs < 1:
        raise _UsageError("--jobs must be at least 1")
    if args.oracle_max < 0:
        raise _UsageError("--oracle-max must be at least 0")
    oracle_limit = min(args.max_n, args.oracle_max, ORACLE_MAX_N)
    rows = []
    for n in range(1, args.max_n + 1):
        d = d_count(n)
        p = p_count(n)
        rows.append({"n": str(n), "d": str(d), "p": str(p),
                     "equal": "true" if d == p else "false"})
        if n <= oracle_limit:
            admit(n, None, "d", {"the partition sum": d,
                                 "the expansion oracle": len(expand_det(n))})
    _emit(("n", "d", "p", "equal"), rows, args.format, args.out)
    return 0


def cmd_coeff(args):
    """The exact coefficient of x^b in det(A), by the requested method(s).
    For an admissible b at a prime power n = p^s, each coefficient's
    p-adic valuation must be that of n!/prod(b_i!), the theorem's
    dominant class, before any row is written.  With both, the row is
    written before admit's disagreement between the routes goes on."""
    if args.jobs < 1:
        raise _UsageError("--jobs must be at least 1")
    if args.n > COEFF_MAX_N:
        raise ValueError(f"coeff bound exceeded (n <= {COEFF_MAX_N})")
    try:
        exponents = [_integer(tok) for tok in args.b.split(",")]
    except ValueError:
        raise _UsageError("b must be comma-separated integers") from None
    b = ExponentVector(args.n, exponents)
    if args.method != "er" and args.n > ORACLE_MAX_N:
        raise ValueError("oracle bound exceeded")
    row = {"n": str(args.n), "b": str(b)}
    disagreement = None
    values = {}
    if args.method in ("er", "both"):
        row["coeff_er"] = str(er := det_coeff_er(b))
        values["the partition sum"] = er
    if args.method in ("oracle", "both"):
        row["coeff_oracle"] = str(oracle := det_coeff_oracle(b))
        values["the expansion oracle"] = oracle
    power = prime_power(args.n)
    if power is not None and hall_admissible(b):
        # at n = p^s the <q> class alone sets v_p of the coefficient
        p = power[0]
        expected = valuation(multinomial(args.n, b.b), p)
        for route, value in values.items():
            admit(args.n, b.b, f"the {p}-adic valuation", {
                route: valuation(value, p) if value else "infinite",
                "the multinomial n!/prod(b_i!)": expected})
    if args.method == "both":
        eps = sign_epsilon(args.n)
        row["sign_epsilon"] = f"{eps:+d}"
        try:
            admit(args.n, b.b, "coefficient",
                  {"the partition sum": er,
                   "sign_epsilon times the oracle": eps * oracle})
        except RouteDisagreement as exc:
            disagreement = exc
        row["consistent"] = "false" if disagreement else "true"
    _emit(list(row), [row], args.format, args.out)
    if disagreement:
        raise disagreement
    return 0


def cmd_verify(args):
    """Both read the affine orbits.  For prime-power n: certify every
    admissible b, its coefficient from its orbit's, by dominance_table,
    dominance_check's verdicts from one walk, and report the valuation
    spectra.  Otherwise: list the admissible b whose coefficient
    vanishes, its orbit's images.  d and p are admitted against the
    reference counts, and the passes against p, before any row is
    written."""
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
    if prime_power(n) is None:
        return _list_vanishing(n, fieldnames, args)
    values = _orbit_values(n)
    nonzero = sum(1 for c in values.values() if c)
    admit(n, None, "(d, p)", {"the coefficient table": (nonzero, len(values)),
                              "REFERENCE_COUNTS": REFERENCE_COUNTS[n]})
    passes = 0

    def certified():
        # each row is made as its term's verdict comes, so _emit never
        # holds every row at once; the passes are admitted after the
        # last, before _emit writes any of its text
        nonlocal passes
        for b, passed, v_base, others in dominance_table(n, values):
            passes += passed
            yield {"n": str(n), "b": ",".join(map(str, b)),
                   "pass": "true" if passed else "false",
                   "valuations": f"{v_base}|{','.join(map(str, others))}"}
        admit(n, None, "the terms that pass", {"dominance_table": passes,
                                               "p": len(values)})

    _emit(fieldnames, certified(), args.format, args.out)
    print(f"{passes}/{len(values)} dominance passes, d={nonzero}, "
          f"p={len(values)}", file=sys.stderr)
    return 0


def _list_vanishing(n, fieldnames, args):
    # composite n: d and p sum the orbit sizes, and only the orbits whose
    # coefficient vanishes are expanded, not _orbit_values' whole map
    d = p = 0
    vanishing = set()
    maps = _affine_images(n)
    for b, size, coeff in affine_orbits(n):
        p += size
        if coeff:
            d += size
        else:
            vanishing.update(image(b) for image, _ in maps)
    admit(n, None, "(d, p)", {"the coefficient table": (d, p),
                              "REFERENCE_COUNTS": REFERENCE_COUNTS[n]})
    admit(n, None, "the vanishing terms", {"the orbit sizes": p - d,
                                           "their images": len(vanishing)})
    _emit(fieldnames, ({"n": str(n), "b": ",".join(map(str, b)),
                        "pass": "false", "valuations": ""}
                       for b in sorted(vanishing)), args.format, args.out)
    print(f"{len(vanishing)} vanishing coefficients, d={d}, p={p}",
          file=sys.stderr)
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


PROG = "circulant-terms"
DESCRIPTION = ("Exact term counts and coefficients for determinants and "
               "permanents of generic circulant matrices.")

# command: (handler, help, positionals), each positional (dest,
# converter, help)
COMMANDS = {
    "table": (cmd_table, "term counts d(n), p(n) for n = 1..max-n", ()),
    "coeff": (cmd_coeff, "coefficient of x^b in det(A)",
              (("n", _integer, "matrix size"),
               ("b", str, "comma-separated exponents, e.g. 1,1,1"))),
    "verify": (cmd_verify, "certify non-cancellation (prime powers) or list "
                           "vanishing coefficients",
               (("n", _integer, "matrix size"),)),
    "m2p": (cmd_m2p, "monomial-to-power-sum transition matrix for degree q",
            (("q", _integer, "degree"),)),
}


class _Option:
    """One row of OPTIONS: the commands that take the option, the
    attribute it sets and its default, a converter that raises ValueError
    with the reason it refuses a value, its help, and the values allowed
    (None for any)."""
    __slots__ = ("commands", "dest", "default", "convert", "help",
                 "choices", "metavar")

    def __init__(self, commands, dest, default, convert, help, choices=None,
                 metavar="N"):
        self.commands = commands
        self.dest = dest
        self.default = default
        self.convert = convert
        self.help = help
        self.choices = choices
        self.metavar = "{" + ",".join(choices) + "}" if choices else metavar


OPTIONS = {
    "--format": _Option(tuple(COMMANDS), "format", "csv", str,
                        "output format (default csv)",
                        choices=("csv", "json")),
    "--out": _Option(tuple(COMMANDS), "out", None, str,
                     "write data rows to FILE instead of stdout "
                     "(- is stdout)",
                     metavar="FILE"),
    "--max-n": _Option(("table",), "max_n", 8, _integer,
                       f"largest n in the table, at most {VERIFY_MAX_N} "
                       f"(default 8)"),
    "--oracle-max": _Option(("table",), "oracle_max", 8, _integer,
                            "cross-check d against the expansion oracle "
                            "for n up to this bound (default 8)"),
    "--jobs": _Option(("table", "coeff"), "jobs", 1, _integer,
                      "has no effect; kept for compatibility"),
    "--method": _Option(("coeff",), "method", "er", str,
                        "coefficient route (default er)",
                        choices=("er", "oracle", "both")),
}

_HELP_NAMES = ("-h", "--help")


def _usage(command):
    return " ".join(
        [PROG, command]
        + [f"[{name} {option.metavar}]" for name, option in OPTIONS.items()
           if command in option.commands]
        + [dest for dest, _, _ in COMMANDS[command][2]])


def _help(command=None):
    """The help text of one command, or with none, of the program."""
    names = list(COMMANDS) if command is None else [command]
    if command is None:
        about = DESCRIPTION
        first = ("commands", [(name, COMMANDS[name][1]) for name in names])
    else:
        about = COMMANDS[command][1]
        first = ("arguments", [(dest, text)
                               for dest, _, text in COMMANDS[command][2]])
    options = [(f"{name} {option.metavar}", option.help)
               for name, option in OPTIONS.items()
               if command is None or command in option.commands]
    options.append((", ".join(_HELP_NAMES), "show this help and exit"))
    sections = (first, ("options", options))
    width = max(len(left) for _, items in sections for left, _ in items) + 2
    lines = ["usage: " + "\n       ".join(map(_usage, names)), "", about]
    for title, items in sections:
        if items:
            lines += ["", f"{title}:"]
            lines += [f"  {left:<{width}}{text}" for left, text in items]
    return "\n".join(lines) + "\n"


def _option(token, names, prog):
    """(name, explicit value or None) for a token that is an option, with
    a unique prefix expanded; None for a token that is a value: one not
    starting with "-", "-" itself, "-" then a digit (so -1,2,2 is a value)
    or, unless it names an option, one holding a space.  An unknown option
    comes back as (token, None)."""
    if token[:1] != "-" or token == "-" or token[1:2].isdigit():
        return None
    name, eq, value = token.partition("=")
    if name not in names and name.startswith("--"):
        matches = [known for known in names if known.startswith(name)]
        if len(matches) > 1:
            raise _UsageError(f"{prog}: error: ambiguous option: {token} "
                              f"could match {', '.join(matches)}")
        if matches:
            name = matches[0]
    if name in names:
        return name, (value if eq else None)
    return None if " " in token else (token, None)


def _convert(prog, name, convert, choices, text):
    try:
        value = convert(text)
    except ValueError as exc:
        raise _UsageError(f"{prog}: error: argument {name}: {exc}") from None
    if choices is not None and value not in choices:
        listed = ", ".join(map(repr, choices))
        raise _UsageError(f"{prog}: error: argument {name}: invalid choice: "
                          f"{value!r} (choose from {listed})")
    return value


def _parse(argv):
    """The handler and the arguments for argv, read by COMMANDS and
    OPTIONS: the command first, then its options and positionals in any
    order, "--" ending the options.  Raises _Help for -h or --help and
    _UsageError for anything else it cannot take."""
    if not argv:
        raise _UsageError(f"{PROG}: error: the following arguments are "
                          f"required: command")
    command = argv[0]
    if command not in COMMANDS:
        if command == "-h" or len(command) > 2 and \
                "--help".startswith(command):
            raise _Help(_help())
        listed = ", ".join(map(repr, COMMANDS))
        raise _UsageError(f"{PROG}: error: argument command: invalid "
                          f"choice: {command!r} (choose from {listed})")
    handler, _, positionals = COMMANDS[command]
    prog = f"{PROG} {command}"
    options = {name: option for name, option in OPTIONS.items()
               if command in option.commands}
    names = _HELP_NAMES + tuple(options)
    args = SimpleNamespace(**{option.dest: option.default
                              for option in options.values()})
    pending = iter(positionals)
    extras = []
    ended = False
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--" and not ended:
            ended = True
            continue
        found = None if ended else _option(token, names, prog)
        if found is None:
            spec = next(pending, None)
            if spec is None:
                extras.append(token)
            else:
                dest, convert, _ = spec
                setattr(args, dest, _convert(prog, dest, convert, None, token))
        elif found[0] in _HELP_NAMES:
            if found[1] is not None:
                raise _UsageError(f"{prog}: error: argument -h/--help: "
                                  f"ignored explicit argument {found[1]!r}")
            raise _Help(_help(command))
        elif found[0] not in options:
            extras.append(token)
        else:
            name, value = found
            if value is None:
                value = next(tokens, None)
                if value is None or value == "--" or \
                        _option(value, names, prog) is not None:
                    raise _UsageError(f"{prog}: error: argument {name}: "
                                      f"expected one argument")
            option = options[name]
            setattr(args, option.dest, _convert(prog, name, option.convert,
                                                option.choices, value))
    missing = [dest for dest, _, _ in pending]
    if missing:
        raise _UsageError(f"{prog}: error: the following arguments are "
                          f"required: {', '.join(missing)}")
    if extras:
        raise _UsageError(f"{prog}: error: unrecognized arguments: "
                          f"{' '.join(extras)}")
    return handler, args


def main(argv=None):
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else argv)
    except _Help as exc:
        sys.stdout.write(exc.args[0])
        return 0
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    try:
        if args.out == "-":
            # the conventional name for stdout, not a file
            args.out = None
        elif args.out is not None:
            _check_destination(args.out)
        return handler(args)
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
