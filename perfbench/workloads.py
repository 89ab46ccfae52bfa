"""Workloads of the benchmark: the CLI operations each one runs, the
seeded inputs, and the check applied to every operation's output.

Every operation is one CLI invocation in a fresh process.  A check gets
the exit code, stdout and stderr and returns None when the output is
right, or a one-line reason when it is not.
"""

import csv
import hashlib
import io
import json
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Published term counts (d(n), p(n)) of the generic circulant
# determinant and permanent, H. Thomas, arXiv:math/0301048.
PUBLISHED = {
    1: (1, 1), 2: (2, 2), 3: (4, 4), 4: (10, 10), 5: (26, 26),
    6: (68, 80), 7: (246, 246), 8: (810, 810), 9: (2704, 2704),
    10: (7492, 9252), 11: (32066, 32066), 12: (86500, 112720),
}

# SHA-256 of the stdout bytes, recorded when the benchmark was written:
# the CLI's output must stay byte-identical.
STDOUT_SHA256 = {
    ("table", "--max-n", "10", "--jobs", "1"):
        "d9c8948edf257f7fe2bc85ae202ad8b30f59603c87a15f67d41558c649b3425e",
    ("verify", "7"):
        "0517270c09b549f8575eae6c38b98bca80d59ea78d711642f179f408f26fb8cb",
    ("verify", "8"):
        "7cc31132297b3ac22cb7cf43a350fad192bf5bf5535dd384bbdc7658e3cbf4b5",
    ("verify", "10"):
        "710dd98279030217a536742888525a7b4cd1224325d86a110a02c0f53f3cfdc2",
    ("table", "--max-n", "9", "--oracle-max", "9", "--jobs", "1"):
        "c232cf0c85c5d68a0d4e77be591685bd009d1eaaeae91853c9af93c20dca5f02",
}

VERIFY_STDERR = {
    7: "246/246 dominance passes, d=246, p=246\n",
    8: "810/810 dominance passes, d=810, p=810\n",
    10: "1760 vanishing coefficients, d=7492, p=9252\n",
}

# The global sign eps(9) relating the two coefficient routes, recorded
# with the digests above.
SIGN_EPSILON_9 = 1

POINT_NS = (16, 17, 18, 19)
POINT_QUERIES = 192
# Band on work_proxy(b) for point queries.  Unrestricted draws at
# n = 16..19 cost 2 ms to 2 s of engine time (26 to 2910 memo states):
# the total of 192 of them spread 0.14 (quartile distance over median)
# between seeds and took about 26 s.  The band keeps about 7% of draws:
# queries of 37 to 186 memo states, up to about 50 ms a command, all
# within the cheapest 27% of draws by engine time.  Their cost still
# varies in ways the proxy misses, so that 64 of them spread up to 0.10
# between seeds; 192, one cycle of about 20 s, average that down.
# Heavier queries, up to 2910 memo states and 2 s, are left out.
POINT_WORK_BAND = (8000, 20000)
ORACLE_QUERIES = 3

@dataclass(frozen=True)
class Op:
    """One CLI invocation and the check its output must pass."""
    argv: tuple
    check: object


# ---------------------------------------------------------------------------
# seeded inputs


def admissible(n, b):
    """Hall's condition: sum(i * b_i) = 0 (mod n), with sum(b) = n."""
    return (len(b) == n and sum(b) == n and min(b) >= 0
            and sum(i * x for i, x in enumerate(b, 1)) % n == 0)


def work_proxy(b):
    """Sum, over sub-multisets S of the bricks of b whose length sum is a
    multiple of n, of prod over lengths i >= 2 of (s_i + 1).  The first
    factor counts the states the coefficient recursion can reach, the
    second the blocks it tries from each; together they track engine
    time within a factor of about two."""
    n = len(b)
    weight = [1] + [0] * (n - 1)
    for i, x in enumerate(b, 1):
        nxt = [0] * n
        for r, w in enumerate(weight):
            if w:
                for s in range(x + 1):
                    nxt[(r + i * s) % n] += w * (s + 1 if i > 1 else 1)
        weight = nxt
    return weight[0]


def draw_composition(rng, n):
    """A uniformly random admissible b: stars and bars, then rejection."""
    while True:
        cuts = sorted(rng.sample(range(2 * n - 1), n - 1))
        b = [hi - lo - 1 for lo, hi in zip([-1] + cuts, cuts + [2 * n - 1])]
        if admissible(n, b):
            return tuple(b)


def point_queries(seed):
    rng = random.Random(f"point-{seed}")
    lo, hi = POINT_WORK_BAND
    out = []
    for k in range(POINT_QUERIES):
        n = POINT_NS[k % len(POINT_NS)]
        while True:
            b = draw_composition(rng, n)
            if lo <= work_proxy(b) <= hi:
                break
        out.append((n, b))
    return out


def oracle_queries(seed):
    rng = random.Random(f"oracle-{seed}")
    return [(9, draw_composition(rng, 9)) for _ in range(ORACLE_QUERIES)]


def prime_power(n):
    """True when n = p^k for a prime p and k >= 1."""
    p = next(d for d in range(2, n + 1) if n % d == 0)
    while n % p == 0:
        n //= p
    return n == 1


# ---------------------------------------------------------------------------
# reference coefficients by the literal per-partition sum


def reference_coefficients(queries, cache_path):
    """{(n, b): coefficient} by det_coeff_er_terms, the literal
    per-partition sum: a second route, independent of the engine the CLI
    uses.  Values are cached in cache_path by (n, b), so a repeated seed
    costs nothing and a new one is still checked by both routes."""
    try:
        with open(cache_path, encoding="utf-8") as fh:
            cache = json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError):
        cache = {}
    missing = [(n, b) for n, b in queries if _key(n, b) not in cache]
    if missing:
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        from circulant_terms.circulant import (ExponentVector,
                                               det_coeff_er_terms)
        for n, b in missing:
            value = sum(det_coeff_er_terms(ExponentVector(n, b)).values())
            if value.denominator != 1:
                raise RuntimeError(f"reference for {n} {b} is not an integer")
            cache[_key(n, b)] = str(value.numerator)
        Path(cache_path).parent.mkdir(exist_ok=True)
        tmp = f"{cache_path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(cache, fh, sort_keys=True)
        os.replace(tmp, cache_path)
    return {(n, b): int(cache[_key(n, b)]) for n, b in queries}


def _key(n, b):
    return f"{n}:{','.join(map(str, b))}"


# ---------------------------------------------------------------------------
# output checks


def _digest_problem(argv, stdout):
    want = STDOUT_SHA256.get(tuple(argv))
    if want is not None and hashlib.sha256(stdout).hexdigest() != want:
        return "stdout differs from the recorded digest"
    return None


def _status_problem(rc, stderr, want_stderr=b""):
    if rc != 0:
        return f"exit code {rc}"
    if stderr != want_stderr:
        return f"unexpected stderr {stderr[:200]!r}"
    return None


def check_table(max_n):
    def check(argv, rc, stdout, stderr):
        problem = _status_problem(rc, stderr)
        if problem:
            return problem
        rows = list(csv.reader(io.StringIO(stdout.decode(errors="replace"))))
        want = [["n", "d", "p", "equal"]] + [
            [str(n), str(d), str(p), "true" if d == p else "false"]
            for n, (d, p) in sorted(PUBLISHED.items()) if n <= max_n]
        if rows != want:
            return "rows differ from the published d(n), p(n)"
        return _digest_problem(argv, stdout)
    return check


def check_verify(n):
    def check(argv, rc, stdout, stderr):
        return (_status_problem(rc, stderr, VERIFY_STDERR[n].encode())
                or _digest_problem(argv, stdout))
    return check


def check_point(n, b, reference):
    def check(argv, rc, stdout, stderr):
        problem = _status_problem(rc, stderr)
        if problem:
            return problem
        if prime_power(n) and reference == 0:
            return "zero coefficient at a prime power"
        want = f"n,b,coeff_er\n{n},{_csv_b(b)},{reference}\n"
        if stdout.decode(errors="replace") != want:
            return f"stdout {stdout[:200]!r} != reference {want!r}"
        return None
    return check


def check_both(n, b, reference):
    def check(argv, rc, stdout, stderr):
        problem = _status_problem(rc, stderr)
        if problem:
            return problem
        eps = SIGN_EPSILON_9
        want = ("n,b,coeff_er,coeff_oracle,sign_epsilon,consistent\n"
                f"{n},{_csv_b(b)},{reference},{eps * reference},"
                f"{eps:+d},true\n")
        if stdout.decode(errors="replace") != want:
            return f"stdout {stdout[:200]!r} != reference {want!r}"
        return None
    return check


def _csv_b(b):
    # b is written as "1,0,2"; the csv module quotes it because of the commas
    return '"' + ",".join(map(str, b)) + '"'


# ---------------------------------------------------------------------------
# workloads


def build(workload, seed, cache_path):
    """The operations of one cycle of `workload`.  Only point and oracle
    draw from the seed; their references are computed here, before any
    timing starts."""
    if workload == "table":
        return [Op(("table", "--max-n", "10", "--jobs", "1"), check_table(10)),
                Op(("verify", "10"), check_verify(10))]
    if workload == "verify":
        return [Op(("verify", "7"), check_verify(7)),
                Op(("verify", "8"), check_verify(8))]
    if workload == "point":
        queries = point_queries(seed)
        refs = reference_coefficients(queries, cache_path)
        return [Op(("coeff", str(n), ",".join(map(str, b)), "--jobs", "1"),
                   check_point(n, b, refs[n, b])) for n, b in queries]
    if workload == "oracle":
        queries = oracle_queries(seed)
        refs = reference_coefficients(queries, cache_path)
        ops = [Op(("table", "--max-n", "9", "--oracle-max", "9",
                   "--jobs", "1"), check_table(9))]
        ops += [Op(("coeff", "9", ",".join(map(str, b)), "--method", "both",
                    "--jobs", "1"), check_both(n, b, refs[n, b]))
                for n, b in queries]
        return ops
    raise ValueError(f"unknown workload {workload!r}")
