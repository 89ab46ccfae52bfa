"""Runs one benchmark operation inside its own fresh interpreter.

    python3 perfbench/child.py RESULT_FILE TRACE [CLI ARGS...]

Imports circulant_terms, notes when it is ready, times a few rounds of a
fixed calibration computation (a gauge of the host's speed), runs the
CLI exactly as the `circulant-terms` entry point does (stdout and stderr
are the CLI's own) while timing one more round every 0.1 s, and writes
timings as JSON to RESULT_FILE.  With no CLI arguments it only imports,
which measures set-up alone.  With TRACE = 1 the public functions of
every layer are wrapped first, and no rounds run during the command:
each call records a span (name, start, end, parent index) in memory, and
the spans are written to RESULT_FILE once the command has finished.
"""

import json
import resource
import signal
import sys
import time
from math import factorial

# Spanned functions, by (module, attribute).  A span's parent is the
# innermost spanned call that was running when it started.
SPANNED = (
    ("cli", "main"),
    ("circulant", "d_count"),
    ("circulant", "p_count"),
    ("circulant", "permanent_terms"),
    ("circulant", "det_coeff_er"),
    ("circulant", "expand_det"),
    ("circulant", "det_coeff_oracle"),
    ("bricks", "enumerate_filling_classes"),
    ("theorem", "dominance_check"),
    ("theorem", "class_contribution"),
    ("partitions", "partitions_of"),
    ("exactmath", "valuation"),
    ("exactmath", "multinomial"),
)

PACKAGE = "circulant_terms"
CALIBRATION_ROUNDS = 3
ROUND_STEPS = 7000
# seconds between calibration rounds while the command runs
GAUGE_INTERVAL_S = 0.1


def calibration_work():
    """A fixed pure-Python computation of a few milliseconds, shaped like
    the package's own work (dict lookups on tuple keys, integer
    arithmetic) but sharing no code with it, so that a change to the
    package never changes its time.  Its dict stays at 320 entries, so
    that it adds nothing visible to the process's peak memory."""
    table = {}
    acc = 0
    for i in range(ROUND_STEPS):
        key = (i & 63, i % 5)
        value = table.get(key, 1) * 3 + i
        table[key] = value % 1000003
        acc ^= value
    return acc


class Gauge:
    """Times one round of calibration_work every GAUGE_INTERVAL_S seconds
    from a SIGALRM handler, so that the host's speed is sampled on the
    command's own CPU, while the command runs."""

    def __init__(self):
        self.rounds = []

    def _tick(self, signum, frame):
        self.rounds.append(timed_round())

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_INTERVAL_S,
                         GAUGE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def timed_round():
    """Duration of one run of calibration_work."""
    start = time.perf_counter()
    calibration_work()
    return time.perf_counter() - start


def calibrate():
    """Durations of CALIBRATION_ROUNDS runs of calibration_work."""
    return [timed_round() for _ in range(CALIBRATION_ROUNDS)]


def _sweep_perms(args, kwargs):
    # _sweep(n, first=None, target=None) visits n! permutations, or
    # (n-1)! when the first row is fixed.
    n = args[0]
    first = kwargs.get("first", args[1] if len(args) > 1 else None)
    return factorial(n - 1 if first is not None else n)


class Tracer:
    """Wraps functions in place and keeps their spans in memory."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []

    def span(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = [name, start, end, parent, None]
            spans[index][4] = _size(result)
            return result

        return wrapper

    def count(self, name, fn, amount):
        counters = self.counters
        counters[name] = 0

        def wrapper(*args, **kwargs):
            counters[name] += amount(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every traced function in every package module that binds
        it, so calls through `from .circulant import det_coeff_er` are
        traced as well."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module, attr in SPANNED:
            name = f"{module}.{attr}"
            self._patch(modules, module, attr,
                        lambda fn, name=name: self.span(name, fn))
        self._patch(modules, "circulant", "_sweep",
                    lambda fn: self.count("circulant.oracle.perms", fn,
                                          _sweep_perms))

    @staticmethod
    def _patch(modules, module, attr, make):
        home = sys.modules.get(f"{PACKAGE}.{module}")
        original = getattr(home, attr, None)
        if original is None:
            return
        wrapped = make(original)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapped)


def _size(result):
    # Recorded per span: the result's length for list results (terms,
    # classes), whether it is nonzero for integer results (coefficients).
    if isinstance(result, list):
        return len(result)
    if isinstance(result, int) and not isinstance(result, bool):
        return 1 if result else 0
    return None


def cache_sizes():
    """Entries in the package's module-level caches, or None for a cache
    whose attribute is gone or has another shape."""
    def read(module, attr, measure):
        try:
            return measure(getattr(sys.modules[f"{PACKAGE}.{module}"], attr))
        except (AttributeError, KeyError, TypeError):
            return None

    return {
        "circulant.engine.memo_states": read(
            "circulant", "_ENGINES",
            lambda engines: sum(len(e.memo) for e in engines.values())),
        "bricks.w_memo.entries": read("bricks", "_W_MEMO", len),
        "circulant.expand_cache.entries": read("circulant", "_EXPAND_CACHE",
                                               len),
    }


def peak_rss_kb():
    """This process's peak resident set.  VmHWM belongs to the image
    started by exec; ru_maxrss can also carry the launching process's
    peak over, so it is only the fallback."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main():
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    from circulant_terms import cli
    ready = time.monotonic()
    out = {"ready": ready, "calibration": calibrate()}
    if argv:
        tracer = gauge = None
        if trace:
            tracer = Tracer()
            tracer.install()
        else:
            gauge = Gauge()
            gauge.start()
        out["start"] = time.monotonic()
        try:
            rc = cli.main(argv)
            sys.stdout.flush()
        finally:
            if gauge is not None:
                gauge.stop()
        out["end"] = time.monotonic()
        out["ticks"] = gauge.rounds if gauge is not None else []
        out["rc"] = rc
        out["maxrss_kb"] = peak_rss_kb()
        if tracer is not None:
            out["spans"] = tracer.spans
            out["counters"] = tracer.counters
            out["caches"] = cache_sizes()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return out.get("rc", 0)


if __name__ == "__main__":
    sys.exit(main())
