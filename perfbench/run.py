"""End-to-end and per-layer benchmark of the circulant-terms CLI.

    python3 perfbench/run.py --workload {table,verify,point,oracle}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Every operation is a real CLI
invocation in a fresh interpreter (perfbench/child.py), because a user
pays cold caches on every invocation; outputs are checked operation by
operation (workloads.py), and a failed check is counted, never fatal.

A run repeats the workload's cycle of operations while another cycle
still fits in S seconds (always at least one), and reports:

  --trace 0  wall_s       median over cycles of the summed time of the
                          cycle's operations inside their processes,
                          after import (interpreter start excluded)
             setup_s      median over operations and import-only probes
                          of the time from launching a process until
                          circulant_terms is imported and ready
             peak_rss_mb  highest peak resident memory of any operation
  --trace 1  one untraced cycle, then one cycle with every layer's public
             functions wrapped; per-layer calls, self times (span time
             minus child spans) and counts, and trace.overhead_s (traced
             minus untraced wall_s).  Spans are written to
             .perfbench_work/trace-<workload>.jsonl.

Both times are given at a reference host speed.  The host's speed swings
by up to a factor of two within seconds and by a third over minutes (on
a shared 2-vCPU VM, other tenants' load), and a run's raw times follow
it.  So every process also times a fixed calibration computation
(child.calibration_work) right after import and every 0.1 s while the
command runs, on its own CPU, and each of its times is multiplied by
GAUGE_REF_S over the mean calibration time of that process.  The
calibration shares no code with circulant_terms, so a change to the
package moves the scaled times as it moves the raw ones.  The traced run
reports per-layer self times unscaled, as shares of work; its
trace.overhead_s is a difference of scaled times.

The last line of stdout is the JSON result; the line before it records
the machine, Python, commit, seed and load average around the run.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads
from child import SPANNED
from workloads import ROOT, SRC

CHILD = ROOT / "perfbench" / "child.py"
WORK = ROOT / ".perfbench_work"
PROBES = 15
# Time of one round of child.calibration_work at the reference host speed:
# a fixed reference near one round's time on a 2-vCPU Intel Xeon VM under
# Python 3.11 (2.5 to 3 ms).
GAUGE_REF_S = 0.003
OP_TIMEOUT_S = 170

# Metric names and units, in the order they are printed.  The metrics
# computed below are a superset: per_layer_metrics gives calls and self_s
# for every span of child.SPANNED and self_s for every layer.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
LAYERS = ("circulant", "bricks", "theorem", "partitions", "exactmath")
# spans whose size (a list result's length, or 1 for a nonzero integer
# result) is summed into a metric
SIZE_METRICS = {
    "circulant.det_coeff_er": "circulant.det_coeff_er.nonzero",
    "circulant.permanent_terms": "circulant.permanent_terms.terms",
    "bricks.enumerate_filling_classes": "bricks.classes",
}


# ---------------------------------------------------------------------------
# operations


def run_op(argv, check, trace=False):
    """Run one CLI invocation (or, with argv empty, an import-only probe)
    in a fresh process and check it.  Returns a dict with setup, wall,
    rss_mb, stdout_bytes, error (None when the check passed) and, when
    traced, spans, counters and caches."""
    WORK.mkdir(exist_ok=True)
    result_path = WORK / f"op-{os.getpid()}.json"
    result_path.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(CHILD), str(result_path), "1" if trace else "0",
           *argv]
    launch = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, env=env, cwd=ROOT,
                              timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {OP_TIMEOUT_S} s"}
    try:
        with open(result_path, encoding="utf-8") as fh:
            child = json.load(fh)
        result_path.unlink()
    except (OSError, ValueError):
        return {"error": f"no result from the process (exit {proc.returncode},"
                         f" stderr {proc.stderr[-300:]!r})"}
    # Times are scaled to the reference host speed by the calibration
    # rounds of the same process: those right after import for set-up,
    # and those together with the ones taken while the command ran for
    # the command, whose own time excludes the latter.
    rounds = child["calibration"]
    out = {"setup": (child["ready"] - launch) * speed_scale(rounds),
           "stdout_bytes": len(proc.stdout)}
    if argv:
        ticks = child["ticks"]
        out["wall"] = ((child["end"] - child["start"] - sum(ticks))
                       * speed_scale(rounds + ticks))
        out["rss_mb"] = child["maxrss_kb"] / 1024
        for key in ("spans", "counters", "caches"):
            if key in child:
                out[key] = child[key]
        out["error"] = check(list(argv), proc.returncode, proc.stdout,
                             proc.stderr)
    else:
        out["error"] = (None if proc.returncode == 0 and not proc.stdout
                        and not proc.stderr else
                        f"probe exit {proc.returncode}, "
                        f"stderr {proc.stderr[-300:]!r}")
    return out


def speed_scale(rounds):
    """GAUGE_REF_S over the mean time of a process's calibration rounds:
    the factor that takes a time measured in that process to the
    reference host speed."""
    return GAUGE_REF_S * len(rounds) / sum(rounds)


def run_cycle(ops, trace=False):
    results = []
    for op in ops:
        res = run_op(op.argv, op.check, trace)
        if res["error"]:
            print(f"FAILED {' '.join(op.argv)}: {res['error']}",
                  file=sys.stderr)
        results.append(res)
    return results


def cycle_wall(results):
    """Summed time of a cycle's operations, or None when one of them left
    no time (it timed out or its process wrote no result)."""
    if any("wall" not in r for r in results):
        return None
    return sum(r["wall"] for r in results)


# ---------------------------------------------------------------------------
# metrics


def end_to_end_metrics(probes, cycles):
    setups = [r["setup"] for r in probes + [r for c in cycles for r in c]
              if "setup" in r]
    rss = [r["rss_mb"] for c in cycles for r in c if "rss_mb" in r]
    walls = [cycle_wall(c) for c in cycles]
    values = {
        "wall_s": None if None in walls else statistics.median(walls),
        "setup_s": statistics.median(setups) if setups else None,
        "peak_rss_mb": max(rss) if rss else None,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer_metrics(traced, untraced):
    """Aggregate the traced cycle's spans.  A span's self time is its
    duration minus the durations of its direct children, which nest
    inside it because every call is synchronous."""
    values = dict.fromkeys(SIZE_METRICS.values(), 0)
    for module, attr in SPANNED:
        values[f"{module}.{attr}.calls"] = 0
        values[f"{module}.{attr}.self_s"] = 0.0
    values.update({"trace.spans": 0, "circulant.oracle.perms": 0,
                   "cli.stdout_bytes": 0})
    layer_self = dict.fromkeys(LAYERS, 0.0)
    caches = {}
    for res in traced:
        spans = res.get("spans", [])
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _, size), covered in zip(spans, child_time):
            own = end - start - covered
            values[f"{name}.calls"] += 1
            values[f"{name}.self_s"] += own
            layer = name.split(".")[0]
            if layer in layer_self:
                layer_self[layer] += own
            if name in SIZE_METRICS and size is not None:
                values[SIZE_METRICS[name]] += size
        values["trace.spans"] += len(spans)
        values["circulant.oracle.perms"] += res.get("counters", {}).get(
            "circulant.oracle.perms", 0)
        values["cli.stdout_bytes"] += res.get("stdout_bytes", 0)
        # a cache that is gone in any operation reads null for the cycle
        for name, size in res.get("caches", {}).items():
            total = caches.get(name, 0)
            caches[name] = (None if size is None or total is None
                            else total + size)
    for layer, own in layer_self.items():
        values[f"{layer}.self_s"] = own
    oracle_s = (values["circulant.expand_det.self_s"]
                + values["circulant.det_coeff_oracle.self_s"])
    values["circulant.oracle.perms_per_s"] = (
        values["circulant.oracle.perms"] / oracle_s if oracle_s else 0.0)
    for name in ("circulant.engine.memo_states",
                 "circulant.expand_cache.entries", "bricks.w_memo.entries"):
        values[name] = caches.get(name)
    traced_s, untraced_s = cycle_wall(traced), cycle_wall(untraced)
    values["trace.overhead_s"] = (None if None in (traced_s, untraced_s)
                                  else traced_s - untraced_s)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}


# ---------------------------------------------------------------------------
# run


def run(workload, seed, seconds, trace):
    """One benchmark run; returns the result object printed last."""
    ops = workloads.build(workload, seed, WORK / "references.json")
    return measure(ops, seconds, trace, f"trace-{workload}.jsonl")


def measure(ops, seconds, trace, trace_file):
    if trace:
        untraced = run_cycle(ops)
        traced = run_cycle(ops, trace=True)
        write_spans(WORK / trace_file, ops, traced)
        results = untraced + traced
        metrics = per_layer_metrics(traced, untraced)
    else:
        probes = [run_op((), None) for _ in range(PROBES)]
        cycles, durations = [], []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            cycles.append(run_cycle(ops))
            durations.append(time.monotonic() - t0)
            if (time.monotonic() - start + statistics.median(durations)
                    > seconds):
                break
        results = probes + [r for c in cycles for r in c]
        metrics = end_to_end_metrics(probes, cycles)
    failed = sum(1 for r in results if r["error"])
    return {"correct": failed == 0, "attempted": len(results),
            "failed": failed, "metrics": metrics}


def write_spans(path, ops, traced):
    """Spans of the traced cycle as JSON lines: one line per operation
    with its id, argv and spans [name, start, end, parent index, size]."""
    with open(path, "w", encoding="utf-8") as fh:
        for op_id, (op, res) in enumerate(zip(ops, traced)):
            fh.write(json.dumps({"op": op_id, "argv": list(op.argv),
                                 "spans": res.get("spans", [])}) + "\n")


def context(seed):
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "commit": git_commit(),
            "seed": seed}


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            return (git / ref).read_text().strip()
        except FileNotFoundError:
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def loadavg():
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "circulant_terms" / "cli.py").is_file():
        print(f"error: no circulant_terms sources under {SRC}",
              file=sys.stderr)
        return 2
    info = context(args.seed)
    info["workload"] = args.workload
    info["loadavg_before"] = loadavg()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    info["loadavg_after"] = loadavg()
    print(json.dumps({"context": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
