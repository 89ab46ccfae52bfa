"""Tests of the benchmark itself: seeded inputs, output checks, span
aggregation and the metric names it emits.

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def names(section):
    return [(m["name"], m["unit"]) for m in BENCHMARK[section]]


def test_point_queries_are_admissible_banded_and_reproducible():
    queries = workloads.point_queries(7)
    assert queries == workloads.point_queries(7)
    assert queries != workloads.point_queries(8)
    assert len(queries) == workloads.POINT_QUERIES
    lo, hi = workloads.POINT_WORK_BAND
    for k, (n, b) in enumerate(queries):
        assert n == workloads.POINT_NS[k % len(workloads.POINT_NS)]
        assert workloads.admissible(n, b)
        assert lo <= workloads.work_proxy(b) <= hi


def test_oracle_queries_are_admissible_and_reproducible():
    queries = workloads.oracle_queries(3)
    assert queries == workloads.oracle_queries(3)
    assert queries != workloads.oracle_queries(4)
    assert all(n == 9 and workloads.admissible(n, b) for n, b in queries)


def test_work_proxy_counts_zero_sum_sub_multisets():
    # b = (0, 2) at n = 2: sub-multisets {}, {2}, {2, 2} all have an even
    # length sum; weights (s_2 + 1) are 1, 2, 3
    assert workloads.work_proxy((0, 2)) == 6
    # b = (2, 0): {}, {1, 1} qualify, length-1 bricks weigh 1
    assert workloads.work_proxy((2, 0)) == 2


def test_prime_power():
    assert [n for n in range(2, 20) if workloads.prime_power(n)] == [
        2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19]


def test_references_are_cached_by_query(tmp_path):
    cache = tmp_path / "refs.json"
    queries = [(4, (1, 1, 1, 1)), (3, (3, 0, 0))]
    refs = workloads.reference_coefficients(queries, cache)
    assert set(json.loads(cache.read_text())) == {"4:1,1,1,1", "3:3,0,0"}
    cache.write_text(json.dumps({"4:1,1,1,1": "99", "3:3,0,0": "7"}))
    assert workloads.reference_coefficients(queries, cache) == {
        (4, (1, 1, 1, 1)): 99, (3, (3, 0, 0)): 7}
    assert refs[3, (3, 0, 0)] != 7


def point_op(n, b, reference):
    return Op(("coeff", str(n), ",".join(map(str, b)), "--jobs", "1"),
              workloads.check_point(n, b, reference))


def test_wrong_reference_counts_as_a_failed_operation(tmp_path):
    b = (1, 1, 1, 1, 1)
    right = workloads.reference_coefficients([(5, b)], tmp_path / "r.json")
    good = point_op(5, b, right[5, b])
    bad = point_op(5, b, right[5, b] + 1)
    result = run.measure([good, bad], 0, False, None)
    assert result["attempted"] == run.PROBES + 2
    assert result["failed"] == 1
    assert result["correct"] is False


def test_zero_coefficient_at_a_prime_power_fails_the_check():
    check = workloads.check_point(5, (1, 1, 1, 1, 1), 0)
    stdout = b'n,b,coeff_er\n5,"1,1,1,1,1",0\n'
    assert "prime power" in check([], 0, stdout, b"")


def test_table_check_needs_published_rows_and_empty_stderr():
    check = workloads.check_table(3)
    good = b"n,d,p,equal\n1,1,1,true\n2,2,2,true\n3,4,4,true\n"
    assert check(["table", "--max-n", "3"], 0, good, b"") is None
    assert check(["table", "--max-n", "3"], 0, good, b"warning\n")
    assert check(["table", "--max-n", "3"], 0,
                 good.replace(b"3,4,4", b"3,4,5"), b"")
    assert check(["table", "--max-n", "10", "--jobs", "1"], 0, good, b"")


def test_emitted_metric_names_match_benchmark_json():
    ops = [Op(("table", "--max-n", "4", "--jobs", "1"),
              workloads.check_table(4)),
           Op(("verify", "5"), lambda *args: None)]
    untraced = run.measure(ops, 0, False, None)
    assert untraced["failed"] == 0
    assert [(k, v["unit"]) for k, v in untraced["metrics"].items()] == \
        names("end_to_end")
    traced = run.measure(ops, 0, True, "trace-test.jsonl")
    assert traced["failed"] == 0
    metrics = traced["metrics"]
    assert [(k, v["unit"]) for k, v in metrics.items()] == names("per_layer")
    # verify 5 checks all p(5) = 26 terms; det_coeff_er is reached through
    # both cli's and theorem's by-name imports, so both are traced
    assert metrics["theorem.dominance_check.calls"]["value"] == 26
    assert metrics["circulant.det_coeff_er.calls"]["value"] >= 2 * 26 + 10
    assert metrics["circulant.oracle.perms"]["value"] == sum(
        [1, 2, 6, 24])


def test_wall_s_is_null_when_an_operation_left_no_time():
    done = {"setup": 0.1, "wall": 2.0, "rss_mb": 20.0, "error": None}
    lost = {"error": "timed out"}
    m = run.end_to_end_metrics([], [[done, done], [done, lost]])
    assert m["wall_s"]["value"] is None
    m = run.end_to_end_metrics([], [[done, done], [done, done]])
    assert m["wall_s"]["value"] == pytest.approx(4.0)


def test_times_are_scaled_by_the_process_calibration_rounds():
    ref = run.GAUGE_REF_S
    # a host twice as slow as the reference halves every time
    assert run.speed_scale([2 * ref, 2 * ref]) == pytest.approx(0.5)
    assert run.speed_scale([ref, 3 * ref]) == pytest.approx(0.5)
    assert run.speed_scale([ref / 2]) == pytest.approx(2.0)


def test_self_time_subtracts_direct_children():
    spans = [["cli.main", 0.0, 10.0, -1, 0],
             ["circulant.d_count", 1.0, 9.0, 0, 1],
             ["circulant.det_coeff_er", 2.0, 5.0, 1, 1],
             ["circulant.det_coeff_er", 5.0, 6.0, 1, 0]]
    m = run.per_layer_metrics(
        [{"spans": spans, "stdout_bytes": 3, "wall": 10.5}], [{"wall": 9.5}])
    value = {k: v["value"] for k, v in m.items()}
    assert value["cli.main.self_s"] == pytest.approx(2.0)
    assert value["circulant.d_count.self_s"] == pytest.approx(4.0)
    assert value["circulant.det_coeff_er.self_s"] == pytest.approx(4.0)
    assert value["circulant.det_coeff_er.calls"] == 2
    assert value["circulant.det_coeff_er.nonzero"] == 1
    assert value["circulant.self_s"] == pytest.approx(8.0)
    assert value["cli.stdout_bytes"] == 3
    assert value["trace.overhead_s"] == pytest.approx(1.0)


def test_cache_sizes_are_null_when_a_cache_is_gone(monkeypatch):
    monkeypatch.syspath_prepend(str(workloads.SRC))
    from circulant_terms import bricks, circulant
    monkeypatch.delattr(bricks, "_W_MEMO")
    monkeypatch.setattr(circulant, "_ENGINES", object())
    sizes = child.cache_sizes()
    assert sizes["bricks.w_memo.entries"] is None
    assert sizes["circulant.engine.memo_states"] is None
    assert isinstance(sizes["circulant.expand_cache.entries"], int)
