"""--compare verdicts, and BENCHMARK.json in step with the harness."""

import json

from benchmarks.harness import compare, runner, workloads


def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [v * 0.8 for v in steady],
                           "higher", 0.10)[0] == "regressed"
    assert compare.verdict(steady, [v * 1.2 for v in steady],
                           "higher", 0.10)[0] == "improved"
    assert compare.verdict(steady, [v * 1.2 for v in steady],
                           "lower", 0.10)[0] == "regressed"
    assert compare.verdict(steady, [v * 1.03 for v in steady],
                           "lower", 0.10)[0] == "unchanged"
    noisy = [100.0, 140.0, 70.0, 120.0, 85.0]
    assert compare.verdict(steady, noisy, "lower", 0.10)[0] == "unresolved"


def test_too_few_runs_to_estimate_spread_is_unresolved():
    assert compare.verdict([1.0, 2.0, 3.0], [1.0, 2.0, 3.0],
                           "higher", 0.10)[0] == "unresolved"
    assert compare.verdict([2.0] * 4, [2.0] * 4,
                           "higher", 0.10)[0] == "unchanged"


def test_lost_ladder_steps_are_regressions():
    better, bound = compare.OPEN_LOOP_BOUNDS["sustained_rate_tps"]
    assert compare.verdict([4000] * 5, [2000] * 5,
                           better, bound)[0] == "regressed"
    assert compare.verdict([4000] * 5, [4000] * 5,
                           better, bound)[0] == "unchanged"
    # Not even the lowest rate sustained: 0, the worst value there is.
    assert compare.verdict([2000] * 5, [0] * 5,
                           better, bound)[0] == "regressed"
    assert compare.verdict([0] * 5, [2000] * 5,
                           better, bound)[0] == "improved"
    assert compare.verdict([0] * 5, [0] * 5,
                           better, bound)[0] == "unchanged"
    assert compare.verdict([2000, 2000, 2000, 0, 0], [2000] * 5,
                           better, bound)[0] == "unresolved"


def test_a_zero_open_loop_metric_is_still_gated():
    assert compare.is_end_to_end(
        compare.OPEN_LOOP_WORKLOAD, "sustained_rate_tps", traced=True)
    assert not compare.is_end_to_end(
        "osaka-replay-b1", "sustained_rate_tps", traced=True)
    assert not compare.is_end_to_end(
        compare.OPEN_LOOP_WORKLOAD, "pubsub.broker.fanout", traced=True)
    assert compare.is_end_to_end("osaka-replay-b1", "setup_s", traced=False)


def _result_set(workload, metric, values):
    return {"workloads": {workload: {
        "failed": 0,
        "end_to_end": {metric: {"unit": "1/s", "values": values}},
    }}}


def test_compare_exits_nonzero_on_a_regressed_row(tmp_path, capsys):
    a, b, c = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    a.write_text(json.dumps(
        _result_set("osaka-replay-b1", "throughput_tps", [20000.0] * 5)))
    b.write_text(json.dumps(
        _result_set("osaka-replay-b1", "throughput_tps", [10000.0] * 5)))
    assert compare.compare(str(a), str(b)) == 1
    assert "regressed" in capsys.readouterr().out
    assert compare.compare(str(a), str(a)) == 0
    a.write_text(json.dumps(_result_set(
        compare.OPEN_LOOP_WORKLOAD, "sustained_rate_tps", [2000] * 5)))
    c.write_text(json.dumps(_result_set(
        compare.OPEN_LOOP_WORKLOAD, "sustained_rate_tps", [0] * 5)))
    assert compare.compare(str(a), str(c)) == 1


def test_benchmark_json_matches_the_harness():
    spec = json.loads((compare.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WHY)
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == runner.PER_LAYER_UNITS)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "throughput_tps", "cpu_us_per_tuple", "peak_rss_mb"]
    assert all(p.startswith(spec["paths"][0]) for p in spec["command"][1:])
