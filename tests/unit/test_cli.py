"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.dataflow.ops import FilterSpec
from repro.dataflow.serialize import dataflow_to_dict
from repro.dsn.parse import parse_dsn
from repro.pubsub.subscription import SubscriptionFilter
from repro.runtime.backends import live_backends
from tests.builders import pipeline


def canvas_document(valid=True) -> dict:
    condition = "temperature > 24" if valid else "ghost > 1"
    return dataflow_to_dict(pipeline(
        "cli-canvas", ("hot", FilterSpec(condition)),
        match=SubscriptionFilter(sensor_ids=("osaka-temp-umeda",))))


class TestOperators:
    def test_lists_all_ten(self, capsys):
        assert main(["operators"]) == 0
        out = capsys.readouterr().out
        for name in ("filter", "join", "trigger-on", "cull-space"):
            assert name in out


class TestSensors:
    def test_lists_fleet(self, capsys):
        assert main(["sensors"]) == 0
        out = capsys.readouterr().out
        assert "osaka-temp-umeda" in out
        assert "weather/temperature" in out

    def test_extended_roster(self, capsys):
        assert main(["sensors", "--extended"]) == 0
        assert "osaka-tide-port" in capsys.readouterr().out


class TestValidate:
    def test_valid_canvas(self, tmp_path, capsys):
        path = tmp_path / "canvas.json"
        path.write_text(json.dumps(canvas_document(valid=True)))
        assert main(["validate", str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_invalid_canvas(self, tmp_path, capsys):
        path = tmp_path / "canvas.json"
        path.write_text(json.dumps(canvas_document(valid=False)))
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out
        assert "ghost" in out

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/canvas.json"]) == 2
        assert "error" in capsys.readouterr().err


class TestTranslate:
    def test_prints_dsn(self, tmp_path, capsys):
        path = tmp_path / "canvas.json"
        path.write_text(json.dumps(canvas_document(valid=True)))
        assert main(["translate", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith('dsn "cli-canvas" {')
        parse_dsn(out)  # the printed artifact is valid DSN

    def test_invalid_canvas_fails(self, tmp_path, capsys):
        path = tmp_path / "canvas.json"
        path.write_text(json.dumps(canvas_document(valid=False)))
        assert main(["translate", str(path)]) == 1


class TestScenario:
    def test_hot_run(self, capsys):
        assert main(["scenario", "--hours", "10"]) == 0
        out = capsys.readouterr().out
        assert "StreamLoader monitor" in out
        assert "activated" in out

    def test_cool_run(self, capsys):
        assert main(["scenario", "--hours", "6", "--cool"]) == 0
        out = capsys.readouterr().out
        assert "trigger never fired" in out

    def test_kernel_choice_is_not_a_flag(self, capsys):
        # How a fused chain executes a batch is picked from the batch.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario", "--no-columnar"])
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command",
                             ["scenario", "trace", "metrics", "health"])
    def test_fusion_is_not_a_flag(self, command, capsys):
        # Every deployment takes the planner's chains (or the program's).
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--no-fuse"])
        assert "unrecognized arguments" in capsys.readouterr().err


class TestBatchFlags:
    @pytest.mark.parametrize("flags, coalesced", [
        (["--batch", "32", "--max-delay", "60"], True), (["--batch", "1"], False)])
    def test_batch_flags_reach_the_program(self, flags, coalesced, capsys):
        assert main(["metrics", "--hours", "1", "--sampling", "0", "--json",
                     *flags]) == 0
        payload = json.loads(capsys.readouterr().out)
        [sizes] = payload["broker_batch_size"]["series"]
        # Published batches holding more than one reading.
        assert (sizes["count"] > sizes["buckets"]["1"]) is coalesced


class TestHealth:
    def test_health_screen(self, capsys):
        assert main(["health", "stations", "--hours", "2"]) == 0
        out = capsys.readouterr().out
        assert "== health @ t=" in out
        assert "-- objectives --" in out
        assert "station-averages:station-avg" in out

    def test_health_json_fires_and_resolves(self, capsys):
        assert main([
            "health", "stations", "--hours", "2",
            "--slo", "watermark_lag < 200", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        events = {entry[1] for entry in payload["history"]}
        assert events == {"fire", "resolve"}
        rule = payload["rules"]["slo:station-averages:watermark_lag"]
        assert rule["threshold"] == 200.0

    def test_health_json_shard_invariant(self, capsys):
        texts = []
        for shards in ("1", "4"):
            assert main([
                "health", "stations", "--hours", "1", "--shards", shards,
                "--slo", "watermark_lag < 450", "--json",
            ]) == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]

    def test_bad_slo_expression_is_an_error(self, capsys):
        assert main(["health", "stations", "--slo", "p99 latency bad"]) == 1
        assert "error" in capsys.readouterr().err

    def test_a_bad_slo_closes_the_async_backend(self, capsys):
        assert main(["health", "--backend", "async",
                     "--slo", "not a rule"]) == 1
        assert "cannot parse SLO rule" in capsys.readouterr().err
        assert live_backends() == []

    def test_a_missing_canvas_closes_the_async_backend(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        assert main(["health", missing, "--backend", "async"]) == 2
        assert "absent.json" in capsys.readouterr().err
        assert live_backends() == []
