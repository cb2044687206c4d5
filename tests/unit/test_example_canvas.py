"""The shipped example canvas must stay valid and translatable."""

import json
import pathlib

from repro.cli import main
from repro.dataflow.serialize import dataflow_from_dict
from repro.scenario import build_stack

CANVAS = pathlib.Path(__file__).parents[2] / "examples" / "canvases" \
    / "osaka-scenario.json"
GOLDEN = pathlib.Path(__file__).parent / "dsn" / "goldens" / "osaka-scenario.dsn"


class TestShippedCanvas:
    def test_document_loads(self):
        flow = dataflow_from_dict(json.loads(CANVAS.read_text()))
        assert flow.name == "osaka-scenario"
        assert len(flow.controls) == 3

    def test_cli_validates_it(self, capsys):
        assert main(["validate", str(CANVAS)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_cli_translates_it(self, capsys):
        assert main(["translate", str(CANVAS)]) == 0
        assert capsys.readouterr().out == GOLDEN.read_text()

    def test_document_deploys(self):
        stack = build_stack()
        flow = dataflow_from_dict(json.loads(CANVAS.read_text()))
        deployment = stack.executor.deploy(flow)
        stack.run_until(3600.0)
        assert deployment.state.value == "running"
