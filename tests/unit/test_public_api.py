"""Sanity checks on the public API surface of the top-level package."""

import repro


class TestPublicApi:
    def test_all_symbols_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_quickstart_path_types(self):
        stack = repro.build_stack(attach_fleet=False)
        assert isinstance(stack, repro.Stack)
        flow = repro.osaka_scenario_flow(stack)
        assert isinstance(flow, repro.DsnProgram)

    def test_every_table1_spec_exported(self):
        specs = [
            repro.FilterSpec, repro.TransformSpec, repro.ValidateSpec,
            repro.VirtualPropertySpec, repro.CullTimeSpec,
            repro.CullSpaceSpec, repro.AggregationSpec, repro.JoinSpec,
            repro.TriggerOnSpec, repro.TriggerOffSpec,
        ]
        kinds = {spec.kind for spec in specs}
        assert len(kinds) == 10

    def test_subpackages_importable(self):
        import importlib

        for name in (
            "repro.stt", "repro.schema", "repro.expr", "repro.streams",
            "repro.pubsub", "repro.network", "repro.dsn", "repro.dataflow",
            "repro.runtime", "repro.sensors", "repro.warehouse",
            "repro.sticker", "repro.designer", "repro.baselines",
            "repro.cli",
        ):
            importlib.import_module(name)
