"""Unit tests for the DSN parser."""

import pytest

from repro.dsn.ast import ServiceRole
from repro.dsn.parse import parse_dsn
from repro.errors import DsnParseError
from tests.unit.dsn.test_ast import small_program
from tests.unit.dsn.test_check import row


class TestRoundTrip:
    def test_parse_of_render_is_identity(self):
        program = small_program()
        parsed = parse_dsn(program.render())
        assert parsed.render() == program.render()

    def test_parsed_fields(self):
        parsed = parse_dsn(small_program().render())
        assert parsed.name == "p"
        assert parsed.service("src").role is ServiceRole.SOURCE
        assert parsed.service("src").params["filter"] == {"sensor_type": "rain"}
        assert parsed.service("f").params["condition"] == "rain_rate > 10"
        assert parsed.service("k").qos is not None

    def test_comments_and_blank_lines_ignored(self):
        text = small_program().render()
        commented = "# generated\n\n" + text.replace(
            'dsn "p" {', 'dsn "p" {\n  # services below'
        )
        assert parse_dsn(commented).render() == text


class TestErrors:
    def test_empty_document(self):
        with pytest.raises(DsnParseError, match="empty"):
            parse_dsn("")

    def test_missing_header(self):
        with pytest.raises(DsnParseError, match="header"):
            parse_dsn('service source "x" {\n}\n')

    def test_missing_closing_brace(self):
        with pytest.raises(DsnParseError, match="closing brace"):
            parse_dsn('dsn "p" {\n')

    def test_unterminated_service(self):
        with pytest.raises(DsnParseError, match="unterminated"):
            parse_dsn('dsn "p" {\n  service source "x" {\n')

    def test_invalid_json_param(self):
        text = (
            'dsn "p" {\n'
            '  service operator "f" kind "filter" {\n'
            "    param condition = {broken json;\n"
            "  }\n"
            "}\n"
        )
        with pytest.raises(DsnParseError, match="JSON"):
            parse_dsn(text)

    def test_malformed_number(self):
        with pytest.raises(DsnParseError, match="unexpected statement"):
            parse_dsn('dsn "p" {\n  slo "p" p99_latency < 5 over 1e-;\n}\n')

    def test_unknown_statement(self):
        text = 'dsn "p" {\n  teleport "a" -> "b";\n}\n'
        with pytest.raises(DsnParseError, match="unexpected statement"):
            parse_dsn(text)

    def test_line_number_reported(self):
        text = 'dsn "p" {\n  nonsense;\n}\n'
        with pytest.raises(DsnParseError, match="line 2"):
            parse_dsn(text)

    def test_content_after_close(self):
        text = small_program().render() + 'control "f" -> "src";\n'
        with pytest.raises(DsnParseError, match="after closing"):
            parse_dsn(text)

    test_undeclared_endpoint_caught_by_check = row("channel-undeclared")


class TestShardClause:
    def _program_text(self, shard_line: str) -> str:
        return (
            'dsn "p" {\n'
            '  service operator "agg" kind "aggregation" {\n  }\n'
            '  service source "s" {\n  }\n'
            '  channel "s" -> "agg" port 0;\n'
            f"  {shard_line}\n"
            "}\n"
        )

    def test_plain_shard_not_elastic(self):
        parsed = parse_dsn(self._program_text('shard "agg" 4 by "station";'))
        (shard,) = parsed.shards
        assert shard.count == 4
        assert shard.keys == ("station",)
        assert shard.elastic is False

    def test_elastic_shard_parsed(self):
        parsed = parse_dsn(
            self._program_text('shard "agg" 4 by "station" elastic;'))
        (shard,) = parsed.shards
        assert shard.elastic is True

    def test_elastic_round_trips(self):
        text = self._program_text('shard "agg" 8 by "station", "hour" elastic;')
        rendered = parse_dsn(text).render()
        assert 'shard "agg" 8 by "station", "hour" elastic;' in rendered
        assert parse_dsn(rendered).render() == rendered

    def test_misplaced_elastic_rejected(self):
        with pytest.raises(DsnParseError, match="unexpected statement"):
            parse_dsn(self._program_text('shard "agg" 4 elastic by "station";'))


class TestValueEdgeCases:
    def test_string_with_semicolons_and_braces(self):
        text = (
            'dsn "p" {\n'
            '  service operator "f" kind "filter" {\n'
            '    param condition = "contains(text, \'a;b}c\')";\n'
            "  }\n"
            '  service source "s" {\n  }\n'
            '  channel "s" -> "f" port 0;\n'
            "}\n"
        )
        parsed = parse_dsn(text)
        assert parsed.service("f").params["condition"] == "contains(text, 'a;b}c')"

    def test_nested_json_values(self):
        text = (
            'dsn "p" {\n'
            '  service source "s" {\n'
            '    param filter = {"area": [34.5, 135.3, 34.9, 135.7], '
            '"sensor_ids": ["a", "b"]};\n'
            "  }\n"
            "}\n"
        )
        parsed = parse_dsn(text)
        assert parsed.service("s").params["filter"]["sensor_ids"] == ["a", "b"]
