"""Parser for the textual DSN language.

Inverse of :meth:`repro.dsn.ast.DsnProgram.render`; ``parse_dsn(p.render())``
reconstructs an equal program (property-tested).  The grammar is line-
oriented: every statement ends with ``;`` or a brace, parameter values are
JSON documents (which may contain ``;`` and braces, so values are scanned
with JSON-aware quoting rather than naive splitting).
"""

from __future__ import annotations

import json
import re

from repro.errors import DsnParseError
from repro.dsn.ast import (
    DsnChannel,
    DsnControl,
    DsnFuse,
    DsnProgram,
    DsnService,
    DsnShard,
    DsnSlo,
    ServiceRole,
)
from repro.network.qos import QosPolicy

#: A decimal number; a malformed one fails the clause's match, so it is
#: reported as a parse error rather than raised by ``float``.
_NUMBER = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_HEADER_RE = re.compile(r'^dsn\s+"((?:[^"\\]|\\.)*)"\s*\{$')
_SERVICE_RE = re.compile(
    r'^service\s+(source|operator|sink)\s+"((?:[^"\\]|\\.)*)"'
    r'(?:\s+kind\s+"((?:[^"\\]|\\.)*)")?\s*\{$'
)
_PARAM_RE = re.compile(r"^param\s+([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.+);$")
_QOS_RE = re.compile(
    r'^qos\s+class\s+"((?:[^"\\]|\\.)*)"\s+segment\s+(\d+)'
    r"(?:\s+priority\s+(-?\d+))?(?:\s+max_latency\s+(" + _NUMBER + "))?;$"
)
_CHANNEL_RE = re.compile(
    r'^channel\s+"((?:[^"\\]|\\.)*)"\s*->\s*"((?:[^"\\]|\\.)*)"\s+port\s+(\d+)'
    r"(?:\s+batch\s+(\d+)(?:\s+within\s+(" + _NUMBER + "))?)?;$"
)
_CONTROL_RE = re.compile(
    r'^control\s+"((?:[^"\\]|\\.)*)"\s*->\s*"((?:[^"\\]|\\.)*)";$'
)
_SHARD_RE = re.compile(
    r'^shard\s+"((?:[^"\\]|\\.)*)"\s+(\d+)'
    r'(?:\s+by\s+("(?:[^"\\]|\\.)*"(?:\s*,\s*"(?:[^"\\]|\\.)*")*))?'
    r'(?:\s+(elastic))?;$'
)
_SHARD_KEY_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')
_FUSE_RE = re.compile(
    r'^fuse\s+("(?:[^"\\]|\\.)*"(?:\s*->\s*"(?:[^"\\]|\\.)*")+);$'
)
_SLO_RE = re.compile(
    r'^slo\s+"((?:[^"\\]|\\.)*)"\s+([A-Za-z_][A-Za-z0-9_]*)'
    rf"\s+(<=|<|>=|>)\s+({_NUMBER})\s+over\s+({_NUMBER});$"
)


def _unescape(text: str) -> str:
    return text.replace('\\"', '"').replace("\\\\", "\\")


def parse_dsn(text: str) -> DsnProgram:
    """Parse DSN text into a :class:`DsnProgram`.

    Raises :class:`repro.errors.DsnParseError` with the offending line
    number on malformed input.
    """
    lines = text.splitlines()
    program: "DsnProgram | None" = None
    current: "dict | None" = None
    closed = False

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if closed:
            raise DsnParseError("content after closing brace", lineno)

        if program is None:
            match = _HEADER_RE.match(line)
            if not match:
                raise DsnParseError(
                    f'expected dsn "<name>" {{ header, got {line!r}', lineno
                )
            program = DsnProgram(name=_unescape(match.group(1)))
            continue

        if current is not None:
            if line == "}":
                program.services.append(
                    DsnService(
                        role=current["role"],
                        name=current["name"],
                        kind=current["kind"],
                        params=current["params"],
                        qos=current["qos"],
                    )
                )
                current = None
                continue
            match = _PARAM_RE.match(line)
            if match:
                try:
                    current["params"][match.group(1)] = json.loads(match.group(2))
                except json.JSONDecodeError as exc:
                    raise DsnParseError(
                        f"invalid JSON parameter value: {exc}", lineno
                    ) from exc
                continue
            match = _QOS_RE.match(line)
            if match:
                max_latency = match.group(4)
                current["qos"] = QosPolicy(
                    qos_class=_unescape(match.group(1)),
                    segment_bytes=int(match.group(2)),
                    priority=int(match.group(3) or 0),
                    max_latency=(
                        float(max_latency) if max_latency else float("inf")
                    ),
                )
                continue
            raise DsnParseError(f"unexpected service body line {line!r}", lineno)

        if line == "}":
            closed = True
            continue
        match = _SERVICE_RE.match(line)
        if match:
            current = {
                "role": ServiceRole.parse(match.group(1)),
                "name": _unescape(match.group(2)),
                "kind": _unescape(match.group(3) or ""),
                "params": {},
                "qos": None,
            }
            continue
        match = _CHANNEL_RE.match(line)
        if match:
            program.channels.append(
                DsnChannel(
                    source=_unescape(match.group(1)),
                    target=_unescape(match.group(2)),
                    port=int(match.group(3)),
                    batch=int(match.group(4) or 1),
                    within=float(match.group(5) or 1.0),
                )
            )
            continue
        match = _CONTROL_RE.match(line)
        if match:
            program.controls.append(
                DsnControl(
                    trigger=_unescape(match.group(1)),
                    source=_unescape(match.group(2)),
                )
            )
            continue
        match = _SHARD_RE.match(line)
        if match:
            keys_text = match.group(3) or ""
            program.shards.append(
                DsnShard(
                    service=_unescape(match.group(1)),
                    count=int(match.group(2)),
                    keys=tuple(
                        _unescape(key)
                        for key in _SHARD_KEY_RE.findall(keys_text)
                    ),
                    elastic=match.group(4) is not None,
                )
            )
            continue
        match = _FUSE_RE.match(line)
        if match:
            program.fuses.append(
                DsnFuse(
                    members=tuple(
                        _unescape(member)
                        for member in _SHARD_KEY_RE.findall(match.group(1))
                    )
                )
            )
            continue
        match = _SLO_RE.match(line)
        if match:
            program.slos.append(
                DsnSlo(
                    flow=_unescape(match.group(1)),
                    metric=match.group(2),
                    op=match.group(3),
                    threshold=float(match.group(4)),
                    window=float(match.group(5)),
                )
            )
            continue
        raise DsnParseError(f"unexpected statement {line!r}", lineno)

    if program is None:
        raise DsnParseError("empty DSN document", 0)
    if current is not None:
        raise DsnParseError("unterminated service block", len(lines))
    if not closed:
        raise DsnParseError("missing closing brace", len(lines))
    return program
