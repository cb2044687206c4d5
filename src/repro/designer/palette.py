"""The designer's palette: available sources and operators.

The left-hand panel of Figure 2: the sensors currently published (grouped
by the discovery service's organisation criteria) and the fixed roster of
Table 1 operations with their parameter forms.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pubsub.discovery import DiscoveryService
from repro.pubsub.registry import SensorMetadata, SensorRegistry


@dataclass(frozen=True)
class PaletteEntry:
    """One draggable palette item."""

    name: str
    category: str
    description: str
    parameters: tuple[str, ...] = ()


#: The operator palette — one entry per Table 1 operation, with the
#: parameter names the designer's form asks for.
OPERATOR_PALETTE: tuple[PaletteEntry, ...] = (
    PaletteEntry("filter", "per-tuple", "σ(s, cond): keep tuples satisfying cond",
                 ("condition",)),
    PaletteEntry("transform", "per-tuple",
                 "▷trans s: rewrite attributes (units, coordinates, ...)",
                 ("assignments", "rename", "project")),
    PaletteEntry("validate", "per-tuple",
                 "check tuples against validation rules; quarantine violators",
                 ("rules",)),
    PaletteEntry("virtual-property", "per-tuple",
                 "⊎ s⟨p, spec⟩: add a computed attribute",
                 ("property_name", "spec")),
    PaletteEntry("cull-time", "per-tuple",
                 "γr(s,⟨t1,t2⟩): down-sample tuples in a time interval",
                 ("rate", "start", "end")),
    PaletteEntry("cull-space", "per-tuple",
                 "γr(s,⟨c1,c2⟩): down-sample tuples in an area",
                 ("rate", "corner1", "corner2")),
    PaletteEntry("aggregation", "windowed",
                 "@t,{a..} op(s): COUNT/AVG/SUM/MIN/MAX every t seconds",
                 ("interval", "attributes", "function")),
    PaletteEntry("join", "windowed",
                 "s1 ⋈t s2: join cached tuples every t seconds",
                 ("interval", "predicate", "left_prefix", "right_prefix")),
    PaletteEntry("trigger-on", "control",
                 "⊕ON,t: activate sensor streams when cond holds",
                 ("interval", "condition", "targets", "window")),
    PaletteEntry("trigger-off", "control",
                 "⊕OFF,t: de-activate sensor streams when cond holds",
                 ("interval", "condition", "targets", "window")),
)


class Palette:
    """Live palette bound to the pub-sub registry."""

    def __init__(self, registry: SensorRegistry) -> None:
        self.discovery = DiscoveryService(registry)

    def operators(self) -> tuple[PaletteEntry, ...]:
        return OPERATOR_PALETTE

    def sources(self, organise_by: str = "type") -> dict[str, list[SensorMetadata]]:
        """Published sensors grouped by an organisation criterion.

        ``organise_by`` is one of ``type``, ``location``, ``rate``,
        ``node`` — the criteria the requirements section names.
        """
        if organise_by == "type":
            return self.discovery.group_by_type()
        if organise_by == "location":
            return self.discovery.group_by_location()
        if organise_by == "rate":
            return self.discovery.group_by_rate()
        if organise_by == "node":
            return self.discovery.group_by_node()
        raise ValueError(
            f"unknown organisation criterion {organise_by!r}; "
            f"use type/location/rate/node"
        )
