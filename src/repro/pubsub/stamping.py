"""Spatio-temporal stamp back-fill.

The paper: *"whenever a sensor is not able to produce the spatio-temporal
information of the produced data, this information is added by the
Publish-Subscribe system that we adopt in our architecture."*

A raw reading may arrive as a bare payload, a payload plus a partial stamp,
or a fully stamped tuple.  :func:`backfill_stamp` completes whatever is
missing from the sensor's advertisement: location defaults to the sensor's
registered position, time to the current virtual time, granularities and
themes to the advertised schema's.
"""

from __future__ import annotations

from repro.pubsub.registry import SensorMetadata
from repro.streams.tuple import SensorTuple
from repro.stt.event import SttStamp


def backfill_stamp(
    payload: dict,
    metadata: SensorMetadata,
    now: float,
    stamp: "SttStamp | None" = None,
    seq: int = 0,
) -> SensorTuple:
    """Build a fully stamped :class:`SensorTuple` from a raw reading.

    Args:
        payload: the sensor's attribute values.
        metadata: the sensor's advertisement (source of the defaults).
        now: current virtual time, used when the reading has no timestamp.
        stamp: partial stamp if the sensor produced one (its fields win).
        seq: per-sensor sequence number.
    """
    schema = metadata.schema
    # The advertised schema and a sensor-made stamp already hold typed
    # granularities and themes, so nothing is coerced per reading.
    if stamp is None:
        full = SttStamp.typed(
            now,
            metadata.location,
            schema.temporal_granularity,
            schema.spatial_granularity,
            schema.themes,
        )
    elif stamp.themes:
        full = stamp
    else:
        full = SttStamp.typed(
            stamp.time,
            stamp.location,
            stamp.temporal_granularity,
            stamp.spatial_granularity,
            schema.themes,
        )
    return SensorTuple.from_owned(dict(payload), full, metadata.sensor_id, seq)
