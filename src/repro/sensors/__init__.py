"""Synthetic sensor fleet.

Substitutes the live Osaka feeds of the paper's demo with seeded,
deterministic generators: physical sensors (temperature, humidity, rain,
wind, pressure, sea water level) with realistic diurnal/tidal/burst
structure, and social sensors (tweets, traffic, train and flight
schedules).  Each simulated sensor publishes itself through the pub-sub
layer and emits stamped tuples on the shared virtual clock at its
advertised frequency.
"""

from repro.sensors.base import SimulatedSensor, ValueGenerator
from repro.sensors.physical import (
    temperature_sensor,
    humidity_sensor,
    rain_sensor,
    wind_sensor,
    pressure_sensor,
    sea_level_sensor,
)
from repro.sensors.social import (
    twitter_sensor,
    traffic_sensor,
    train_schedule_sensor,
    flight_schedule_sensor,
)
from repro.sensors.osaka import osaka_fleet, OSAKA_AREA, OSAKA_CENTER
from repro.sensors.faults import FlakySensor, MalformedPayloadSensor

__all__ = [
    "SimulatedSensor",
    "ValueGenerator",
    "temperature_sensor",
    "humidity_sensor",
    "rain_sensor",
    "wind_sensor",
    "pressure_sensor",
    "sea_level_sensor",
    "twitter_sensor",
    "traffic_sensor",
    "train_schedule_sensor",
    "flight_schedule_sensor",
    "osaka_fleet",
    "OSAKA_AREA",
    "OSAKA_CENTER",
    "FlakySensor",
    "MalformedPayloadSensor",
]
