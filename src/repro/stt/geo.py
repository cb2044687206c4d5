"""Great-circle distance between WGS84 points.

Proximity filters and the ``distance`` expression function measure in
meters on the sphere.
"""

from __future__ import annotations

import math

#: WGS84 spherical-approximation Earth radius in meters.
EARTH_RADIUS_M = 6_378_137.0


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two WGS84 points in meters."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = (
        math.sin(dphi / 2.0) ** 2
        + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_M * math.asin(math.sqrt(a))
