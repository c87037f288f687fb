"""Offline analysis tools: clairvoyant replay bounds and reuse taxonomy.

These tools answer the two questions the paper's policies are built around,
from the privileged offline position of having the whole trace up front:

* :mod:`repro.analysis.belady` — how much hit rate is attainable by *any*
  eviction order (a Belady-style farthest-next-use replay), giving online
  policies an upper-bound yardstick.
* :mod:`repro.analysis.taxonomy` — how much of each request's input is
  reusable, split into the paper's two prefix-reuse classes ("purely
  input" vs "input + output", section 4.1).
"""

from repro.analysis.capacity import (
    CapacityPoint,
    CapacityRecommendation,
    capacity_curve,
    recommend_capacity,
)
from repro.analysis.belady import (
    ClairvoyantEviction,
    ClairvoyantResult,
    clairvoyant_replay,
)
from repro.analysis.timeseries import WindowPoint, windowed_hit_rate
from repro.analysis.taxonomy import (
    RequestReuse,
    ReuseClass,
    TaxonomyReport,
    classify_trace,
)

__all__ = [
    "CapacityPoint",
    "CapacityRecommendation",
    "capacity_curve",
    "recommend_capacity",
    "ClairvoyantEviction",
    "ClairvoyantResult",
    "clairvoyant_replay",
    "ReuseClass",
    "RequestReuse",
    "TaxonomyReport",
    "classify_trace",
    "WindowPoint",
    "windowed_hit_rate",
]
