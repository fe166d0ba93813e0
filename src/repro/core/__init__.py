"""The paper's primary contribution: the REPT estimator.

REPT (Random Edge Partition and Triangle counting) distributes the edges of
a stream across ``c`` processors with shared random hash functions and
estimates global and local triangle counts from the per-processor
semi-triangle counts.  This subpackage contains:

* :class:`ReptConfig` — validated configuration (``p = 1/m``, ``c``, seed,
  hash family, what to track);
* :class:`ProcessorGroup` / :class:`ProcessorCounters` — the per-processor
  state of Algorithms 1 and 2, including the η counters;
* :class:`ReptEstimator` — the full estimator exposing the common
  :class:`StreamingTriangleEstimator` interface;
* :mod:`repro.core.combine` — estimate assembly, including the
  Graybill–Deal combination used when ``c > m`` and ``c mod m != 0``;
* :mod:`repro.core.parallel` — the ``serial`` and ``chunked-elastic``
  drivers, which advance the same processor states and produce
  bit-identical estimates.
"""

from repro.core.config import ReptConfig
from repro.core.interning import NodeInterner
from repro.core.state import (
    EncodedBatch,
    GroupStateSet,
    ProcessorCounters,
    ProcessorGroup,
)
from repro.core.rept import ReptEstimator
from repro.core.combine import GroupSummary, combine_group_estimates, graybill_deal
from repro.core.parallel import DriverBackedRept, ParallelBackend, run_rept

__all__ = [
    "ReptConfig",
    "NodeInterner",
    "ProcessorCounters",
    "ProcessorGroup",
    "EncodedBatch",
    "GroupStateSet",
    "ReptEstimator",
    "GroupSummary",
    "combine_group_estimates",
    "graybill_deal",
    "run_rept",
    "DriverBackedRept",
    "ParallelBackend",
]
