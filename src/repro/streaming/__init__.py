"""Edge-stream substrate: the sequence-of-edges abstraction ``Π``.

The paper's input model is an undirected graph stream, i.e. a finite
sequence of edges observed one at a time.  :class:`EdgeStream` is that
sequence, plus the plumbing a real deployment needs:

* file readers/writers for common edge-list formats;
* transforms (de-duplication, self-loop removal, node relabelling,
  deterministic shuffling, sub-sampling);
* time-interval windowing for the traffic-monitoring use case the paper's
  introduction motivates (counting triangles per hour of a packet stream);
* the sliding-window monitor serving per-interval estimates online, one
  REPT state set per open window (no record is ever re-ingested).
"""

from repro.streaming.edge_stream import EdgeStream
from repro.streaming.readers import (
    iter_jsonl_records,
    parse_edge_line,
    read_edge_list,
    read_jsonl_records,
)
from repro.streaming.writers import JsonlEdgeLogWriter, write_edge_list
from repro.streaming.transforms import (
    deduplicate_edges,
    drop_self_loops,
    relabel_nodes,
    shuffle_stream,
    subsample_stream,
)
from repro.streaming.windows import TimeWindowedStream, TimestampedRecord
from repro.streaming.monitor import MonitorWindowResult, WindowedTriangleMonitor
from repro.streaming.degree_tracker import DegreeTracker

__all__ = [
    "EdgeStream",
    "DegreeTracker",
    "read_edge_list",
    "parse_edge_line",
    "write_edge_list",
    "JsonlEdgeLogWriter",
    "iter_jsonl_records",
    "read_jsonl_records",
    "deduplicate_edges",
    "drop_self_loops",
    "relabel_nodes",
    "shuffle_stream",
    "subsample_stream",
    "TimeWindowedStream",
    "TimestampedRecord",
    "WindowedTriangleMonitor",
    "MonitorWindowResult",
]
