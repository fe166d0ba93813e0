"""The REPT estimator (Algorithms 1 and 2 of the paper).

:class:`ReptEstimator` exposes the same one-pass interface as the baselines
(:class:`~repro.baselines.base.StreamingTriangleEstimator`): feed it edges,
ask for an estimate at any time.  Internally it owns one
:class:`~repro.core.state.GroupStateSet` — the shared mergeable-state
abstraction also used by the execution backends and the windowed monitor —
and delegates the final arithmetic to
:func:`repro.core.combine.combine_group_estimates`.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.baselines.base import StreamingTriangleEstimator, TriangleEstimate
from repro.core.config import ReptConfig
from repro.core.interning import NodeInterner
from repro.core.state import GroupStateSet, ProcessorGroup
from repro.types import EdgeTuple, NodeId


class ReptEstimator(StreamingTriangleEstimator):
    """Random Edge Partition and Triangle counting.

    Parameters
    ----------
    config:
        A validated :class:`ReptConfig`.  Convenience constructor
        :meth:`with_params` builds the config inline.

    Examples
    --------
    >>> from repro.core import ReptConfig, ReptEstimator
    >>> from repro.generators import planted_clique_stream
    >>> stream = planted_clique_stream(30)
    >>> estimator = ReptEstimator(ReptConfig(m=4, c=4, seed=7))
    >>> estimate = estimator.run(stream)
    >>> estimate.global_count > 0
    True
    """

    name = "rept"

    def __init__(self, config: ReptConfig) -> None:
        super().__init__()
        self.config = config
        # One state set holds every group and the shared interning table
        # (one encoded batch is valid for all groups — only hash seeds
        # differ); each group tests first occurrence against its own E(i).
        self._state = GroupStateSet(config)

    @classmethod
    def with_params(
        cls,
        m: int,
        c: int,
        seed=None,
        hash_kind: str = "splitmix",
        track_local: bool = True,
        track_eta=None,
    ) -> "ReptEstimator":
        """Build an estimator directly from parameters (see :class:`ReptConfig`)."""
        return cls(
            ReptConfig(
                m=m,
                c=c,
                seed=seed,
                hash_kind=hash_kind,
                track_local=track_local,
                track_eta=track_eta,
            )
        )

    # -- shared-state accessors ------------------------------------------------

    @property
    def groups(self) -> List[ProcessorGroup]:
        """The processor groups of the underlying state set."""
        return self._state.groups

    @property
    def interner(self) -> NodeInterner:
        """The interning table shared by every group."""
        return self._state.interner

    # -- streaming ------------------------------------------------------------

    def process_edge(self, u: NodeId, v: NodeId) -> None:
        self._count_edge()
        self._state.process_edge(u, v)

    def process_edges(self, edges: Iterable[EdgeTuple]) -> None:
        """Batched ingestion: canonicalise, hash and route whole chunks.

        Exactly equivalent to calling :meth:`process_edge` per record
        (identical counters, bit for bit), but the per-edge hashing and
        canonicalisation run as array operations shared by all groups; only
        the residual state updates (and the closure logic, for edges whose
        endpoints co-occur in a slot) execute per edge.
        """
        self.edges_processed += self._state.process_edges(edges)

    # -- estimation -----------------------------------------------------------

    def estimate(self) -> TriangleEstimate:
        estimate = self._state.estimate(self.edges_processed)
        estimate.metadata["algorithm"] = 2.0 if self.config.uses_groups else 1.0
        return estimate

    # -- introspection ----------------------------------------------------------

    @property
    def edges_stored(self) -> int:
        """Total edges currently stored across all processors."""
        return self._state.total_edges_stored()

    def describe(self) -> str:
        """Human-readable configuration summary."""
        return self.config.describe()
