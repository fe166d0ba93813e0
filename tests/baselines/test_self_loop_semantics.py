"""Counted-vs-skipped audit: uniform self-loop semantics across estimators.

The library-wide contract (documented on StreamingTriangleEstimator): every
stream record — self-loops included — counts toward ``edges_processed``,
but self-loops never influence the estimate.  Feeding the same stream with
and without interleaved self-loops must therefore change only the processed
count, never the global or local estimates, for *every* estimator.
"""

import pytest

from repro.baselines.doulion import DoulionEstimator
from repro.baselines.exact import ExactStreamingCounter
from repro.baselines.gps import GpsInStreamEstimator
from repro.baselines.mascot import MascotEstimator
from repro.baselines.parallel import parallelize
from repro.baselines.triest import TriestImprEstimator
from repro.baselines.triest_base import TriestBaseEstimator
from repro.core.config import ReptConfig
from repro.core.parallel import DriverBackedRept
from repro.core.rept import ReptEstimator

CLEAN = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 0), (1, 3)]
DIRTY = [(0, 1), (5, 5), (1, 2), (0, 2), (2, 3), (0, 0), (3, 0), (1, 3), (2, 2)]

FACTORIES = [
    pytest.param(lambda: ExactStreamingCounter(), id="exact"),
    pytest.param(lambda: DoulionEstimator(0.9, seed=4), id="doulion"),
    pytest.param(lambda: MascotEstimator(0.9, seed=4), id="mascot"),
    pytest.param(lambda: TriestImprEstimator(4, seed=4), id="triest-impr"),
    pytest.param(lambda: TriestBaseEstimator(4, seed=4), id="triest-base"),
    pytest.param(lambda: GpsInStreamEstimator(4, seed=4), id="gps"),
    pytest.param(lambda: ReptEstimator(ReptConfig(m=2, c=3, seed=4)), id="rept"),
    pytest.param(
        lambda: DriverBackedRept(ReptConfig(m=2, c=3, seed=4), backend="serial"),
        id="rept-driver",
    ),
    pytest.param(
        lambda: parallelize("mascot", 2, 0.9, len(CLEAN), seed=4), id="ensemble"
    ),
]


class TestSelfLoopSemantics:
    @pytest.mark.parametrize("factory", FACTORIES)
    def test_loops_counted_but_never_estimated(self, factory):
        clean = factory().run(CLEAN)
        dirty = factory().run(DIRTY)
        assert dirty.edges_processed == len(DIRTY)
        assert clean.edges_processed == len(CLEAN)
        assert dirty.global_count == clean.global_count
        assert dirty.local_counts == clean.local_counts
        assert dirty.edges_stored == clean.edges_stored

    def test_triest_weights_use_reservoir_clock(self):
        # Regression for the counted-vs-offered skew: with a budget smaller
        # than the stream, TRIÈST-IMPR's weight η_t = (t-1)(t-2)/(k(k-1))
        # must be driven by offered (non-loop) edges.  Before the fix, the
        # interleaved self-loops inflated t and hence the estimate.
        clean = TriestImprEstimator(4, seed=8).run(CLEAN)
        dirty = TriestImprEstimator(4, seed=8).run(DIRTY)
        assert dirty.global_count == clean.global_count

    def test_triest_base_scaling_uses_reservoir_clock(self):
        budget = 3
        clean = TriestBaseEstimator(budget, seed=8).run(CLEAN)
        dirty = TriestBaseEstimator(budget, seed=8).run(DIRTY)
        assert dirty.global_count == clean.global_count
