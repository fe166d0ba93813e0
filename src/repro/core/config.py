"""Configuration object for the REPT estimator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.rng import SeedLike, derive_seed


@dataclass
class ReptConfig:
    """Validated parameters of a REPT run.

    Parameters
    ----------
    m:
        Inverse sampling probability: each processor stores ``p = 1/m`` of
        the stream's edges on average.  The paper uses ``m ∈ {2, 3, ...}``;
        ``m = 1`` degenerates to exact counting and is accepted for testing.
    c:
        Number of processors.  ``c ≤ m`` selects Algorithm 1, ``c > m``
        selects Algorithm 2 (processor groups).
    seed:
        Master seed; hash functions receive independently spawned children.
    hash_kind:
        ``"splitmix"`` (default) or ``"tabulation"``.
    track_local:
        Maintain per-node estimates ``τ̂_v`` (needed for Figures 5–6 and the
        local-count applications; costs extra dictionaries).
    track_eta:
        Maintain the η counters (``η(i)``, ``η_v(i)``).  Required when
        ``c > m`` with ``c mod m != 0`` (the Graybill–Deal weights need
        ``η̂``); optional otherwise but useful for diagnostics.  ``None``
        (default) means "exactly when required".  An explicit ``False`` is
        force-resolved to ``True`` in the partial-group regime: honouring it
        would silently plug ``η̂ = 0`` into the Graybill–Deal variances and
        corrupt the combined estimate.  Estimates record whether η was
        actually tracked in ``metadata["eta_tracked"]``.
    kernel:
        Ingestion-kernel request: ``"auto"`` (default — use the compiled C
        kernel when it builds here and every group fits its slot-bitmask
        limit, else the pure-Python path), ``"python"`` (force the dict/set
        reference) or ``"native"`` (require the C kernel; raises if it
        cannot be used).  Both kernels are bit-identical; estimates record
        the resolved label (``"cc"`` or ``"python"``) in
        ``metadata["kernel"]``.  ``REPRO_KERNEL=python`` in the environment
        disables the C kernel (see :mod:`repro.core.kernel`).
    """

    m: int
    c: int
    seed: SeedLike = None
    hash_kind: str = "splitmix"
    track_local: bool = True
    track_eta: Optional[bool] = None
    kernel: str = "auto"

    def __post_init__(self) -> None:
        # Local import: repro.core.kernel depends only on repro.exceptions,
        # but keeping it out of module scope avoids import-order coupling.
        from repro.core.kernel import KERNEL_CHOICES

        if not isinstance(self.m, int) or self.m < 1:
            raise ConfigurationError(f"m must be a positive integer, got {self.m!r}")
        if not isinstance(self.c, int) or self.c < 1:
            raise ConfigurationError(f"c must be a positive integer, got {self.c!r}")
        if self.hash_kind not in ("splitmix", "tabulation"):
            raise ConfigurationError(
                f"hash_kind must be 'splitmix' or 'tabulation', got {self.hash_kind!r}"
            )
        if self.kernel not in KERNEL_CHOICES:
            raise ConfigurationError(
                f"kernel must be one of {KERNEL_CHOICES}, got {self.kernel!r}"
            )
        if self.seed is None:
            # Resolve the seed once so every driver backend (serial or
            # elastic) derives identical hash functions for this config.
            self.seed = int(np.random.SeedSequence().entropy % (2**63))
        if self.track_eta is None:
            self.track_eta = self.requires_eta
        elif not self.track_eta and self.requires_eta:
            # A partial group exists (c > m, c mod m != 0): the Graybill-Deal
            # combination needs η̂, and running without the η counters would
            # silently substitute η̂ = 0 into the plug-in variances.
            self.track_eta = True

    @property
    def probability(self) -> float:
        """The per-processor edge sampling probability ``p = 1/m``."""
        return 1.0 / self.m

    @property
    def uses_groups(self) -> bool:
        """Whether Algorithm 2 (``c > m``) applies."""
        return self.c > self.m

    @property
    def num_complete_groups(self) -> int:
        """``c₁ = ⌊c/m⌋`` when ``c > m``; 0 for Algorithm 1."""
        return self.c // self.m if self.uses_groups else 0

    @property
    def partial_group_size(self) -> int:
        """``c₂ = c mod m`` when ``c > m``; equals ``c`` for Algorithm 1."""
        return self.c % self.m if self.uses_groups else self.c

    @property
    def requires_eta(self) -> bool:
        """Whether the final combination needs the η counters."""
        return self.uses_groups and self.partial_group_size != 0

    def group_sizes(self) -> List[int]:
        """Return the sizes of the processor groups, in group order.

        Algorithm 1 uses a single group of ``c`` processors; Algorithm 2
        uses ``c₁`` complete groups of ``m`` plus, when ``c₂ ≠ 0``, one
        partial group of ``c₂`` processors.
        """
        if not self.uses_groups:
            return [self.c]
        sizes = [self.m] * self.num_complete_groups
        if self.partial_group_size:
            sizes.append(self.partial_group_size)
        return sizes

    def group_hash_seeds(self) -> List[int]:
        """Return one deterministic integer hash seed per processor group.

        Derived from the (resolved) master seed so that every driver —
        in-process estimator, durable runner, elastic shards — constructs
        identical hash functions and therefore identical estimates.
        """
        return [
            derive_seed(self.seed, "rept-group-hash", index)
            for index in range(len(self.group_sizes()))
        ]

    def describe(self) -> str:
        """One-line human-readable description used in experiment reports."""
        algorithm = "Alg.2" if self.uses_groups else "Alg.1"
        return (
            f"REPT({algorithm}, p=1/{self.m}, c={self.c}, "
            f"groups={self.group_sizes()}, hash={self.hash_kind}, "
            f"kernel={self.kernel})"
        )
