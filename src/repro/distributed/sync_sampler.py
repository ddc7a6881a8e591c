"""Bulk-synchronous (BSP) distributed BPMF baseline.

The paper contrasts its asynchronous, buffered exchange against "more
common synchronous approaches like GraphLab": update everything you own,
then exchange everything in one synchronous step, then proceed.  This
sampler produces exactly the same samples as
:class:`repro.distributed.sampler.DistributedGibbsSampler` (the maths does
not change) but its message pattern is one large message per communicating
rank pair and phase, with no opportunity to overlap transfers with the
item updates that produced them.

The strong-scaling model (:mod:`repro.distributed.scaling`) treats runs
configured this way with overlap disabled, which is how the async-vs-sync
ablation benchmark quantifies the benefit the paper claims.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.priors import BPMFConfig
from repro.distributed.sampler import DistributedGibbsSampler, DistributedOptions

__all__ = ["BulkSynchronousGibbsSampler"]


class BulkSynchronousGibbsSampler(DistributedGibbsSampler):
    """Distributed BPMF with one bulk exchange per phase (no streaming buffers).

    Implemented by forcing the per-destination send buffer to be large
    enough to hold every item a rank could possibly send, so each
    communicating pair exchanges exactly one message per phase.
    """

    def __init__(self, config: BPMFConfig | None = None,
                 options: DistributedOptions | None = None):
        # A copy (the caller's options object is not mutated) whose buffer
        # no phase can ever fill, which collapses the streaming exchange
        # into one message per communicating pair.
        super().__init__(config, replace(options or DistributedOptions(),
                                         buffer_capacity=2**31 - 1))
