"""Reverse influence sampling: alias tables, RR-set samplers, collections."""

from repro.sampling.alias import AliasTable
from repro.sampling.collection import RRCollection
from repro.sampling.hop import HopEstimator
from repro.sampling.kernel import (
    RRSampler,
    resolve_kernel,
    sample_rr_sets_kernel,
)
from repro.sampling.rrset_lt import LTAliasTables
from repro.sampling.rrset_triggering import (
    fixed_size_triggering_sets,
    ic_triggering_sets,
    lt_triggering_sets,
)
from repro.sampling.service import SamplingPool, batch_rng, batch_schedule

__all__ = [
    "AliasTable",
    "RRCollection",
    "RRSampler",
    "HopEstimator",
    "SamplingPool",
    "resolve_kernel",
    "sample_rr_sets_kernel",
    "batch_rng",
    "batch_schedule",
    "LTAliasTables",
    "ic_triggering_sets",
    "lt_triggering_sets",
    "fixed_size_triggering_sets",
]
