"""Import path of the RR sampler.

:class:`RRSampler` lives in :mod:`repro.sampling.kernel`, next to the
kernels and the RNG contract it drives; this module re-exports it.
"""

from repro.sampling.kernel import RRSampler

__all__ = ["RRSampler"]
