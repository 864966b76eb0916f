"""The paper's algorithms: online OPIM, OPIM-C, and the baselines it
compares against for online processing (Borgs et al., OPIM-adoption)."""

from repro.core.adoption import AdoptionCurve, OPIMAdoption
from repro.core.borgs import BorgsOnline
from repro.core.opim import BOUND_VARIANTS, OnlineOPIM
from repro.core.opimc import OPIMC, STOPPING_RULES, opim_c
from repro.core.results import IMResult, OnlineSnapshot
from repro.core.session import OPIMSession, SessionResult, StopReason
from repro.core.theta import (
    i_max_iterations,
    log_binomial,
    theta_0,
    theta_max,
    theta_sadeh,
)

__all__ = [
    "OnlineOPIM",
    "OPIMSession",
    "SessionResult",
    "StopReason",
    "BOUND_VARIANTS",
    "OPIMC",
    "opim_c",
    "BorgsOnline",
    "OPIMAdoption",
    "AdoptionCurve",
    "OnlineSnapshot",
    "IMResult",
    "theta_max",
    "theta_0",
    "theta_sadeh",
    "i_max_iterations",
    "log_binomial",
    "STOPPING_RULES",
]
