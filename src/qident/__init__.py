"""Exact-arithmetic verification of q-series partition identities.

Every value is exact: the identity chain and the distribution series
compute on the integer cleared-denominator kernel ``cleared.Cleared``, the
2phi1 sweeps on ``Fraction``, and the independent routes in the
rational-function field Q(q).  So every check is an equality of canonical
forms -- no tolerances anywhere.
"""

from .distributions import Family, MeasureParams, prob, sample
from .identities import verify_all
from .partitions import Partition, ParityConstraint, enumerate_partitions
from .qseries import (
    HypergeometricSpec,
    TruncatedSeries,
    pochhammer,
    two_phi_one,
)
from .rational import Polynomial, RationalFunction, q, q_power
from .report import VerificationReport

__all__ = [
    "Family",
    "HypergeometricSpec",
    "MeasureParams",
    "ParityConstraint",
    "Partition",
    "Polynomial",
    "RationalFunction",
    "TruncatedSeries",
    "VerificationReport",
    "enumerate_partitions",
    "pochhammer",
    "prob",
    "q",
    "q_power",
    "sample",
    "two_phi_one",
    "verify_all",
]

__version__ = "0.1.0"
