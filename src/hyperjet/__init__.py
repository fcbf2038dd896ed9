"""Exact divisor-class arithmetic and jet-ampleness certificates on
hyperelliptic surfaces.

The package verifies, case by concrete case, that classes of type (m, m)
with m >= k+2 impose independent conditions on weighted jets at any finite
point configuration, by checking every inequality of the supporting case
analysis in exact integer/rational arithmetic and recording the results as
machine-readable certificates.
"""

from .configurations import classify, enumerate_configurations
from .engine import certify_r1, externally_certified_k1, iter_certificates, verify
from .lattice import DivisorClass
from .surfaces import surface

__version__ = "0.1.0"

__all__ = [
    "DivisorClass",
    "certify_r1",
    "classify",
    "enumerate_configurations",
    "externally_certified_k1",
    "iter_certificates",
    "surface",
    "verify",
]
