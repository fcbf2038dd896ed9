"""Exact divisor-class arithmetic and jet-ampleness certificates on
hyperelliptic surfaces.

The package verifies, case by concrete case, that classes of type (m, m)
with m >= k+2 impose independent conditions on weighted jets at any finite
point configuration, by checking every inequality of the supporting case
analysis in exact integer/rational arithmetic and recording the results as
machine-readable certificates.
"""

from .configurations import (
    ABlock,
    Classification,
    JetConfiguration,
    classify,
    enumerate_configurations,
)
from .engine import (
    Certificate,
    build_correction,
    build_twist,
    certify_r1,
    externally_certified_k1,
    iter_certificates,
    verify,
)
from .genus import (
    CurveCandidate,
    enumerate_admissible,
    genus_admissible,
    max_single_multiplicity,
)
from .lattice import (
    BlowupClass,
    DivisorClass,
    blowup_intersect,
    chi,
    h0_ample,
    intersect,
    interpolating_divisor_exists,
    is_ample,
    jet_condition_count,
)
from .surfaces import (
    SurfaceType,
    catalog,
    fibre_classes,
    is_vertical_effective,
    surface,
)

__version__ = "0.1.0"

__all__ = [
    "ABlock",
    "BlowupClass",
    "Certificate",
    "Classification",
    "CurveCandidate",
    "DivisorClass",
    "JetConfiguration",
    "SurfaceType",
    "blowup_intersect",
    "build_correction",
    "build_twist",
    "catalog",
    "certify_r1",
    "chi",
    "classify",
    "enumerate_admissible",
    "enumerate_configurations",
    "externally_certified_k1",
    "fibre_classes",
    "genus_admissible",
    "h0_ample",
    "intersect",
    "interpolating_divisor_exists",
    "is_ample",
    "is_vertical_effective",
    "iter_certificates",
    "jet_condition_count",
    "max_single_multiplicity",
    "surface",
    "verify",
]
