"""Exact combinatorial layer of hat-flavor Heegaard Floer homology.

The package works with pointed Heegaard diagrams given purely
combinatorially: curves are cyclic lists of intersection points, regions
are records of genus plus oriented boundary cycles of arcs.  Everything
downstream (domains, Maslov indices, Spin^c classes, admissibility,
the F2 differential) is computed with exact integer and rational
arithmetic; no floating point is used anywhere.
"""

from .diagram import (
    ArcRef,
    HFDFormatError,
    HeegaardDiagram,
    Region,
    ValidationReport,
    connected_sum,
    parse_hfd,
    quadrants,
    serialize_hfd,
    stabilize,
    validate,
)
from .generators import Generator, enumerate_generators
from .domains import (
    Domain,
    PeriodicLattice,
    UnboundedEnumeration,
    boundary_system,
    connecting_domain,
    periodic_lattice,
    positive_domains,
)
from .measures import (
    NonIntegralMeasure,
    basepoint_multiplicity,
    chern_pairing,
    embedded_euler_char,
    euler_measure,
    generator_measure,
    maslov_index,
    periodic_index,
    point_measure,
)
from .spinc import (
    SpincClass,
    grading_divisor,
    relative_gradings,
    spinc_partition,
)
from .admissibility import (
    AdmissibilityReport,
    NotAdmissible,
    area_certificate,
    strong_admissible,
    weak_admissible,
)
from .floer import (
    GradedComplex,
    HomologyClassReport,
    NotCombinatorial,
    RigidShape,
    classify_rigid,
    differential,
    homology,
)
from .corpus import build
from .exactla import InternalError

__all__ = [
    "ArcRef",
    "HFDFormatError",
    "HeegaardDiagram",
    "Region",
    "ValidationReport",
    "connected_sum",
    "parse_hfd",
    "quadrants",
    "serialize_hfd",
    "stabilize",
    "validate",
    "Generator",
    "enumerate_generators",
    "Domain",
    "PeriodicLattice",
    "UnboundedEnumeration",
    "boundary_system",
    "connecting_domain",
    "periodic_lattice",
    "positive_domains",
    "NonIntegralMeasure",
    "basepoint_multiplicity",
    "chern_pairing",
    "embedded_euler_char",
    "euler_measure",
    "generator_measure",
    "maslov_index",
    "periodic_index",
    "point_measure",
    "SpincClass",
    "grading_divisor",
    "relative_gradings",
    "spinc_partition",
    "AdmissibilityReport",
    "NotAdmissible",
    "area_certificate",
    "strong_admissible",
    "weak_admissible",
    "GradedComplex",
    "HomologyClassReport",
    "NotCombinatorial",
    "RigidShape",
    "classify_rigid",
    "differential",
    "homology",
    "build",
    "InternalError",
]

__version__ = "0.1.0"
