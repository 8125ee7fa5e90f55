"""Exact-arithmetic tools for an interval isometry graph and its matchings.

Submodules:
  algebra   exact quadratic-irrational points and comparisons
  group     a four-generator isometry group in (a, b, c) normal form
  graph     the bipartite graph between two unit intervals
  pathcert  short-path certificates between a point and its image
  dynamics  matching-improvement rounds on one integer path
  cli       command line entry points
"""

from .algebra import AlgebraicPoint, AlphaContext, AlphaSpec
from .errors import EquigraphError, Finding
from .group import (
    GENERATOR_ELEMENTS,
    Generator,
    GroupElement,
    compose,
    enumerate_ball,
    inverse,
)
from .graph import GVertex, IntervalGraph, Side
from .pathcert import CertifiedPath, build_path, verify_lemma
from .dynamics import (
    KMatching,
    kmatching_from_assignment,
    random_kmatching,
    run_dynamics,
)

__version__ = "0.1.0"

__all__ = [
    "GENERATOR_ELEMENTS",
    "AlgebraicPoint",
    "AlphaContext",
    "AlphaSpec",
    "CertifiedPath",
    "EquigraphError",
    "Finding",
    "GVertex",
    "Generator",
    "GroupElement",
    "IntervalGraph",
    "KMatching",
    "Side",
    "build_path",
    "compose",
    "enumerate_ball",
    "inverse",
    "kmatching_from_assignment",
    "random_kmatching",
    "run_dynamics",
    "verify_lemma",
    "__version__",
]
