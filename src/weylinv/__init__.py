"""weylinv: exact mod-2 invariant machinery for Weyl groups.

Layers, bottom up:

* roots   - exact root systems (doubled-integer coordinates)
* groups  - Weyl groups as root permutations, frames, Omega classes, dihedral
* algebra - the F2 exterior algebra on torsor coordinates with nilpotent {2}
* forms   - torsor-parameterized diagonal forms and Stiefel-Whitney images
* cosets  - U\\W coset spaces, each coset Ug keyed by g^-1(v_U) as packed
            Dynkin labels, and fold certificates
* basis   - named invariants, restriction engine, basis verification reports
* cli     - the weylinv command-line frontend
"""
from __future__ import annotations

__version__ = "0.1.0"

from .roots import RootSystem, build_root_system
from .basis import (
    BasisReport,
    NamedInvariant,
    generators_for,
    restrict,
    upper_bound_dim,
    verify_basis,
)

__all__ = [
    "BasisReport",
    "NamedInvariant",
    "RootSystem",
    "build_root_system",
    "generators_for",
    "restrict",
    "upper_bound_dim",
    "verify_basis",
    "__version__",
]
