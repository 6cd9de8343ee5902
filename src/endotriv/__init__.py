"""endotriv: endotrivial-module group classification for linear groups
SL(n,q) <= G <= GL(n,q) in coprime characteristic, with brute-force
verification of the supporting group theory on desk-scale matrix groups.
"""

__version__ = "0.1.0"

from .abst import AbelianStructure, ExtensionDescriptor, cyclic  # noqa: F401
from .errors import (AmbiguousCase, CapExceeded, DomainError,  # noqa: F401
                     EndotrivError, GroupSpecError)
from .gf import FieldSpec, field_spec  # noqa: F401
