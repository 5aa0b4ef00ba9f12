"""Clones, substitution algebras over finite-ordinal presheaves, and the
exact translations between them, with desk-scale law checking.

The package root exports only ``__version__``: import each name from the
module that defines it, as in ``from clone_forge.clone import FreeClone``.
"""

__version__ = "0.1.0"
