"""symlab: symbolic-numeric verification of homogeneous-spacetime
electromagnetic fields that preserve the spacetime's motion integrals.

The package bundles a small exact expression engine, Lie-algebra and metric
machinery for the nine three-dimensional homogeneous geometries, residual
checks for the field admissibility conditions, a closed-form solver for the
solvable types, a trajectory integrator that monitors the conserved
quantities, and a command-line front end emitting structured reports.

The submodules load on first attribute access (PEP 562), so ``import
symlab`` loads none of them, and numpy loads only with the numeric checks
of ``verify`` and with ``dynamics``.
"""

import importlib

__version__ = "0.1.0"

__all__ = ["expr", "geometry", "emfield", "catalog", "solver", "dynamics", "cli", "__version__"]


def __getattr__(name):
    if name in __all__:
        # importing a submodule also binds it here, so this runs once per name
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
