"""Exact combinatorics of disk complexes.

Simplicial complexes with integer homology, a homology-based index, the
join-homology formula, a catalog of local surface pieces in a tetrahedron
with an additivity engine, width orderings with surgery descent, cube and
dual-cell constructions, a dichotomy verifier, and a randomized
verification suite tying everything together.

``import diskplex`` loads no submodule: each public name is imported from
its home module on first access (PEP 562), so a command-line call pays
only for the modules it runs.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# Home module -> the public names it defines, in ``__all__`` order.
_HOMES = {
    "simplicial": (
        "SimplicialComplex", "adjacency_subcomplex", "barycentric_subdivision",
        "boundary_of_simplex", "cone", "empty_complex", "from_facets", "full_subcomplex",
        "join", "join_all", "link", "point", "relabel", "simplex_complex", "star",
    ),
    "homology": (
        "ACYCLIC_INDEX", "AbelianGroup", "HomologyIndex", "HomologyProfile", "ZERO_INDEX",
        "finite_index", "homology_index", "reduced_homology", "smith_normal_form",
    ),
    "join_formula": ("index_sum_law", "join_homology_via_formula", "verify_milnor"),
    "pieces": ("LocalPiece", "catalog", "check_normal_arcs", "local_index", "piece"),
    "additivity": (
        "Gluing", "Placement", "SurfaceConfiguration", "TetGluing", "check_matching",
        "euler_characteristic", "global_complex", "load_config", "verify_index_sum",
    ),
    "width": (
        "MoveKind", "SurfaceComponentModel", "SurgeryMove", "Width", "apply_surgery",
        "available_moves", "compare_width", "verify_width_decrease", "width",
    ),
    "cubes": ("CubicalComplex", "cube_from_cone", "dual_cells", "subdivide_cube", "validate_ball"),
    "dichotomy": ("DichotomyWitness", "check_dichotomy"),
    "io": ("canonical_json", "parse_complex", "write_complex"),
    "suite": ("RunConfig", "run_suite"),
}
_EXPORTS = {name: home for home, names in _HOMES.items() for name in names}
_SUBMODULES = frozenset(_HOMES) | {"cli", "corpus"}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Value:
    """Base of the immutable record types.

    A subclass names its fields in ``_fields``; ``repr`` shows them as
    ``Name(field=value, ...)``, and equality and hashing read them through
    ``_key``, which a subclass overrides to leave a field out.  Instances
    compare equal only within one class.  Each ``__init__`` runs its checks,
    then binds every field in one ``self.__dict__.update(...)`` call, which
    bypasses ``__setattr__``; later assignment or deletion raises
    AttributeError.
    """

    _fields: tuple = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _Namespace(types.ModuleType):
    def __setattr__(self, name, value):
        # Importing a submodule binds it on the package under its own name.
        # Where that name is public (``width``), the public object wins.
        if name in _EXPORTS and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Namespace
