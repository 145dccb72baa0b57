"""Brute-force verification of the index dichotomy for full subcomplexes.

Given a full subcomplex X of Y with index n (ZERO counts as n = 0),
exactly one of two things must be checkable: either the index of Y is at
most n, or some simplex tau of Y spanned by vertices outside X has an
adjacency subcomplex V_tau (vertices of X adjacent in Y to all of tau)
of index at most n - dim(tau).  ACYCLIC complexes carry no index and
never satisfy an upper bound, so an acyclic Y forces the tau search and
an acyclic X is rejected outright.

The search is exhaustive and deterministic: candidate simplices are
enumerated by increasing dimension, lexicographically within each
dimension, and the first witness wins.  A FAILURE verdict (expected
never, at small scale) archives the homology profiles it examined.
"""

from __future__ import annotations

from typing import Iterator

from . import _Value
# homology_index is unused here but stays importable from this module:
# bench/tracing.py rebinds dichotomy.homology_index.
from .homology import (  # noqa: F401
    HomologyIndex,
    HomologyProfile,
    homology_index,
    index_of_profile,
    reduced_homology,
)
from .simplicial import (
    SimplicialComplex,
    adjacency_subcomplex,
    full_subcomplex,
    is_full_subcomplex,
)

Y_SMALL, TAU_FOUND, FAILURE = "Y_SMALL", "TAU_FOUND", "FAILURE"


class DichotomyWitness(_Value):
    _fields = ("verdict", "index_x", "index_y", "tau", "index_vtau", "failure_archive")

    def __init__(self, verdict: str, index_x: HomologyIndex, index_y: HomologyIndex,
                 tau: tuple | None = None, index_vtau: HomologyIndex | None = None,
                 failure_archive: tuple = ()):
        self.__dict__.update(verdict=verdict, index_x=index_x, index_y=index_y, tau=tau,
                             index_vtau=index_vtau, failure_archive=tuple(failure_archive))

    @property
    def dim_tau(self) -> int | None:
        return None if self.tau is None else len(self.tau) - 1

    def render_lines(self) -> list[str]:
        out = [
            f"index(X) = {self.index_x}",
            f"index(Y) = {self.index_y}",
        ]
        if self.verdict == Y_SMALL:
            out.append("verdict: Y_SMALL (index of Y within the bound)")
        elif self.verdict == TAU_FOUND:
            out.append(
                f"verdict: TAU_FOUND tau={self.tau!r} dim={self.dim_tau} "
                f"index(V_tau)={self.index_vtau}"
            )
        else:
            out.append("verdict: FAILURE (no witness found)")
            for tau, profile in self.failure_archive:
                out.append(f"  archived tau={tau!r}: {'; '.join(profile.render_lines())}")
        return out

    def to_json(self):
        out = {
            "verdict": self.verdict,
            "index_x": str(self.index_x),
            "index_y": str(self.index_y),
            "tau": None if self.tau is None else list(self.tau),
            "dim_tau": self.dim_tau,
            "index_vtau": None if self.index_vtau is None else str(self.index_vtau),
        }
        if self.verdict == FAILURE:
            out["failure_archive"] = [
                {"tau": repr(tau), "profile": profile.to_json()}
                for tau, profile in self.failure_archive
            ]
        return out


def _outside_simplices(x: SimplicialComplex, y: SimplicialComplex) -> Iterator[tuple]:
    """Simplices of Y spanned entirely by vertices outside X, ordered by
    dimension then lexicographically.

    Each dimension is listed only when the search reaches it, so a search
    that stops at a vertex never lists the edges; the face budget is
    checked before the first simplex all the same.
    """
    inside = set(x.vertices())
    outside = full_subcomplex(y, [v for v in y.vertices() if v not in inside])
    for group in outside._face_groups():
        yield from group


def check_dichotomy(x: SimplicialComplex, y: SimplicialComplex) -> DichotomyWitness:
    """Decide the dichotomy for a full subcomplex pair, exhaustively."""
    if not is_full_subcomplex(x, y):
        raise ValueError("x is not a full subcomplex of y")
    profile_x = reduced_homology(x)
    index_x = index_of_profile(profile_x)
    if index_x.is_acyclic:
        raise ValueError("x is acyclic: it carries no index, the dichotomy does not apply")
    n = index_x.value
    profile_y = reduced_homology(y)
    index_y = index_of_profile(profile_y)
    if index_y.at_most(n):
        return DichotomyWitness(verdict=Y_SMALL, index_x=index_x, index_y=index_y)

    profiles: dict[SimplicialComplex, HomologyProfile] = {x: profile_x}
    archive = [(None, profile_x), (None, profile_y)]
    for tau in _outside_simplices(x, y):
        vtau = adjacency_subcomplex(x, y, tau)
        profile = profiles.get(vtau)
        if profile is None:
            profile = profiles[vtau] = reduced_homology(vtau)
        index_vtau = index_of_profile(profile)
        if index_vtau.at_most(n - (len(tau) - 1)):
            return DichotomyWitness(
                verdict=TAU_FOUND,
                index_x=index_x,
                index_y=index_y,
                tau=tau,
                index_vtau=index_vtau,
            )
        archive.append((tau, profile))

    return DichotomyWitness(
        verdict=FAILURE,
        index_x=index_x,
        index_y=index_y,
        failure_archive=archive,
    )
