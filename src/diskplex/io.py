"""Reading and writing complexes as JSON.

Schema: {"name": str, "facets": [[v, ...], ...]} with vertices ints or
strings; a vertex may also be a list of vertices, read back as a tuple,
so namespaced join output round-trips.  Vertex lists may nest at most
100 deep: the library walks vertices recursively, and the bound keeps
every later walk far from Python's recursion limit.  Serialization is
canonical and byte-stable: vertices sorted within each facet, facets
sorted lexicographically, fixed separators, sorted keys, trailing
newline.
"""

from __future__ import annotations

import json
from typing import Any

from .simplicial import SimplicialComplex, from_facets


_MAX_NESTING = 100


def _parse_vertex(v: Any, where: str, depth: int = 0):
    if isinstance(v, bool) or not isinstance(v, (int, str, list)):
        raise ValueError(f"{where} has vertex {v!r}; vertices are ints, strings or lists")
    if isinstance(v, list):
        if depth == _MAX_NESTING:
            raise ValueError(f"{where} nests a vertex more than {_MAX_NESTING} lists deep")
        return tuple(_parse_vertex(part, where, depth + 1) for part in v)
    return v


def complex_from_json_dict(data: Any, source: str = "input") -> SimplicialComplex:
    if not isinstance(data, dict):
        raise ValueError(f"{source}: expected a JSON object with a 'facets' field")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise ValueError(f"{source}: 'name' must be a string")
    facets = data.get("facets")
    if not isinstance(facets, list):
        raise ValueError(f"{source}: 'facets' must be a list of vertex lists")
    cleaned = []
    for i, facet in enumerate(facets):
        if not isinstance(facet, list) or not facet:
            raise ValueError(f"{source}: facets[{i}] must be a nonempty list")
        cleaned.append([_parse_vertex(v, f"{source}: facets[{i}]") for v in facet])
    try:
        return from_facets(cleaned, name=name)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def read_json(path) -> Any:
    """One JSON document from a file; malformed JSON raises ValueError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read") from None


def parse_complex(path) -> SimplicialComplex:
    return complex_from_json_dict(read_json(path), source=str(path))


def _vertex_to_json(v):
    if isinstance(v, tuple):
        return [_vertex_to_json(part) for part in v]
    return v


def complex_to_json_dict(k: SimplicialComplex) -> dict:
    return {"name": k.name, "facets": [[_vertex_to_json(v) for v in f] for f in k.facet_list()]}


def canonical_json(k: SimplicialComplex) -> str:
    return json.dumps(complex_to_json_dict(k), sort_keys=True, separators=(", ", ": ")) + "\n"


def write_complex(k: SimplicialComplex, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(k))
