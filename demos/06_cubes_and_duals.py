"""
Cube subdivisions, cone labelings, dual cells
=============================================

Three small cell-complex constructions: axis grids inside a cube, the
identification of an n-cube with the cone over an (n-1)-simplex, and the
dual cell structure on the interior of a ball.
"""

from fractions import Fraction

from diskplex import (
    cube_from_cone,
    dual_cells,
    from_facets,
    subdivide_cube,
    validate_ball,
)


def grid_coordinates(vertex_cell, counts):
    """Where a grid vertex sits in the unit cube: a vertex cell holds one
    degenerate (j, j) interval per axis, and axis i is cut at j / (counts[i] + 1)."""
    return tuple(Fraction(lo, c + 1) for (lo, _), c in zip(vertex_cell, counts))


# Cut the unit square by 1 plane in x and 2 in y: a 2 x 3 grid of cells.
grid = subdivide_cube(2, [1, 2])
print("grid cells by dimension:", list(grid.counts_by_dim()))
print("euler characteristic:", grid.euler_characteristic())
corner = grid.cells_of_dim(0)[0]
print("a corner sits at", grid_coordinates(corner, [1, 2]))

# The n-cube is the cone over an (n-1)-simplex: the origin is the apex,
# and the corner with support S sits at the barycenter of face S.
print()
cube = cube_from_cone(3)
for corner, label in sorted(cube.labels.items()):
    shown = "apex z" if label == "z" else f"barycenter of face {label}"
    print(f"  corner {corner}: {shown}")

# Dual cells: each interior d-cell of an n-ball has a dual (n-d)-cell
# whose vertices are the top cells around it.  Boundary cells get none,
# so the dual complex is a smaller concentric ball.
print()
strip = from_facets([[1, 2, 3], [2, 3, 4], [3, 4, 5]], name="triangle strip")
validate_ball(strip)
dual = dual_cells(strip)
print("strip dual cells by dimension:", list(dual.counts_by_dim()))
for cell in dual.cells:
    dim = dual.cell_dim[cell]
    verts = sorted(v[1] for v in dual.cell_vertices[cell])
    print(f"  dual {dim}-cell over {cell[1]}: vertices {verts}")

print()
solid = subdivide_cube(3, [1, 1, 1])
dual = dual_cells(solid)
print("subdivided 3-cube dual counts:", list(dual.counts_by_dim()))
