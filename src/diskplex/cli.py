"""Command-line front end.

Subcommands mirror the library: homology and index of a complex file,
join and the join-formula check, configuration additivity, the dichotomy
verifier, width surgery demos, the piece catalog, cube constructions and
duals, and the full verification suite.  ``--json`` switches any command
to a stable machine-readable schema.  Verification commands exit nonzero
when their check fails.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

# Each handler imports the modules it runs inside its body, so a call
# loads only those, and names are looked up on their modules at call time.


def _emit(args, payload: dict, lines: list[str]) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _cmd_homology(args) -> int:
    from .homology import reduced_homology
    from .io import parse_complex

    k = parse_complex(args.complex)
    profile = reduced_homology(k)
    _emit(args, {"name": k.name, "homology": profile.to_json()},
          [f"complex: {k.name or args.complex}"] + profile.render_lines())
    return 0


def _cmd_index(args) -> int:
    from .homology import homology_index
    from .io import parse_complex

    k = parse_complex(args.complex)
    ind = homology_index(k)
    _emit(args, {"name": k.name, "index": str(ind)}, [str(ind)])
    return 0


def _cmd_join(args) -> int:
    from .io import canonical_json, complex_to_json_dict, parse_complex, write_complex
    from .simplicial import join

    a = parse_complex(args.complex_a)
    b = parse_complex(args.complex_b)
    joined = join(a, b, relabel_on_collision=True)
    if args.output:
        write_complex(joined, args.output)
    _emit(args, complex_to_json_dict(joined), [canonical_json(joined).rstrip("\n")])
    return 0


def _cmd_milnor(args) -> int:
    from .io import parse_complex
    from .join_formula import verify_milnor

    a = parse_complex(args.complex_a)
    b = parse_complex(args.complex_b)
    report = verify_milnor(a, b)
    _emit(args, report.to_json(), report.render_lines())
    return 0 if report.passed else 1


def _cmd_additivity(args) -> int:
    from .additivity import check_matching, euler_characteristic, load_config, verify_index_sum

    config = load_config(args.config)
    matching = check_matching(config)
    lines = matching.render_lines()
    payload = {"matching": matching.to_json()}
    code = 0 if matching.passed else 1
    if matching.passed:
        chi = euler_characteristic(config)
        report = verify_index_sum(config)
        lines += [f"euler characteristic: {chi}"] + report.render_lines()
        payload["euler_characteristic"] = chi
        payload["index_sum"] = report.to_json()
        code = 0 if report.passed else 1
    _emit(args, payload, lines)
    return code


def _cmd_dichotomy(args) -> int:
    from .dichotomy import check_dichotomy
    from .io import parse_complex

    x = parse_complex(args.complex_x)
    y = parse_complex(args.complex_y)
    witness = check_dichotomy(x, y)
    _emit(args, witness.to_json(), witness.render_lines())
    return 0 if witness.verdict != "FAILURE" else 1


def _cmd_width(args) -> int:
    import random

    from .width import apply_surgery, random_move, random_surface, verify_width_decrease, width

    if args.steps < 0:
        raise ValueError(f"steps must be nonnegative, got {args.steps}")
    rng = random.Random(args.seed)
    surface = random_surface(rng)
    lines = [f"seed {args.seed}: random surgery cascade"]
    steps = []
    lines.append(f"start width {width(surface)}")
    for _ in range(args.steps):
        move = random_move(rng, surface)
        if move is None:
            lines.append("no moves remain")
            break
        verdict = verify_width_decrease(surface, move)
        surface = apply_surgery(surface, move)
        steps.append(
            {
                "move": move.describe(),
                "before": str(verdict.before),
                "after": str(verdict.after),
                "decreased": verdict.passed,
            }
        )
        lines.append(f"{move.describe():50s} -> {verdict.after}")
        if not verdict.passed:
            lines.append("WIDTH DID NOT DECREASE")
    ok = all(s["decreased"] for s in steps)
    _emit(args, {"seed": args.seed, "steps": steps, "all_decreasing": ok}, lines)
    return 0 if ok else 1


def _cmd_catalog(args) -> int:
    from .pieces import catalog

    entries = catalog()
    payload = {
        "pieces": [
            {
                "kind": p.kind,
                "weight": p.weight,
                "edge_weights": list(p.edge_weights),
                "euler": p.euler,
                "index": str(p.declared_index),
                "model_facets": [list(f) for f in p.model_complex.facet_list()],
            }
            for p in entries
        ]
    }
    lines = [f"{len(entries)} pieces"]
    for p in entries:
        lines.append(
            f"{p.kind:15s} weight {p.weight:2d}  euler {p.euler:2d}  index {p.declared_index}"
        )
    _emit(args, payload, lines)
    return 0


def _cmd_cube(args) -> int:
    from .cubes import cube_from_cone, subdivide_cube

    if args.cone is not None:
        cube = cube_from_cone(args.cone)
        labels = {str(k): ("z" if v == "z" else list(v)) for k, v in sorted(cube.labels.items())}
        payload = {
            "dimension": cube.dim,
            "counts_by_dim": list(cube.counts_by_dim()),
            "corner_labels": labels,
        }
        lines = [f"cone over a {args.cone - 1}-simplex as the unit {args.cone}-cube"]
        for corner, label in sorted(cube.labels.items()):
            shown = "apex z" if label == "z" else f"face {label}"
            lines.append(f"corner {corner}: {shown}")
    else:
        # plain decimal counts only: int() would also take "2_0", "+1" and " 3"
        if not re.fullmatch(r"-?[0-9]+(,-?[0-9]+)*", args.subdivide):
            raise ValueError(f"--subdivide takes comma-separated plane counts, got {args.subdivide!r}")
        counts = [int(c) for c in args.subdivide.split(",")]
        grid = subdivide_cube(len(counts), counts)
        payload = {
            "dimension": grid.dim,
            "counts": counts,
            "counts_by_dim": list(grid.counts_by_dim()),
            "top_cells": len(grid.cells_of_dim(grid.dim)),
            "vertices": len(grid.cells_of_dim(0)),
            "euler_characteristic": grid.euler_characteristic(),
        }
        lines = [
            f"unit {grid.dim}-cube cut by {counts} planes",
            f"cells by dimension: {list(grid.counts_by_dim())}",
            f"top cells {payload['top_cells']}, vertices {payload['vertices']}, "
            f"euler {payload['euler_characteristic']}",
        ]
    _emit(args, payload, lines)
    return 0


def _cmd_dual(args) -> int:
    from .cubes import dual_cells
    from .io import parse_complex

    k = parse_complex(args.complex)
    dual = dual_cells(k)
    payload = {
        "name": dual.name,
        "counts_by_dim": list(dual.counts_by_dim()),
        "cells": [
            {"dim": dual.cell_dim[c], "vertices": sorted(repr(v) for v in dual.cell_vertices[c])}
            for c in dual.cells
        ],
    }
    lines = [f"dual of {k.name or args.complex}: cells by dimension {list(dual.counts_by_dim())}"]
    _emit(args, payload, lines)
    return 0


def _cmd_suite(args) -> int:
    from .suite import RunConfig, render_text, report_json_dict, run_suite

    seed = {} if args.seed is None else {"seed": args.seed}  # None: RunConfig's default
    report = run_suite(RunConfig(counts=args.counts, **seed))
    _emit(args, report_json_dict(report), render_text(report).splitlines())
    return report.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diskplex",
        description="Exact combinatorics of disk complexes: homology indices, joins, "
        "piece catalogs, width orders, cube decompositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_json(p):
        p.add_argument("--json", action="store_true", help="emit machine-readable JSON")
        return p

    p = with_json(sub.add_parser("homology", help="reduced integer homology of a complex file"))
    p.add_argument("complex")
    p.set_defaults(fn=_cmd_homology)

    p = with_json(sub.add_parser("index", help="homology index of a complex file"))
    p.add_argument("complex")
    p.set_defaults(fn=_cmd_index)

    p = with_json(sub.add_parser("join", help="join two complex files"))
    p.add_argument("complex_a")
    p.add_argument("complex_b")
    p.add_argument("-o", "--output", help="write the joined complex here")
    p.set_defaults(fn=_cmd_join)

    p = with_json(sub.add_parser("milnor", help="check the join-homology formula on two files"))
    p.add_argument("complex_a")
    p.add_argument("complex_b")
    p.set_defaults(fn=_cmd_milnor)

    p = with_json(sub.add_parser("additivity", help="matching, Euler characteristic and index sum of a configuration"))
    p.add_argument("config")
    p.set_defaults(fn=_cmd_additivity)

    p = with_json(sub.add_parser("dichotomy", help="dichotomy verdict for a full subcomplex pair"))
    p.add_argument("complex_x")
    p.add_argument("complex_y")
    p.set_defaults(fn=_cmd_dichotomy)

    p = with_json(sub.add_parser("width", help="random width-descent surgery cascade"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=25)
    p.set_defaults(fn=_cmd_width)

    p = with_json(sub.add_parser("catalog", help="dump the piece catalog"))
    p.set_defaults(fn=_cmd_catalog)

    p = with_json(sub.add_parser("cube", help="cone-to-cube labeling or grid subdivision"))
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--cone", type=int, help="label the unit n-cube as a cone")
    group.add_argument("--subdivide", help="comma-separated plane counts, one per axis")
    p.set_defaults(fn=_cmd_cube)

    p = with_json(sub.add_parser("dual", help="dual cell structure of a ball complex file"))
    p.add_argument("complex")
    p.set_defaults(fn=_cmd_dual)

    p = with_json(sub.add_parser("suite", help="run the verification suite"))
    p.add_argument("--seed", type=int)
    p.add_argument("--counts", type=int, default=None, help="cases per randomized property")
    p.set_defaults(fn=_cmd_suite)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
