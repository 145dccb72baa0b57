"""Re-run the recorded mutants: ``python tests/mutants.py [name ...]``.

Each row of ``MUTANTS`` is one mutant: its name, the file it edits, the
exact text it replaces (its anchor, which occurs once in that file), the
replacement, and the tests it must fail.  For each mutant in turn the
runner copies ``src``, ``tests``, ``bench``, ``demos`` and
``pyproject.toml`` to a temporary directory, makes that one edit there and
runs only the named tests in a pytest subprocess whose ``PYTHONPATH`` is
the copy's ``src``.  A mutant is killed when every named test fails.
Nothing is written inside the repository.  The exit status is 1 when a
mutant survives.

``EQUIVALENT`` records the mutants that no test can kill, each with the
reason that it changes no output; the runner skips them.
``test_mutation_table.py`` checks in tier-1 that each anchor of either
table occurs once and each named test exists, so a change that moves a
mutated line mends its row in the same change.  A change adds the
mutants of its own gates.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    anchor: str
    replacement: str
    tests: tuple[str, ...]  # pytest ids, relative to the repository root


class Equivalent(NamedTuple):
    name: str
    path: str
    anchor: str
    replacement: str
    reason: str


MUTANTS = (
    Mutant("bind a field under the wrong name", "src/diskplex/width.py",
           "self.__dict__.update(euler=euler, weight=weight, _moves=moves)",
           "self.__dict__.update(euler=euler, weigth=weight, _moves=moves)",
           ("tests/test_startup.py::test_records_bind_their_fields_in_one_update",
            "tests/test_values.py::test_value_semantics",
            "tests/test_width.py::test_width_pairs_sorted_non_increasing")),
    Mutant("keep a sequence field as given", "src/diskplex/width.py",
           "self.__dict__.update(pairs=tuple(sorted(pairs, reverse=True)))",
           "self.__dict__.update(pairs=sorted(pairs, reverse=True))",
           ("tests/test_values.py::test_sequence_fields_are_stored_as_tuples",)),
    Mutant("Width keeps the caller's order", "src/diskplex/width.py",
           "self.__dict__.update(pairs=tuple(sorted(pairs, reverse=True)))",
           "self.__dict__.update(pairs=tuple(pairs))",
           ("tests/test_width.py::test_width_pairs_sorted_non_increasing",
            "tests/test_width.py::test_compare_width_lex_and_prefix",
            "tests/test_width.py::test_compare_width_reads_pairs_in_any_order")),
    Mutant("bind the caller's facets in SimplicialComplex.__init__", "src/diskplex/simplicial.py",
           "self.__dict__.update(facets=k.facets, name=name, _cache=k._cache)",
           "self.__dict__.update(facets=facets, name=name, _cache=k._cache)",
           ("tests/test_simplicial.py::test_from_facets_antichain",)),
    Mutant("skip the link test", "src/diskplex/cubes.py",
           "    if profile is not None and n >= 3:\n        _check_links(",
           "    if False:\n        _check_links(",
           ("tests/test_cubes.py::test_link_test_matches_the_set_reference",
            "tests/test_cubes.py::test_ball_checks_on_masks_match_the_face_poset_route",
            "tests/test_io_cli.py::test_cli_error_paths",
            "tests/test_cli_pins.py::test_every_cli_output_matches_its_pin")),
    # An interior vertex's link is closed, so it can be no ball; what can
    # go wrong is testing it as one.
    Mutant("test an interior vertex's link as a ball", "src/diskplex/cubes.py",
           "shape = \"ball\" if boundary >> i & 1 else \"sphere\"",
           "shape = \"ball\"",
           ("tests/test_cubes.py::test_link_test_matches_the_set_reference",)),
    Mutant("recurse one level shallower", "src/diskplex/cubes.py",
           "            if n > 3:\n",
           "            if n > 4:\n",
           ("tests/test_cubes.py::test_link_test_recurses_below_its_first_level",)),
    Mutant("JSON keys in insertion order", "src/diskplex/cli.py",
           "json.dumps(payload, indent=2, sort_keys=True)",
           "json.dumps(payload, indent=2)",
           ("tests/test_cli_pins.py::test_every_cli_output_matches_its_pin",)),
    Mutant("accept an (n-1)-cell in three top cells", "src/diskplex/cubes.py",
           "branching = [r for r, ts in ridges.items() if len(ts) > 2]",
           "branching = [r for r, ts in ridges.items() if len(ts) > 3]",
           ("tests/test_cubes.py::test_a_fin_on_an_interior_edge_is_not_a_pseudomanifold",)),
    Mutant("skip the connectivity test", "src/diskplex/cubes.py",
           "    if len(reached) != count:\n",
           "    if False:\n",
           ("tests/test_cubes.py::test_annulus_plus_disjoint_square_is_not_a_ball",
            "tests/test_cubes.py::test_ball_checks_on_grids_with_top_cells_removed_match_set_references")),
    Mutant("no trimming in the profile constructor", "src/diskplex/homology.py",
           "while groups and groups[-1].is_trivial:",
           "while False:",
           ("tests/test_values.py::test_profile_drops_trailing_trivial_groups",
            "tests/test_cubes.py::test_validate_ball_accepts_and_rejects")),
    Mutant("drop the repeated-vertex check of a face argument", "src/diskplex/simplicial.py",
           "    if len(set(face)) != len(face):\n        raise ValueError(f\"repeated vertex in simplex",
           "    if False:\n        raise ValueError(f\"repeated vertex in simplex",
           ("tests/test_simplicial.py::test_face_arguments_keep_their_messages",)),
    Mutant("drop the bit-count repeat check", "src/diskplex/simplicial.py",
           "        if m.bit_count() != len(face):",
           "        if False:",
           ("tests/test_simplicial.py::test_from_facets_antichain",
            "tests/test_values.py::test_construction_checks_keep_their_messages",
            "tests/test_io_cli.py::test_rejects_malformed_documents")),
    Mutant("refuse no empty face", "src/diskplex/simplicial.py",
           "        if not m:\n",
           "        if False:\n",
           ("tests/test_simplicial.py::test_from_facets_antichain",
            "tests/test_values.py::test_construction_checks_keep_their_messages")),
    Mutant("keep every size untested", "src/diskplex/simplicial.py",
           "] if keep else by_size[n]",
           "] if False else by_size[n]",
           ("tests/test_simplicial.py::test_from_facets_antichain",)),
    Mutant("make lazy facets from the wrong ranks", "src/diskplex/simplicial.py",
           "return frozenset(tuple(verts[i] for i in _ranks(m)) for m in self._masks())",
           "return frozenset(tuple(verts[::-1][i] for i in _ranks(m)) for m in self._masks())",
           ("tests/test_simplicial.py::test_homology_makes_no_facet_tuple_of_a_from_facets_result",
            "tests/test_simplicial.py::test_mask_operations_match_set_references",
            "tests/test_simplicial.py::test_from_facets_antichain")),
    Mutant("skip the re-rank", "src/diskplex/simplicial.py",
           "    if gaps:\n",
           "    if False:\n",
           ("tests/test_simplicial.py::test_homology_makes_no_facet_tuple_of_a_from_facets_result",
            "tests/test_simplicial.py::test_mask_operations_match_set_references",
            "tests/test_simplicial.py::test_full_subcomplex",
            "tests/test_cubes.py::test_link_test_matches_the_set_reference")),
    Mutant("relabel reverses the frame", "src/diskplex/simplicial.py",
           "verts = tuple((prefix, v) for v in k.vertices())",
           "verts = tuple((prefix, v) for v in k.vertices())[::-1]",
           ("tests/test_simplicial.py::test_homology_makes_no_facet_tuple_of_a_from_facets_result",
            "tests/test_simplicial.py::test_join_matches_oracle_product")),
    Mutant("drop the copy-count refusal", "src/diskplex/additivity.py",
           "    if total > _FACE_BUDGET:\n",
           "    if False:\n",
           ("tests/test_additivity.py::test_oversized_configurations_are_refused_before_they_are_built",)),
    Mutant("a second union-find call in load_config", "src/diskplex/additivity.py",
           "    return config_from_json_dict(read_json(path))\n",
           "    config = config_from_json_dict(read_json(path))\n"
           "    _edge_identifications(config.skeleton.gluings)\n"
           "    return config\n",
           ("tests/test_startup.py::test_only_the_skeleton_builds_edge_classes",)),
    Mutant("leave the link's faces in the rows", "src/diskplex/homology.py",
           "                elif face not in link:\n",
           "                else:\n",
           ("tests/test_homology.py::test_relative_complex_leaves_out_the_closed_star",
            "tests/test_homology.py::test_reduced_homology_takes_the_busiest_vertex_as_apex",
            "tests/test_homology.py::test_strong_collapse_keeps_every_profile")),
    Mutant("keep the empty-face row beside an apex", "src/diskplex/homology.py",
           "                elif face not in link:\n",
           "                elif face not in link or not face:\n",
           ("tests/test_homology.py::test_relative_complex_leaves_out_the_closed_star",
            "tests/test_homology.py::test_strong_collapse_keeps_every_profile")),
    Mutant("list the link only while the level has cells", "src/diskplex/homology.py",
           "        if level or size > lowest:\n",
           "        if level:\n",
           ("tests/test_homology.py::test_relative_complex_lists_the_link_past_empty_levels",
            "tests/test_homology.py::test_strong_collapse_keeps_every_profile",
            "tests/test_homology.py::test_relative_complex_leaves_out_the_closed_star",
            "tests/test_homology.py::test_collapse_and_clearing_keep_every_profile")),
    # only the cost changes: every map comes out as before
    Mutant("always list the link", "src/diskplex/homology.py",
           "        if level or size > lowest:\n",
           "        if True:\n",
           ("tests/test_homology.py::test_relative_assembly_stops_listing_the_link_with_the_cells",)),
    Mutant("choose the least busy vertex", "src/diskplex/homology.py",
           "    most = max(counts)\n",
           "    most = min(counts)\n",
           ("tests/test_homology.py::test_reduced_homology_takes_the_busiest_vertex_as_apex",
            "tests/test_homology.py::test_busiest_vertex_matches_the_set_oracle")),
    Mutant("drop the link-vertex tie-break", "src/diskplex/homology.py",
           "key=lambda i: (-counts[i], -near[i], i)",
           "key=lambda i: (-counts[i], i)",
           ("tests/test_homology.py::test_reduced_homology_takes_the_busiest_vertex_as_apex",
            "tests/test_homology.py::test_relative_complex_size_does_not_depend_on_the_labels",
            "tests/test_homology.py::test_busiest_vertex_matches_the_set_oracle")),
    Mutant("tie-break on one facet", "src/diskplex/homology.py",
           "reduce(or_, map(facets.__getitem__, holders[i]))",
           "facets[next(iter(holders[i]))]",
           ("tests/test_homology.py::test_reduced_homology_takes_the_busiest_vertex_as_apex",
            "tests/test_homology.py::test_relative_complex_size_does_not_depend_on_the_labels",
            "tests/test_homology.py::test_busiest_vertex_matches_the_set_oracle")),
    Mutant("over-report domination after one facet", "src/diskplex/homology.py",
           "            if meet == bit:\n                return False\n",
           "            if meet != bit:\n                return True\n",
           ("tests/test_homology.py::test_strong_collapse_keeps_every_profile",)),
    Mutant("under-report domination after one facet", "src/diskplex/homology.py",
           "            if meet == bit:\n                return False\n",
           "            if True:\n                return False\n",
           ("tests/test_homology.py::test_collapse_cores_have_no_dominated_vertex",
            "tests/test_homology.py::test_strong_collapse_keeps_every_profile")),
    Mutant("start the core's worklist one vertex lower", "src/diskplex/homology.py",
           "range(len(holders) - 1, -1, -1)",
           "range(len(holders) - 2, -1, -1)",
           ("tests/test_homology.py::test_collapse_cores_have_no_dominated_vertex",)),
    # ANDing only the facets that miss v accepts a deletion whose star
    # side holds a facet off their common vertex: on a join with a stray
    # facet, H~2 = Z^2 came out Z.
    Mutant("AND only the facets that miss v", "src/diskplex/homology.py",
           "    m = reduce(and_, missing) if missing else 0\n    for n in holders[i]:\n",
           "    m = reduce(and_, missing) if missing else 0\n    for n in ():\n",
           ("tests/test_homology.py::test_peeling_matches_the_whole_maps_and_a_set_oracle",)),
    # Too strict: a suspension point's star facets all lie in facets
    # through the other point, so no suspension peels.
    Mutant("skip the r | m facet lookup", "src/diskplex/homology.py",
           "if r & m != m and r | m not in masks:",
           "if r & m != m:",
           ("tests/test_homology.py::test_suspensions_and_joins_are_peeled_before_assembly",)),
    Mutant("no degree shift", "src/diskplex/homology.py",
           "    return HomologyProfile((TRIVIAL_GROUP,) * shift + groups)\n",
           "    return HomologyProfile(groups)\n",
           ("tests/test_homology.py::test_peeling_matches_the_whole_maps_and_a_set_oracle",
            "tests/test_homology.py::test_reduced_homology_of_large_known_shapes",
            "tests/test_homology.py::test_reduced_homology_frozen_profiles")),
    Mutant("shift a gap out by two", "src/diskplex/simplicial.py",
           "keep = [m & low | m >> 1 & ~low for m in keep]",
           "keep = [m & low | m >> 2 & ~low for m in keep]",
           ("tests/test_simplicial.py::test_homology_makes_no_facet_tuple_of_a_from_facets_result",
            "tests/test_homology.py::test_suspensions_and_joins_are_peeled_before_assembly")),
    Mutant("no refusal of the empty complex's maps", "src/diskplex/homology.py",
           "    if k.is_empty:\n        raise ValueError(\"empty complex has no boundary",
           "    if False:\n        raise ValueError(\"empty complex has no boundary",
           ("tests/test_homology.py::test_empty_complex_has_no_boundary_matrices",)),
    Mutant("refuse S^0", "src/diskplex/simplicial.py",
           "    if n_vertices < 2:\n",
           "    if n_vertices < 3:\n",
           ("tests/test_homology.py::test_reduced_homology_frozen_profiles",)),
    Mutant("build the boundary of one vertex", "src/diskplex/simplicial.py",
           "    if n_vertices < 2:\n",
           "    if n_vertices < 1:\n",
           ("tests/test_homology.py::test_reduced_homology_frozen_profiles",)),
    Mutant("accept face_b = 4", "src/diskplex/additivity.py",
           "0 <= face_b <= 3)",
           "0 <= face_b <= 4)",
           ("tests/test_additivity.py::test_gluing_validation",)),
    Mutant("accept a non-list facets field", "src/diskplex/io.py",
           "    if not isinstance(facets, list):\n",
           "    if False:\n",
           ("tests/test_io_cli.py::test_rejects_malformed_documents",)),
    Mutant("accept a separating compression without its split", "src/diskplex/width.py",
           "        if move.split is None:\n",
           "        if False:\n",
           ("tests/test_width.py::test_apply_surgery_refuses_incomplete_moves",)),
    Mutant("accept a dishonest move with k < 1", "src/diskplex/width.py",
           "        if move.k is None or move.k < 1:\n",
           "        if False:\n",
           ("tests/test_width.py::test_apply_surgery_refuses_incomplete_moves",)),
    Mutant("fall through an unknown move kind", "src/diskplex/width.py",
           "    else:\n        raise ValueError(f\"unknown move kind",
           "    elif False:\n        raise ValueError(f\"unknown move kind",
           ("tests/test_width.py::test_apply_surgery_refuses_incomplete_moves",)),
    Mutant("accept a cube of dimension 0", "src/diskplex/cubes.py",
           "    if n < 1:\n        raise ValueError(\"need dimension at least 1\")",
           "    if False:\n        raise ValueError(\"need dimension at least 1\")",
           ("tests/test_cubes.py::test_grid_rejects_bad_input",)),
    Mutant("test the empty complex as a ball", "src/diskplex/cubes.py",
           "        if ball.is_empty:\n",
           "        if False:\n",
           ("tests/test_cubes.py::test_validate_ball_accepts_and_rejects",)),
    Mutant("count one Euler split too many at birth", "src/diskplex/width.py",
           "(weight + 1) * (1 - euler)",
           "(weight + 1) * (2 - euler)",
           ("tests/test_width.py::test_move_table_and_rng_stream_match_reference",
            "tests/test_width.py::test_move_count_and_decoder_match_enumeration")),
    Mutant("decode a draw one past its component", "src/diskplex/width.py",
           "        if j < comp._moves:\n",
           "        if j <= comp._moves:\n",
           ("tests/test_width.py::test_move_table_and_rng_stream_match_reference",)),
    Mutant("accept non-normal arcs in a piece", "src/diskplex/pieces.py",
           "    if not verdict.passed:\n        raise ValueError(f\"piece {p.kind}: {verdict.problems[0]}\")",
           "    if False:\n        raise ValueError(f\"piece {p.kind}: {verdict.problems[0]}\")",
           ("tests/test_pieces.py::test_tampered_piece_detected",)),
    Mutant("accept a negative edge weight", "src/diskplex/pieces.py",
           "    if any(w < 0 for w in p.edge_weights):\n",
           "    if False:\n",
           ("tests/test_pieces.py::test_tampered_piece_detected",)),
    Mutant("read a crossing count off one corner", "src/diskplex/pieces.py",
           "    return arcs[corners.index(edge[0])] + arcs[corners.index(edge[1])]\n",
           "    return arcs[corners.index(edge[0])]\n",
           ("tests/test_pieces.py::test_catalog_covers_all_kinds_with_frozen_data",
            "tests/test_pieces.py::test_edge_weight_equals_corner_arc_sums")),
    Mutant("a module-level name that only tests read", "src/diskplex/pieces.py",
           "EDGE_INDEX = {e: i for i, e in enumerate(EDGES)}\n",
           "EDGE_INDEX = {e: i for i, e in enumerate(EDGES)}\nPIECE_COUNT = 15\n",
           ("tests/test_startup.py::test_every_module_level_name_has_a_reader_outside_tests",)),
    Mutant("forget the points that gluing merges", "src/diskplex/additivity.py",
           "        chi -= weight  # merged crossing points\n",
           "",
           ("tests/test_additivity.py::test_euler_characteristic_matches_a_cell_count",
            "tests/test_additivity.py::test_two_tet_closed_census",
            "tests/test_additivity.py::test_additivity_command_builds_edge_classes_once")),
    Mutant("count merged arcs against χ", "src/diskplex/additivity.py",
           "        chi += sum(_face_arc_vector(by_tet, g.tet_a, g.face_a))",
           "        chi -= sum(_face_arc_vector(by_tet, g.tet_a, g.face_a))",
           ("tests/test_additivity.py::test_euler_characteristic_matches_a_cell_count",
            "tests/test_additivity.py::test_two_tet_closed_census",
            "tests/test_additivity.py::test_additivity_command_builds_edge_classes_once")),
    Mutant("need every face free", "src/diskplex/corpus.py",
           "        needed = [f for f, arcs in enumerate(piece(kind).face_arcs) if any(arcs.corners)]\n",
           "        needed = [0, 1, 2, 3]\n",
           ("tests/test_additivity.py::test_configuration_corpus_and_catalog_are_pinned",)),
    Mutant("word the empty complex's homology differently", "src/diskplex/homology.py",
           "            return [\"empty complex (reduced H~(-1) = Z)\"]",
           "            return [\"empty complex\"]",
           ("tests/test_io_cli.py::test_cli_homology_and_index_of_the_empty_complex",)),
    Mutant("write the empty complex as not empty in JSON", "src/diskplex/homology.py",
           "            return {\"empty_complex\": True, \"groups\": []}",
           "            return {\"empty_complex\": False, \"groups\": []}",
           ("tests/test_io_cli.py::test_cli_homology_and_index_of_the_empty_complex",)),
    Mutant("leave the identity rule unsaid", "src/diskplex/join_formula.py",
           "            out.append(\"  empty factor: join is the other complex (identity rule)\")\n",
           "            pass\n",
           ("tests/test_io_cli.py::test_cli_milnor_with_an_empty_factor",)),
    Mutant("read a configuration out of a JSON list", "src/diskplex/additivity.py",
           "    if not isinstance(data, dict):\n        raise ValueError(\"configuration file must hold",
           "    if False:\n        raise ValueError(\"configuration file must hold",
           ("tests/test_io_cli.py::test_cli_additivity_refuses_a_json_list",)),
    Mutant("stop the width cascade without saying why", "src/diskplex/cli.py",
           "            lines.append(\"no moves remain\")\n",
           "",
           ("tests/test_io_cli.py::test_cli_width_stops_when_no_moves_remain",)),
    Mutant("answer None for an unknown package attribute", "src/diskplex/__init__.py",
           "    raise AttributeError(f\"module {__name__!r} has no attribute {name!r}\")",
           "    return None",
           ("tests/test_startup.py::test_an_unknown_package_attribute_raises",)),
    Mutant("dir lists only the bound names", "src/diskplex/__init__.py",
           "    return sorted(set(globals()) | set(__all__))",
           "    return sorted(globals())",
           ("tests/test_startup.py::test_package_dir_lists_the_names_not_yet_bound",)),
    Mutant("render the width before as after", "src/diskplex/width.py",
           "            f\"after:  {self.after}\",\n",
           "            f\"after:  {self.before}\",\n",
           ("tests/test_width.py::test_decrease_verdict_renders_its_lines",)),
    Mutant("show five shared join vertices", "src/diskplex/simplicial.py",
           "sorted(overlap, key=vertex_key)[:4]",
           "sorted(overlap, key=vertex_key)[:5]",
           ("tests/test_simplicial.py::test_join_all_is_one_product_matching_a_fold_of_binary_joins",)),
    Mutant("forget passed links", "src/diskplex/cubes.py",
           "        seen.add(key)\n",
           "",
           ("tests/test_cubes.py::test_link_test_tests_each_face_link_once",)),
    # A simplicial cell is a rank mask; its cell order is by dimension, then
    # by ascending ranks, which the mask's value does not follow.
    Mutant("order cells by mask value", "src/diskplex/cubes.py",
           "order = lambda c: (c.bit_count(), _ranks(c))",
           "order = lambda c: (c.bit_count(), c)",
           ("tests/test_cubes.py::test_refusals_name_the_rank_least_cell",
            "tests/test_cubes.py::test_dual_lists_interior_cells_by_dimension_then_ranks")),
    Mutant("start the link at its lowest mask", "src/diskplex/cubes.py",
           "first = min(link, key=_ranks)",
           "first = min(link)",
           ("tests/test_cubes.py::test_a_split_link_counts_from_its_rank_least_facet",)),
    # Two facets at a vertex that share an edge but no ridge leave the
    # complex acyclic: the pinch shows again in the link at the edge's
    # other end, so the verdict holds and only the named vertex changes.
    Mutant("skip the links of vertices in two facets", "src/diskplex/cubes.py",
           "        if len(link) == 1:\n",
           "        if len(link) == 2:\n",
           ("tests/test_cubes.py::test_two_facets_meeting_in_an_edge_are_refused_at_their_vertex",)),
    # Each suite property's failure report, forced by breaking its checker.
    Mutant("drop a failed random pair's line", "src/diskplex/suite.py",
           "            details.append(f\"random pair FAIL: {report.name}\")\n",
           "",
           ("tests/test_io_cli.py::test_cli_suite_reports_each_failure",)),
    Mutant("count no failed additivity check", "src/diskplex/suite.py",
           "        if not report.passed:\n            failures += 1\n    details = (",
           "        if False:\n            failures += 1\n    details = (",
           ("tests/test_io_cli.py::test_cli_suite_reports_each_failure",)),
    Mutant("say nothing of a wrong weight", "src/diskplex/suite.py",
           "            details.append(f\"{kind}: weight {p.weight} != {expected_weight}\")\n",
           "",
           ("tests/test_io_cli.py::test_cli_suite_reports_each_failure",)),
    Mutant("count no move that keeps the width", "src/diskplex/suite.py",
           "        if not verify_width_decrease(surface, move).passed:\n",
           "        if False:\n",
           ("tests/test_io_cli.py::test_cli_suite_reports_each_failure",)),
    Mutant("count no stuck walk", "src/diskplex/suite.py",
           "        if steps >= cap:\n",
           "        if False:\n",
           ("tests/test_io_cli.py::test_cli_suite_reports_each_failure",)),
    Mutant("count no subdivision that changes chi", "src/diskplex/suite.py",
           "            chi_bad += 1\n",
           "            pass\n",
           ("tests/test_io_cli.py::test_cli_suite_reports_each_failure",)),
    Mutant("count no grid of the wrong size", "src/diskplex/suite.py",
           "            grid_bad += 1\n",
           "            pass\n",
           ("tests/test_io_cli.py::test_cli_suite_reports_each_failure",)),
    Mutant("count no dual of the wrong size", "src/diskplex/suite.py",
           "                dual_bad += 1\n",
           "                pass\n",
           ("tests/test_io_cli.py::test_cli_suite_reports_each_failure",)),
    Mutant("say nothing when the width does not drop", "src/diskplex/cli.py",
           "            lines.append(\"WIDTH DID NOT DECREASE\")\n",
           "",
           ("tests/test_io_cli.py::test_cli_width_reports_a_move_that_does_not_lower_width",)),
    Mutant("lift a join operand onto its own ranks", "src/diskplex/simplicial.py",
           "sum(bit[k.vertices()[i]] for i in _ranks(m))",
           "m",
           ("tests/test_simplicial.py::test_join_matches_oracle_product",
            "tests/test_simplicial.py::test_join_all_is_one_product_matching_a_fold_of_binary_joins",
            "tests/test_simplicial.py::test_homology_makes_no_facet_tuple_of_a_from_facets_result",
            "tests/test_join_formula.py::test_random_pairs_agree",
            "tests/test_acceptance.py::test_criterion_2_milnor_formula")),
    Mutant("order subdivision vertices by mask value", "src/diskplex/simplicial.py",
           "for c in chain}, key=_ranks)",
           "for c in chain})",
           ("tests/test_simplicial.py::test_homology_makes_no_facet_tuple_of_a_from_facets_result",)),
    # Same masks over other vertices: (1, 2) and (1, 3) are both {0b11}.
    Mutant("compare complexes by masks alone", "src/diskplex/simplicial.py",
           "return self.vertices(), frozenset(self._masks())",
           "return frozenset(self._masks())",
           ("tests/test_values.py::test_value_semantics",)),
    Mutant("drop the ACYCLIC rule of the index sum", "src/diskplex/join_formula.py",
           "    if any(ind.is_acyclic for ind in indices):\n        return ACYCLIC_INDEX\n",
           "",
           ("tests/test_join_formula.py::test_index_sum_law_cases",
            "tests/test_join_formula.py::test_join_index_is_at_least_the_sum_and_equal_when_the_tensor_is_nonzero")),
    # The dual-count checks count interior cells in closed form, apart
    # from the boundary search that dual_cells runs.
    Mutant("find no boundary cell", "src/diskplex/cubes.py",
           "self.cell_dim[c] == self.dim - 1 and len(par[c]) <= 1]",
           "self.cell_dim[c] == self.dim - 1 and len(par[c]) < 1]",
           ("tests/test_acceptance.py::test_criterion_7_constructions",
            "tests/test_cubes.py::test_boundary_cells_of_square",
            "tests/test_cubes.py::test_dual_cells_dimension_correspondence_on_grids",
            "tests/test_io_cli.py::test_cli_suite_small")),
)

EQUIVALENT = (
    Equivalent("an annotation's | as &", "src/diskplex/cubes.py",
               "cell_vertices: dict | None = None",
               "cell_vertices: dict & None = None",
               "annotations are strings under `from __future__ import annotations`, and nothing evaluates them"),
    Equivalent("another annotation's | as &", "src/diskplex/homology.py",
               "split: set[int] | None = None",
               "split: set[int] & None = None",
               "annotations are strings under `from __future__ import annotations`, and nothing evaluates them"),
    Equivalent("point's default vertex 1", "src/diskplex/simplicial.py",
               "def point(v: Vertex = 0,",
               "def point(v: Vertex = 1,",
               "every call without a vertex reads only the homology, which is a point's for any vertex; "
               "the default name point(0) reaches no report, pin or demo line"),
    Equivalent("simplex_complex's default name one dimension low", "src/diskplex/simplicial.py",
               "name=name or f\"simplex{len(verts) - 1}\"",
               "name=name or f\"simplex{len(verts) - 2}\"",
               "the one library caller names its simplex, and no report, pin or demo line prints a default name"),
    Equivalent("boundary_of_simplex's default name one dimension low", "src/diskplex/simplicial.py",
               "name=name or f\"sphere_dim_{n_vertices - 2}\"",
               "name=name or f\"sphere_dim_{n_vertices - 3}\"",
               "the suite and demo 01 read only the sphere's homology, and no report, pin or demo line "
               "prints a default name"),
)


def _copy_tree(dest: str) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests", "bench", "demos"):
        shutil.copytree(os.path.join(ROOT, part), os.path.join(dest, part), ignore=skip)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def survivors(mutant: Mutant) -> list[str]:
    """The named tests that still pass with the mutant applied."""
    with tempfile.TemporaryDirectory() as work:
        _copy_tree(work)
        path = os.path.join(work, mutant.path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if text.count(mutant.anchor) != 1:
            raise SystemExit(f"{mutant.name}: anchor occurs {text.count(mutant.anchor)} times in {mutant.path}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(mutant.anchor, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=os.path.join(work, "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                               *mutant.tests], cwd=work, env=env, capture_output=True, text=True, timeout=1800)
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return [t for t in mutant.tests
            if not any(f == t or f.startswith(t + "[") or t.startswith(f + "::") for f in failed)]


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    start, alive = time.perf_counter(), 0
    for mutant in chosen:
        t0 = time.perf_counter()
        passed = survivors(mutant)
        alive += bool(passed)
        verdict = f"SURVIVED, passing {', '.join(passed)}" if passed else "killed"
        print(f"{mutant.name}: {verdict} ({time.perf_counter() - t0:.1f} s)", flush=True)
    print(f"{len(chosen) - alive} of {len(chosen)} mutants killed in {time.perf_counter() - start:.1f} s")
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
