"""End-to-end command-line checks over the built-in corpus."""

import hashlib
import json
import subprocess
import sys
import time

from conftest import THREE_ON_A_WALL


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "torell.cli", *args],
        text=True,
        capture_output=True,
        check=False,
    )


def test_validate_json_payload():
    proc = run_cli("validate", "p2", "affine2")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["command"] == "validate"
    results = {r["fan"]: r for r in payload["result"]}
    assert results["p2"]["proper"] is True
    assert results["affine2"]["proper"] is False


def test_compare_identity_pair_is_isomorphic_surface():
    proc = run_cli("compare", "p2", "p2")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    verdict = payload["result"]["verdict"]
    assert verdict["outcome"] == "ISOMORPHIC"
    assert verdict["rule"] == "surface-ray-line-sufficiency"


def test_compare_expectations_drive_exit_codes():
    assert run_cli("compare", "flop3_a", "flop3_b", "--expect", "noniso").returncode == 0
    assert run_cli("compare", "flop3_a", "flop3_b", "--expect", "iso").returncode == 1
    assert run_cli("compare", "ray_reversal_a", "ray_reversal_b",
                   "--expect", "iso").returncode == 0
    assert run_cli("compare", "ray_reversal_a", "ray_reversal_b",
                   "--expect", "noniso").returncode == 1


def test_reports_are_byte_identical_across_runs():
    first = run_cli("compare", "flop3_a", "flop3_b")
    second = run_cli("compare", "flop3_a", "flop3_b")
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_gkm_dot_output():
    proc = run_cli("gkm", "p2", "--format", "dot")
    assert proc.returncode == 0
    assert proc.stdout.startswith("graph moment_graph {")
    assert proc.stdout.count(" -- ") == 3


def test_cech_counts():
    proc = run_cli("cech", "p1")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["result"]["cover_size"] == 3
    assert payload["result"]["counts_per_grade"] == {"0": 3, "1": 2}

    proc = run_cli("cech", "p2")
    payload = json.loads(proc.stdout)
    assert payload["result"]["cover_size"] == 7
    assert payload["result"]["support_size_histogram"]["3"] == 1


def test_flop_listing_and_green_apply():
    from torell.fan_io import corpus_bytes

    listing = run_cli("flop", "mu2-kernel", "--list")
    assert listing.returncode == 0
    flips = json.loads(listing.stdout)["result"]["flips"]
    assert len(flips) == 3
    assert any("green" in f["aliases"] for f in flips)

    proc = run_cli("flop", "mu2-kernel", "--apply", "green")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    result = payload["result"]
    assert result["comparison"]["outcome"] == "NOT_ISOMORPHIC"
    assert len(result["certificate"]["moves"]) == 1
    # the emitted fan is the corpus partner fan
    partner = json.loads(corpus_bytes("flop3_b"))
    assert result["fan"]["rays"] == partner["rays"]
    assert sorted(result["fan"]["cones"]) == sorted(partner["cones"])


def test_corpus_directory_overrides(tmp_path):
    import os

    from torell.fan_io import corpus_bytes

    (tmp_path / "local.fan.json").write_bytes(corpus_bytes("p2"))
    by_flag = run_cli("validate", "local", "--corpus", str(tmp_path))
    assert by_flag.returncode == 0
    assert json.loads(by_flag.stdout)["result"][0]["proper"] is True

    env = dict(os.environ, TORELL_CORPUS=str(tmp_path))
    by_env = subprocess.run(
        [sys.executable, "-m", "torell.cli", "validate", "local"],
        text=True, capture_output=True, env=env, check=False)
    assert by_env.returncode == 0
    assert json.loads(by_env.stdout)["result"][0]["proper"] is True
    # built-in names are hidden while the override is active
    assert subprocess.run(
        [sys.executable, "-m", "torell.cli", "validate", "p2"],
        text=True, capture_output=True, env=env, check=False).returncode == 2


def test_mckay_example_default():
    proc = run_cli("mckay-example")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    simplex = payload["result"]["simplex"]
    assert len(simplex["points"]) == 6
    assert payload["result"]["triangulation_count"] == 4


def test_mckay_example_antidiagonal():
    proc = run_cli("mckay-example", "--generators", "1/4,3/4")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["result"]["simplex"]["normalized_volume"] == 4
    assert payload["result"]["triangulation_count"] == 1


def test_mckay_example_inputs_name_and_digest_each_group():
    # The digest is taken over the group as text: its rank, then each
    # generator's weights written as fractions.
    groups = {("mckay-example",): ("built-in", "rank 3\n1/2,1/2,0\n1/2,0,1/2\n"),
              ("mckay-example", "--rank", "2"): ("rank 2", "rank 2\n"),
              ("mckay-example", "--rank", "5"): ("rank 5", "rank 5\n"),
              ("mckay-example", "--generators", "2/4,-1/2"): ("2/4,-1/2", "rank 2\n1/2,-1/2\n")}
    for argv, (name, text) in groups.items():
        (entry,) = json.loads(run_cli(*argv).stdout)["inputs"]
        assert entry == {"name": name, "sha256": hashlib.sha256(text.encode()).hexdigest()}, argv


def test_input_errors_exit_two():
    assert run_cli("validate", "no-such-corpus-fan").returncode == 2
    assert run_cli("validate", "/nonexistent/path.fan.json").returncode == 2
    assert run_cli("flop", "mu2-kernel", "--apply", "purple").returncode == 2


def test_flop_list_and_apply_together_is_a_usage_error():
    proc = run_cli("flop", "mu2-kernel", "--list", "--apply", "green")
    assert proc.returncode == 2
    assert "not allowed with argument --list" in proc.stderr
    assert not proc.stdout


def test_text_format_is_human_readable():
    proc = run_cli("invariant", "p2", "--format", "text")
    assert proc.returncode == 0
    assert "rank=3" in proc.stdout


def test_invariant_ladder_payload():
    proc = run_cli("invariant", "p1", "--ladder")
    assert proc.returncode == 0
    ladder = json.loads(proc.stdout)["result"]["ladder"]["terms"]
    assert [len(term) for term in ladder] == [0, 2, 1]


def test_ray_list_file_input(tmp_path):
    path = tmp_path / "surface.txt"
    path.write_text("(1,0) (0,1) (-1,-1)\n")
    proc = run_cli("validate", str(path))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"][0]["proper"] is True


def test_lower_dimensional_cone_of_index_two_is_not_smooth(tmp_path):
    # The 2-cone on (1,0,0) and (1,2,0) spans an index-2 sublattice.
    path = tmp_path / "index_two.fan.json"
    path.write_text(json.dumps({"schema_version": "1", "ambient_rank": 3,
                                "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 2, 0]],
                                "cones": [[0, 1, 2], [0, 3]]}))
    proc = run_cli("validate", str(path))
    assert proc.returncode == 0
    (result,) = json.loads(proc.stdout)["result"]
    assert (result["smooth"], result["good"], result["proper"]) == (False, False, False)


def assert_input_error(proc, *needles):
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    (line,) = [ln for ln in proc.stderr.splitlines() if ln.startswith("error:")]
    for needle in needles:
        assert needle in line


def test_rank_three_cone_inside_another_exits_two(tmp_path):
    path = tmp_path / "overlap.fan.json"
    path.write_text(json.dumps({"schema_version": "1", "ambient_rank": 3,
                                "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
                                "cones": [[0, 1, 2], [0, 1, 3]]}))
    assert_input_error(run_cli("invariant", str(path)), str(path), "(0, 1, 3)", "wall (0, 1)")


def test_three_cones_on_a_wall_exit_two(tmp_path):
    n, rays, cones = THREE_ON_A_WALL
    path = tmp_path / "three.fan.json"
    path.write_text(json.dumps({"schema_version": "1", "ambient_rank": n,
                                "rays": [list(r) for r in rays],
                                "cones": [list(c) for c in cones]}))
    for command in ("validate", "invariant", "gkm", "cech"):
        assert_input_error(run_cli(command, str(path)), str(path), "(0, 1, 4)", "wall (0, 1)")


def test_options_a_command_does_not_read_exit_two():
    for argv in (["flop", "mu2-kernel", "--list", "--corpus", "/nonexistent"],
                 ["mckay-example", "--corpus", "/nonexistent"],
                 ["validate", "p2", "--format", "dot"],
                 ["cech", "p1", "--format", "dot"]):
        proc = run_cli(*argv)
        assert proc.returncode == 2, argv
        assert "Traceback" not in proc.stderr and not proc.stdout


def test_errors_after_parsing_name_the_operand(tmp_path):
    path = tmp_path / "notgood.fan.json"
    path.write_text(json.dumps({"schema_version": "1", "ambient_rank": 2,
                                "rays": [[1, 0], [1, 2]], "cones": [[0, 1]]}))
    for command in ("invariant", "gkm", "cech"):
        assert_input_error(run_cli(command, str(path)), f"error: {path}: ", "good")
    assert_input_error(run_cli("compare", "p2", str(path)), f"error: {path}: ", "good")
    assert_input_error(run_cli("compare", "p2", "affine3"),
                       "error: p2 vs affine3: ambient ranks differ: 2 vs 3")


def test_directory_operand_exits_two(tmp_path):
    assert_input_error(run_cli("validate", str(tmp_path)), str(tmp_path))


def test_generator_with_zero_denominator_exits_two():
    assert_input_error(run_cli("mckay-example", "--generators", "1/0,1"), "'1/0'")


def test_non_numeric_generator_exits_two():
    assert_input_error(run_cli("mckay-example", "--generators", "a,b"), "'a'")


def test_half_plane_ray_list_exits_two(tmp_path):
    path = tmp_path / "half.txt"
    path.write_text("(1,0) (1,1) (0,1)\n")
    assert_input_error(run_cli("validate", str(path)), str(path), "(0, 1)", "(1, 0)")


def test_boolean_coordinates_exit_two(tmp_path):
    path = tmp_path / "bools.fan.json"
    path.write_text(json.dumps({"schema_version": "1", "ambient_rank": 2,
                                "rays": [[True, False], [False, True], [-1, -1]],
                                "cones": [[0, 1], [1, 2], [0, 2]]}))
    assert_input_error(run_cli("validate", str(path)), str(path), "rays[0]")


def test_metadata_of_the_wrong_type_exits_two(tmp_path):
    p2 = {"schema_version": "1", "ambient_rank": 2,
          "rays": [[1, 0], [0, 1], [-1, -1]], "cones": [[0, 1], [1, 2], [0, 2]]}
    for k, (metadata, field) in enumerate((([1], "metadata"), ("x", "metadata"),
                                           ({"name": 5}, "metadata.name"),
                                           ({"source": ["a"]}, "metadata.source"))):
        path = tmp_path / f"meta{k}.fan.json"
        path.write_text(json.dumps(dict(p2, metadata=metadata)))
        assert_input_error(run_cli("validate", str(path)), str(path), field)


def test_deeply_nested_json_exits_two(tmp_path):
    path = tmp_path / "deep.fan.json"
    path.write_text('{"a":' * 100_000)
    assert_input_error(run_cli("validate", str(path)), str(path), "nested too deeply")


def test_integer_too_long_to_read_exits_two(tmp_path):
    path = tmp_path / "long.fan.json"
    path.write_text('{"schema_version": "1", "ambient_rank": 2, "rays": [[' + "9" * 5000
                    + ', 1], [0, 1]], "cones": [[0, 1]]}')
    assert_input_error(run_cli("validate", str(path)), str(path), "digits")


def affine_space_document(n):
    return {"schema_version": "1", "ambient_rank": n,
            "rays": [[int(i == j) for j in range(n)] for i in range(n)],
            "cones": [list(range(n))]}


def test_face_closure_over_the_limit_exits_two(tmp_path):
    # Affine 17-space lists one cone with 2^17 faces.
    path = tmp_path / "affine17.fan.json"
    path.write_text(json.dumps(affine_space_document(17)))
    assert_input_error(run_cli("validate", str(path)), str(path), "65536")


def test_cech_poset_over_the_limit_exits_two(tmp_path):
    # (P^1)^7: 3^7 cones, whose poset would list 5^7 elements.
    n = 7
    rays = [[s * int(i == j) for j in range(n)] for i in range(n) for s in (1, -1)]
    cones = [[2 * i + (k >> i & 1) for i in range(n)] for k in range(2 ** n)]
    path = tmp_path / "p1-7.fan.json"
    path.write_text(json.dumps({"schema_version": "1", "ambient_rank": n,
                                "rays": rays, "cones": cones}))
    assert run_cli("validate", str(path)).returncode == 0
    assert_input_error(run_cli("cech", str(path)), str(path), "78125 elements")


def test_cech_report_matches_separate_cover_and_witness():
    from torell.cech import cech_poset, cohomology_witness, cover
    from torell.fan_io import cech_json, load_corpus_fan

    for name in ("p1", "p2", "p1xp1", "flop3_a"):
        fan = load_corpus_fan(name)
        result = json.loads(run_cli("cech", name).stdout)["result"]
        assert result["cover_size"] == len(cover(fan))
        expected = json.loads(json.dumps(cech_json(cech_poset(fan), cohomology_witness(fan))))
        assert {k: result[k] for k in expected} == expected


def mu2_document(**changes):
    from torell.fan_io import triangulation_json
    from torell.triang import mu2_kernel_triangulations

    doc = triangulation_json(mu2_kernel_triangulations()[0])
    for key, change in changes.items():
        doc[key] = change(doc[key])
    return doc


def flop_on(tmp_path, doc):
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(doc))
    return run_cli("flop", str(path), "--list")


def test_triangulation_errors_name_the_operand(tmp_path):
    # Points of the quotient triangle in sorted order: cell (0, 2, 5) is
    # the whole triangle, of normalized volume 4.
    doc = mu2_document(cells=lambda _: [[0, 2, 5]])
    assert_input_error(flop_on(tmp_path, doc), f"error: {tmp_path / 'tri.json'}: cell (0, 2, 5)")


def test_flip_errors_name_the_operand(tmp_path):
    # Flips are defined on triangles: a 3-simplex and a segment are refused.
    tetrahedron = {"schema_version": "1",
                   "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
                   "points": [[0, 0, 0], [0, 0, 1], [0, 1, 0], [1, 0, 0]],
                   "cells": [[0, 1, 2, 3]]}
    segment = {"schema_version": "1", "vertices": [[0], [2]],
               "points": [[0], [1], [2]], "cells": [[0, 1], [1, 2]]}
    for doc in (tetrahedron, segment):
        for extra in (["--list"], ["--apply", "0"]):
            path = tmp_path / "tri.json"
            path.write_text(json.dumps(doc))
            assert_input_error(run_cli("flop", str(path), *extra),
                               f"error: {path}: flips are implemented for two-dimensional")


def test_triangulation_cells_not_a_list_exit_two(tmp_path):
    assert_input_error(flop_on(tmp_path, mu2_document(cells=lambda _: 5)), "cells")


def test_triangulation_boolean_point_index_exits_two(tmp_path):
    doc = mu2_document(cells=lambda cells: [[0, True, 2]] + cells[1:])
    assert_input_error(flop_on(tmp_path, doc), "cells[0]")


def test_triangulation_boolean_coordinate_exits_two(tmp_path):
    doc = mu2_document(vertices=lambda vs: [[False, 0]] + vs[1:])
    assert_input_error(flop_on(tmp_path, doc), "vertices[0]")


def test_triangulation_string_coordinate_exits_two(tmp_path):
    doc = mu2_document(vertices=lambda vs: [["0", "0"]] + vs[1:])
    assert_input_error(flop_on(tmp_path, doc), "vertices[0]")


def test_triangulation_that_is_not_utf8_exits_two(tmp_path):
    path = tmp_path / "tri.json"
    path.write_bytes(b"\xff\xfe{}")
    assert_input_error(run_cli("flop", str(path), "--list"), "UTF-8")


def test_huge_rank_is_refused_at_once():
    assert_input_error(run_cli("mckay-example", "--rank", "100000"), "rank-100000")


def test_huge_ambient_rank_is_refused_before_any_transform(tmp_path):
    # Kernels in Z^n build n x n Hermite transforms, so the rank is bounded
    # first, with or without rays.
    path = tmp_path / "rank.fan.json"
    for n, rays, cones in ((256, [], []), (257, [], []), (257, [[1] + [0] * 256], [[0]]),
                           (20000, [], [])):
        path.write_text(json.dumps({"schema_version": "1", "ambient_rank": n,
                                    "rays": rays, "cones": cones}))
        proc = run_cli("validate", str(path))
        if n == 256:
            assert proc.returncode == 0 and proc.stderr == ""
        else:
            assert_input_error(proc, str(path), f"ambient rank {n} is over the limit of 256")


def test_huge_group_order_is_refused_before_enumeration():
    assert_input_error(run_cli("mckay-example", "--generators", "1/100000,99999/100000"),
                       "100001 lattice points")


def test_weights_too_large_to_read_are_refused_at_once():
    # 1e4400 would overflow the digest's digit limit, and Fraction takes
    # seconds to write out 1e10000000: both are refused before that.
    for weight in ("1e4400", "1e10000000", "1e-101", "1" * 101):
        start = time.perf_counter()
        proc = run_cli("mckay-example", "--generators", f"{weight},0")
        assert time.perf_counter() - start < 5
        assert_input_error(proc, "error: --generators: weight ", repr(weight[:24]))


def test_report_integers_over_the_digit_limit_exit_two(tmp_path):
    # A smooth one-cone fan whose wall normals have about 5,000 digits.
    big, other = int("7" * 2500), int("3" * 2500)
    path = tmp_path / "big.fan.json"
    path.write_text(json.dumps({"schema_version": "1", "ambient_rank": 3,
                                "rays": [[1, 0, 0], [big, 1, 0], [5, other, 1]],
                                "cones": [[0, 1, 2]]}))
    for fmt in ("json", "dot"):
        assert_input_error(run_cli("gkm", str(path), "--format", fmt),
                           f"error: {path}: the report holds an integer of more than ")
    for argv in (("gkm", "--format", "text"), ("validate",), ("invariant",)):
        proc = run_cli(argv[0], str(path), *argv[1:])
        assert proc.returncode == 0 and proc.stderr == ""


def test_ladder_on_more_than_sixteen_top_cones_is_refused(tmp_path):
    # Seventeen blow-ups of P^2 along the first wall: 20 rays, 20 top cones.
    rays = [(1, 0), (0, 1), (-1, -1)] + [(k, 1) for k in range(1, 18)]
    path = tmp_path / "surface.txt"
    path.write_text(" ".join(f"({x},{y})" for x, y in rays))
    assert_input_error(run_cli("invariant", str(path), "--ladder"), "20 top cones")


# Each subcommand loads the layers it calls and no others: the CLI core is
# fan parsing and report output, the rest is imported by the handler.
CORE = {"torell", "torell.cli", "torell.errors", "torell.fan", "torell.fan_io",
        "torell.lattice"}
LAYERS_LOADED = {
    ("validate", "p2"): set(),
    ("invariant", "p2"): {"torell.ellinv"},
    ("compare", "p2", "p1xp1"): {"torell.ellinv"},
    ("gkm", "p2"): {"torell.gkm"},
    ("cech", "p1"): {"torell.cech"},
    ("flop", "mu2-kernel", "--list"): {"torell.triang"},
    ("flop", "mu2-kernel", "--apply", "green"): {"torell.ellinv", "torell.triang"},
    ("mckay-example",): {"torell.triang"},
    ("--version",): set(),
    ("validate", "no-such-corpus-fan"): set(),
}

RUN_MAIN = """
import contextlib, io, sys
import torell.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        torell.cli.main(sys.argv[1:])
    except SystemExit:
        pass
"""
LOADED_BY_MAIN = RUN_MAIN + """
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "torell")))
"""


def torell_modules_after(code, *args):
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          text=True, capture_output=True, check=True)
    return set(proc.stdout.split())


def test_each_command_loads_only_its_layers():
    for argv, layers in LAYERS_LOADED.items():
        assert torell_modules_after(LOADED_BY_MAIN, *argv) == CORE | layers, argv


def test_importing_the_package_loads_no_submodule():
    code = "import sys, torell\nprint(*[m for m in sys.modules if m.split('.')[0] == 'torell'])"
    assert torell_modules_after(code) == {"torell"}


def test_commands_on_fans_load_no_rational_arithmetic():
    # Plane order and every inverse are integer-only; only group weights
    # (mckay-example) are read as fractions.
    code = RUN_MAIN + """
print(*[m for m in ("fractions", "decimal") if m in sys.modules])
"""
    for argv in (("validate", "p2"), ("invariant", "p2"), ("compare", "p2", "p1xp1"),
                 ("gkm", "p2"), ("cech", "p1")):
        assert torell_modules_after(code, *argv) == set(), argv
