"""Fan documents: parsing, emission, round trips, the text reader."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torell.errors import MalformedFan, ParseError, SchemaError
from torell.fan_io import (
    complete_surface_fan,
    corpus_bytes,
    corpus_names,
    emit_fan,
    fan_to_document,
    load_corpus_fan,
    make_report,
    parse_fan,
    parse_fan_document,
    parse_ray_text,
    parse_triangulation,
    triangulation_json,
)
from torell.triang import mu2_kernel_triangulations


class TestParse:
    def test_corpus_golden_file(self, p2):
        fan = load_corpus_fan("p2")
        assert fan == p2
        assert fan.rays == ((1, 0), (0, 1), (-1, -1))

    def test_truncated_json(self):
        with pytest.raises(ParseError) as err:
            parse_fan('{"schema_version": "1", "ambient_rank": 2, "rays": [[1,')
        assert err.value.line is not None

    def test_missing_ray_index(self):
        doc = {"schema_version": "1", "ambient_rank": 2,
               "rays": [[1, 0], [0, 1]], "cones": [[0, 5]]}
        with pytest.raises(SchemaError):
            parse_fan(json.dumps(doc))

    def test_wrong_schema_version(self):
        doc = {"schema_version": "99", "ambient_rank": 1,
               "rays": [[1]], "cones": [[0]]}
        with pytest.raises(SchemaError):
            parse_fan(json.dumps(doc))

    def test_geometry_errors_are_malformed(self):
        doc = {"schema_version": "1", "ambient_rank": 2,
               "rays": [[2, 0], [0, 1]], "cones": [[0, 1]]}
        with pytest.raises(MalformedFan):
            parse_fan(json.dumps(doc))

    def test_missing_fields(self):
        with pytest.raises(SchemaError):
            parse_fan('{"schema_version": "1"}')

    def test_booleans_are_not_integers(self):
        p2 = {"schema_version": "1", "ambient_rank": 2,
              "rays": [[1, 0], [0, 1], [-1, -1]], "cones": [[0, 1], [1, 2], [0, 2]]}
        parse_fan(json.dumps(p2))
        for key, path, value in (("rays", (0, 0), True), ("rays", (1, 1), True),
                                 ("cones", (2, 0), False)):
            doc = json.loads(json.dumps(p2))
            doc[key][path[0]][path[1]] = value
            with pytest.raises(SchemaError, match=rf"{key}\[{path[0]}\]"):
                parse_fan(json.dumps(doc))
        with pytest.raises(SchemaError, match="ambient_rank"):
            parse_fan(json.dumps(dict(p2, ambient_rank=True)))

    def test_metadata_is_an_object_with_string_fields(self):
        p2 = {"schema_version": "1", "ambient_rank": 2,
              "rays": [[1, 0], [0, 1], [-1, -1]], "cones": [[0, 1], [1, 2], [0, 2]]}
        meta = {"name": "p2", "source": "P^2", "note": [1]}
        assert parse_fan_document(json.dumps(dict(p2, metadata=meta)))[1] == meta
        assert parse_fan_document(json.dumps(p2))[1] == {}
        for bad in ([1], "x", None, 3):
            with pytest.raises(SchemaError, match="^metadata must be an object$"):
                parse_fan_document(json.dumps(dict(p2, metadata=bad)))
        for key in ("name", "source"):
            for bad in (5, None, ["p2"], {"x": 1}):
                with pytest.raises(SchemaError, match=rf"^metadata\.{key} must be a string$"):
                    parse_fan_document(json.dumps(dict(p2, metadata={key: bad})))

    def test_json_errors_name_line_and_column(self):
        with pytest.raises(ParseError, match="line 2, column"):
            parse_fan('{"schema_version": "1",\n "rays": [[1, 0]')


class TestRayText:
    def test_parenthesised(self):
        assert parse_ray_text("(1,0) (0,1) (-1,-1)") == [(1, 0), (0, 1), (-1, -1)]

    def test_line_per_ray(self):
        assert parse_ray_text("1 0\n0 1\n-1 -1") == [(1, 0), (0, 1), (-1, -1)]

    def test_builds_projective_plane(self, p2):
        fan = parse_fan("(1,0) (0,1) (-1,-1)")
        assert fan.cones == p2.cones and set(fan.rays) == set(p2.rays)

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_ray_text("(1,x)")

    def test_half_plane_rejected(self):
        # A gap of more than half a turn, and one of exactly half a turn.
        for text in ("(1,0) (1,1) (0,1)", "(1,0) (0,1) (-1,0)", "(0,-1) (1,-1) (1,0) (1,1)"):
            with pytest.raises(MalformedFan, match="do not surround the origin"):
                parse_fan(text)

    def test_surrounding_rays_accepted(self):
        fan = parse_fan("(1,0) (1,1) (0,1) (-1,-1)")
        assert fan.is_proper() and len(fan.top_cones()) == 4


class TestRoundTrip:
    def test_corpus_files_are_canonical(self, corpus_fans):
        for name, fan in corpus_fans.items():
            data = corpus_bytes(name)
            doc = json.loads(data)
            assert parse_fan(data) == fan
            re_emitted = emit_fan(fan, name=doc["metadata"]["name"],
                                  source=doc["metadata"]["source"])
            assert re_emitted.encode() == data

    @settings(max_examples=60)
    @given(st.sets(st.sampled_from(
        [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1),
         (2, 1), (1, 2), (-1, 2), (-2, -1)]),
        min_size=3, max_size=8))
    def test_random_surface_round_trip(self, rays):
        try:
            fan = complete_surface_fan(sorted(rays))
        except MalformedFan:
            return
        assert parse_fan(emit_fan(fan)) == fan

    def test_triangulation_round_trip(self):
        t, _ = mu2_kernel_triangulations()
        doc = json.dumps(triangulation_json(t))
        assert parse_triangulation(doc) == t

    def test_triangulation_points_in_another_order_refused(self):
        # The flipped mu2-kernel triangulation with its points sorted by
        # (y, x) and its cells indexing that order is a different valid
        # triangulation, so the points must be torell's own order.
        _, flipped = mu2_kernel_triangulations()
        points = flipped.simplex.points
        order = sorted(points, key=lambda p: (p[1], p[0]))
        doc = triangulation_json(flipped)
        doc["points"] = [list(p) for p in order]
        doc["cells"] = [[order.index(points[i]) for i in c] for c in flipped.cells]
        with pytest.raises(SchemaError, match=r"points\[1\] is \[1, 0\], not \[0, 1\]"):
            parse_triangulation(json.dumps(doc))
        doc = triangulation_json(flipped)
        doc["points"].append([3, 3])
        with pytest.raises(SchemaError, match=r"points\[6\] is \[3, 3\], not absent"):
            parse_triangulation(json.dumps(doc))
        del doc["points"][-2:]
        with pytest.raises(SchemaError, match=r"points\[5\] is absent, not \[2, 0\]"):
            parse_triangulation(json.dumps(doc))
        doc["points"] = [[0, 0], ["0", 1]]
        with pytest.raises(SchemaError, match=r"points\[1\]"):
            parse_triangulation(json.dumps(doc))
        del doc["points"]
        assert parse_triangulation(json.dumps(doc)) == flipped

    def test_triangulation_bad_index(self):
        t, _ = mu2_kernel_triangulations()
        doc = triangulation_json(t)
        doc["cells"][0] = [0, 1, 99]
        with pytest.raises(SchemaError):
            parse_triangulation(json.dumps(doc))


@settings(max_examples=120)
@given(st.text(max_size=60))
def test_parser_raises_only_typed_errors(data):
    from torell.errors import TorellError
    try:
        parse_fan(data)
    except TorellError:
        pass


def test_report_envelope_is_deterministic(p2):
    doc = emit_fan(p2).encode()
    a = make_report("validate", [("p2", doc)], {"ok": True})
    b = make_report("validate", [("p2", doc)], {"ok": True})
    assert a == b
    assert len(a["inputs"][0]["sha256"]) == 64


def test_document_lists_maximal_cones_only(p2):
    doc = fan_to_document(p2)
    assert sorted(doc["cones"]) == [[0, 1], [0, 2], [1, 2]]


def test_corpus_names_strip_one_suffix(tmp_path):
    for stem in ("p2", "p2.fanout", "x.fan"):
        (tmp_path / f"{stem}.fan.json").write_text(emit_fan(load_corpus_fan("p2")))
    (tmp_path / "notes.json").write_text("{}")
    names = corpus_names(str(tmp_path))
    assert names == ["p2", "p2.fanout", "x.fan"]
    for name in names:
        assert corpus_bytes(name, str(tmp_path)) == (tmp_path / f"{name}.fan.json").read_bytes()
