import contextlib
import gc
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import troplog.cli
import troplog.moduli
from troplog import (
    ContactOrder,
    Fan,
    build_map_moduli,
    build_moduli_complex,
    classify_self_map,
    plfunction_from_json,
    product_decomposition,
    subdivide_map_moduli,
    tree_from_json,
)
from troplog.cli import build_parser, main
from troplog.errors import ParseError

from oracles import cone_complex_json, isomorphism_report_json, subdivided_complex_json


@pytest.fixture
def capture(capsys):
    def run(argv):
        code = main(argv)
        out = capsys.readouterr().out
        return code, json.loads(out)

    return run


@pytest.fixture
def path_tree(tmp_path):
    doc = {
        "vertices": ["v1", "v2"],
        "edges": [{"ends": ["v1", "v2"], "length": "3"}],
        "legs": [{"label": 1, "at": "v1"}, {"label": 2, "at": "v1"}, {"label": 3, "at": "v2"}],
    }
    p = tmp_path / "path.json"
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.fixture
def p1_fan(tmp_path):
    p = tmp_path / "p1.fan"
    p.write_text(json.dumps({"dim": 1, "cones": [{"gens": [[1]]}, {"gens": [[-1]]}, {"gens": []}]}))
    return str(p)


@pytest.fixture
def plane_fan(tmp_path):
    p = tmp_path / "plane.fan"
    gens = [[[1, 0], [0, 1]], [[0, 1], [-1, -1]], [[-1, -1], [1, 0]]]
    p.write_text(json.dumps({"dim": 2, "cones": [{"gens": g} for g in gens]}))
    return str(p)


def _tree_doc(**changes):
    doc = {
        "vertices": ["a", "b"],
        "edges": [{"ends": ["a", "b"], "length": "1"}],
        "legs": [{"label": 1, "at": "a"}, {"label": 2, "at": "a"}, {"label": 3, "at": "b"}, {"label": 4, "at": "b"}],
    }
    doc.update(changes)
    return doc


EDGE_TO_NOWHERE = [{"ends": ["a", "b"], "length": "1"}, {"ends": ["a", "nowhere"], "length": "1"}]


def _pl_doc(**changes):
    """A PL function document on ``_tree_doc()``'s tree, all slopes 0."""
    doc = _tree_doc(
        basepoint="a",
        base_value="0",
        edge_slopes=[{"from": "a", "to": "b", "slope": 0}],
        leg_slopes={"1": 0, "2": 0, "3": 0, "4": 0},
    )
    doc.update(changes)
    return doc


class TestValidate:
    def test_valid(self, capture, path_tree):
        code, env = capture(["validate", path_tree])
        assert code == 0 and env["payload"]["valid"]

    def test_invalid_reported(self, capture, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"vertices": ["a"], "edges": [], "legs": [{"label": 2, "at": "a"}]}))
        code, env = capture(["validate", str(p)])
        assert code == 0 and not env["payload"]["valid"]

    def test_unknown_endpoint_reported(self, capture, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(_tree_doc(edges=EDGE_TO_NOWHERE)))
        code, env = capture(["validate", str(p)])
        assert code == 0 and not env["payload"]["valid"]
        assert env["payload"]["problems"] == ["edge 1 has an endpoint not in the vertex set"]

    @pytest.mark.parametrize(
        "changes, problem",
        [
            ({"vertices": ["a", "b", "a"]}, "duplicate vertex identifiers"),
            ({"vertices": [], "edges": []}, "tree has no vertices"),
            ({"edges": [{"ends": ["a", "b"], "length": "1"}, {"ends": ["b", "b"], "length": "1"}]}, "edge 1 is a self-loop (cycle)"),
            ({"legs": [{"label": 1, "at": "a"}, {"label": 2, "at": "zz"}]}, "leg 2 attached to unknown vertex 'zz'"),
        ],
        ids=["duplicate-ids", "no-vertices", "self-loop", "leg-at-unknown-vertex"],
    )
    def test_problem_reported(self, capture, tmp_path, changes, problem):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(_tree_doc(**changes)))
        code, env = capture(["validate", str(p)])
        assert code == 0 and not env["payload"]["valid"]
        assert env["payload"]["problems"] == [problem]

    def test_parse_error_exit_code(self, capture, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("{not json")
        code, env = capture(["validate", str(p)])
        assert code == 2 and env["status"] == "ParseError"

    def test_not_utf8_parse_error(self, capture, tmp_path):
        p = tmp_path / "utf16.json"
        p.write_bytes(json.dumps(_tree_doc()).encode("utf-16"))  # starts ff fe
        code, env = capture(["validate", str(p)])
        assert code == 2 and env["status"] == "ParseError"
        assert "can't decode byte 0xff" in env["payload"]["message"]

    def test_huge_integer_literal_parse_error(self, capture, tmp_path):
        p = tmp_path / "big.json"
        p.write_text('{"vertices": ["a"], "edges": [], "legs": [{"label": ' + "1" * 5000 + ', "at": "a"}]}')
        code, env = capture(["validate", str(p)])
        assert code == 2 and env["status"] == "ParseError"
        assert "Exceeds the limit" in env["payload"]["message"]

    def test_deep_nesting_parse_error(self, capture, tmp_path):
        p = tmp_path / "deep.fan"
        p.write_text("[" * 200_000 + "]" * 200_000)
        code, env = capture(["validate-fan", str(p)])
        assert code == 2 and env["status"] == "ParseError"
        assert "maximum recursion depth" in env["payload"]["message"]


class TestExtend:
    def test_path_slopes(self, capture, path_tree):
        code, env = capture(["extend", path_tree, "--sigma", "2,-1,-1"])
        assert code == 0
        f = plfunction_from_json(env["payload"])
        assert f.slope("v1", "v2", 0) == -1

    def test_nonzero_sum(self, capture, path_tree):
        code, env = capture(["extend", path_tree, "--sigma", "1,0,0"])
        assert code == 3 and env["status"] == "NonZeroSum"

    def test_exponent_base_value(self, capture, path_tree):
        code, env = capture(["extend", path_tree, "--sigma", "2,-1,-1", "--base-value", "1e5000"])
        assert code == 2 and env["status"] == "ParseError"

    def test_spaced_tokens_parse_error(self, capture, path_tree, tmp_path):
        # "1 2" is not the number 12, nor "c d" the symbol cd: both in
        # --base-value and in the base_value of a PL document.
        for value in ("1 2", "c d"):
            code, env = capture(["extend", path_tree, "--sigma", "2,-1,-1", "--base-value", value])
            assert (code, env["status"]) == (2, "ParseError"), value
            _, env = capture(["extend", path_tree, "--sigma", "2,-1,-1"])
            plf = tmp_path / "f.json"
            plf.write_text(json.dumps({**env["payload"], "base_value": value}))
            code, env = capture(["multidegree", str(plf)])
            assert (code, env["status"]) == (2, "ParseError"), value
            assert "missing operator" in env["payload"]["message"]

    def test_unknown_basepoint(self, capture, path_tree):
        code, env = capture(["extend", path_tree, "--sigma", "2,-1,-1", "--basepoint", "zz"])
        assert code == 2 and env["payload"]["message"] == "basepoint 'zz' is not a vertex"

    def test_integer_basepoint_shares_the_integer_grammar(self, capture, tmp_path):
        # JSON vertex ids may be integers. --basepoint retries its text as
        # one in the grammar of every integer argument, where int() alone
        # would read '1_0' as the vertex 10.
        p = tmp_path / "tree.json"
        legs = [{"label": 1, "at": 10}, {"label": 2, "at": 10}, {"label": 3, "at": 2}]
        p.write_text(json.dumps({"vertices": [10, 2], "edges": [{"ends": [10, 2], "length": "1"}], "legs": legs}))
        code, env = capture(["extend", str(p), "--sigma", "2,-1,-1", "--basepoint", " +10 "])
        assert (code, env["payload"]["basepoint"]) == (0, 10)
        code, env = capture(["extend", str(p), "--sigma", "2,-1,-1", "--basepoint", "1_0"])
        assert (code, env["status"]) == (2, "ParseError")
        assert env["payload"]["message"] == "basepoint '1_0' is not a vertex"

    @pytest.mark.parametrize(
        "edges, legs, sigma, message",
        [
            ([], [(1, "a"), (2, "b")], "1,-1", "tree is disconnected"),
            ([("a", "b"), ("b", "c"), ("c", "a")], [(1, "a"), (2, "b"), (3, "c")], "1,1,-2", "graph contains a cycle"),
            ([("a", "b"), ("a", "b")], [(1, "a"), (2, "b")], "1,-1", "graph contains a cycle"),
            ([("a", "a")], [(1, "a"), (2, "a")], "1,-1", "graph contains a cycle"),
        ],
        ids=["disconnected", "triangle", "double-edge", "self-loop"],
    )
    def test_not_a_tree(self, capture, tmp_path, edges, legs, sigma, message):
        doc = {
            "vertices": sorted({v for e in edges for v in e} | {v for _, v in legs}),
            "edges": [{"ends": list(e), "length": "1"} for e in edges],
            "legs": [{"label": label, "at": v} for label, v in legs],
        }
        p = tmp_path / "graph.json"
        p.write_text(json.dumps(doc))
        code, env = capture(["extend", str(p), "--sigma", sigma])
        assert code == 2 and env["status"] == "ParseError"
        assert env["payload"]["message"].startswith(message)

    def test_repeated_leg_label(self, capture, tmp_path):
        # Legs 1@a and 1@b would share one slope, which balances nothing.
        legs = [(1, "a"), (2, "a"), (3, "b"), (4, "b"), (1, "b")]
        doc = {
            "vertices": ["a", "b"],
            "edges": [{"ends": ["a", "b"], "length": None}],
            "legs": [{"label": label, "at": v} for label, v in legs],
        }
        p = tmp_path / "repeated.json"
        p.write_text(json.dumps(doc))
        code, env = capture(["extend", str(p), "--sigma", "2,0,-1,-1,0"])
        assert (code, env["status"]) == (2, "ParseError")
        assert env["payload"]["message"] == "leg label 1 is repeated"

    def test_star_no_edges(self, capture, tmp_path):
        doc = {"vertices": ["v"], "edges": [], "legs": [{"label": 1, "at": "v"}, {"label": 2, "at": "v"}]}
        p = tmp_path / "star.json"
        p.write_text(json.dumps(doc))
        code, env = capture(["extend", str(p), "--sigma", "1,-1"])
        assert code == 0 and env["payload"]["edge_slopes"] == []


class TestMultidegree:
    def test_roundtrip_through_extend(self, capture, path_tree, tmp_path):
        _, env = capture(["extend", path_tree, "--sigma", "2,-1,-1"])
        plf = tmp_path / "f.json"
        plf.write_text(json.dumps(env["payload"]))
        code, env = capture(["multidegree", str(plf)])
        assert code == 0
        assert env["payload"]["balanced"]
        assert env["payload"]["degrees"] == {"v1": 0, "v2": 0}


class TestModuli:
    def test_n4_map_moduli(self, capture):
        code, env = capture(["moduli", "--n", "4", "--sigma", "1,1,1,-3"])
        assert code == 0
        cones = env["payload"]["complex"]["cones"]
        assert len(cones) == 4 and max(c["dim"] for c in cones) == 2

    def test_unstable_exit(self, capture):
        code, env = capture(["moduli", "--n", "2", "--sigma", "1,-1"])
        assert code == 4 and env["status"] == "UnstableRange"

    def test_certify_product(self, capture):
        code, env = capture(["moduli", "--n", "5", "--sigma", "1,1,1,1,-4", "--certify-product", "2"])
        assert code == 0
        rep = env["payload"]["product_decomposition"]
        assert rep["certified"] and rep["cones_checked"] == 26

    def test_certify_product_builds_curve_moduli_once(self, capture, monkeypatch):
        build = troplog.moduli.build_moduli_complex
        calls = []

        def counted(n):
            calls.append(n)
            return build(n)

        monkeypatch.setattr(troplog.moduli, "build_moduli_complex", counted)
        code, env = capture(["moduli", "--n", "5", "--sigma", "1,1,1,1,-4", "--certify-product", "1"])
        assert code == 0 and env["payload"]["product_decomposition"]["certified"]
        assert calls == [5]

    @pytest.mark.parametrize(
        "argv, status",
        [
            (["--n", "8", "--certify-product", "1"], "ParseError"),
            (["--n", "9", "--sigma", "1,1,1,1,1,1,1,1,-8", "--certify-product", "0"], "NoSuchLeg"),
            (["--n", "9", "--sigma", "1,1,1,1,1,1,1,1,-7", "--certify-product", "1"], "NonZeroSum"),
            (["--n", "9", "--sigma", "1,1,1,1,1,1,1,1,-8;1,1,1,1,1,1,1,1,-8", "--certify-product", "1"], "ParseError"),
            (["--n", "9", "--sigma", "1,1,1,1,1,1,1,1,-8;1,x"], "ParseError"),
            (["--n", "9", "--sigma", "1,1,1,1,1,1,1,1,-8;1,1,-2"], "LengthMismatch"),
            (["--n", "9", "--sigma", "1,1,1,1,1,1,1,1,-8;1,1,1,1,1,1,1,1,-7"], "NonZeroSum"),
        ],
        ids=[
            "certify-without-sigma",
            "leg-0",
            "nonzero-sum",
            "certify-two-targets",
            "two-targets-bad-sigma",
            "two-targets-length",
            "two-targets-nonzero-sum",
        ],
    )
    def test_cheap_checks_before_build(self, capture, monkeypatch, argv, status):
        def no_build(n):
            raise AssertionError("built the moduli before checking the arguments")

        monkeypatch.setattr(troplog.moduli, "build_moduli_complex", no_build)
        code, env = capture(["moduli"] + argv)
        assert env["status"] == status and code == troplog.cli.EXIT_CODES[status]

    @pytest.mark.parametrize(
        "argv",
        [
            ["moduli", "--n", "9"],
            ["moduli", "--n", "9", "--sigma", "1,1,1,1,1,1,1,1,-8"],
            ["moduli", "--n", "9", "--sigma", "1,1,1,1,1,1,1,1,-8", "--certify-product", "1"],
            ["moduli", "--n", "9", "--sigma", "1,1,1,1,1,1,1,1,-8;1,1,1,1,1,1,1,1,-8"],
            ["subdivide", "--n", "9", "--sigma", "1,1,1,1,1,1,1,1,-8", "--fan", "P1"],
        ],
        ids=["curves", "maps", "certify", "maps-two-targets", "subdivide"],
    )
    def test_size_limit_before_build(self, capture, monkeypatch, p1_fan, argv):
        def no_build(n):
            raise AssertionError("built the moduli above the size limit")

        monkeypatch.setattr(troplog.moduli, "build_moduli_complex", no_build)
        code, env = capture([p1_fan if a == "P1" else a for a in argv])
        assert code == 7 and env["status"] == "SizeLimit"
        assert env["payload"]["message"] == f"n = 9 is above the limit n <= {troplog.cli.MAX_N}"

    def test_two_targets_print_the_subdivided_complex(self, capture, plane_fan):
        # `moduli` reads contact orders as `subdivide` does, and prints the
        # same complex.
        sigmas = "1,1,1,-3;1,-3,1,1"
        code, env = capture(["moduli", "--n", "4", "--sigma", sigmas])
        assert code == 0 and env["payload"]["empty"] is False
        cx = env["payload"]["complex"]
        assert "sigma" not in cx and all(len(fs) == 2 for fs in cx["functions"].values())
        code, sub = capture(["subdivide", "--n", "4", "--sigma", sigmas, "--fan", plane_fan])
        assert code == 0 and json.dumps(cx) == json.dumps(sub["payload"]["complex"])

    def test_subdivide_flag_is_gone(self, capture, p1_fan):
        # A subdivision is reached only through `subdivide`, which validates the fan.
        code, env = capture(["moduli", "--n", "3", "--sigma", "1,1,-2", "--subdivide", p1_fan])
        assert code == 2 and env["status"] == "ParseError"
        assert "unrecognized arguments: --subdivide" in env["payload"]["message"]


class TestSubdivide:
    def test_n3(self, capture, p1_fan):
        code, env = capture(["subdivide", "--n", "3", "--sigma", "1,1,-2", "--fan", p1_fan])
        assert code == 0
        assert env["payload"]["statistics"]["total_max_cells"] == 2

    def test_incomplete_fan_exit(self, capture, tmp_path):
        p = tmp_path / "half.fan"
        p.write_text(json.dumps({"dim": 1, "cones": [{"gens": [[1]]}]}))
        code, env = capture(["subdivide", "--n", "3", "--sigma", "1,1,-2", "--fan", str(p)])
        assert code == 5 and env["status"] == "IncompleteFan"

    def test_two_targets(self, capture, plane_fan):
        code, env = capture(["subdivide", "--n", "3", "--sigma", "1,1,-2;1,-2,1", "--fan", plane_fan])
        assert code == 0 and env["status"] == "ok"
        payload = env["payload"]
        assert payload["statistics"]["total_max_cells"] == len(payload["cells"]["(1,2,3;)"]) > 1
        functions = payload["complex"]["functions"]["(1,2,3;)"]
        assert [plfunction_from_json(f).leg_slopes for f in functions] == [(1, 1, -2), (1, -2, 1)]

    @pytest.mark.parametrize(
        "argv, status",
        [
            (["--n", "9", "--sigma", "1,x"], "ParseError"),
            (["--n", "9", "--sigma", "1,1,1,1,1,1,1,1,-8"], "SizeLimit"),
            (["--n", "4", "--sigma", "1,1,1,-2"], "NonZeroSum"),
            (["--n", "3", "--sigma", "1,1,-2", "--fan", "PLANE"], "LengthMismatch"),
            (["--n", "3", "--sigma", "1,1,-2", "--fan", "NOT-COMPLETE"], "IncompleteFan"),
        ],
        ids=["bad-sigma", "n-9", "nonzero-sum", "fan-dimension", "fan-not-complete"],
    )
    def test_cheap_checks_before_fan_check(self, capture, monkeypatch, tmp_path, p1_fan, plane_fan, argv, status):
        def no_check(fan):
            raise AssertionError("checked the fan before the arguments")

        monkeypatch.setattr(troplog.subdivision, "validate_fan", no_check)
        not_complete = tmp_path / "not-complete.fan"
        not_complete.write_text(json.dumps({"dim": 1, "cones": [{"gens": [[1]]}, {"gens": [[-1]]}], "complete": False}))
        fans = {"PLANE": plane_fan, "NOT-COMPLETE": str(not_complete)}
        argv = [fans.get(a, a) for a in argv]
        code, env = capture(["subdivide", *argv] + ([] if "--fan" in argv else ["--fan", p1_fan]))
        assert env["status"] == status and code == troplog.cli.EXIT_CODES[status]

    def test_validate_fan(self, capture, p1_fan):
        code, env = capture(["validate-fan", p1_fan])
        assert code == 0 and env["payload"]["valid"]

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"dim": 1, "cones": [{"gens": [["a"]]}]}, "coordinate 'a' is not an integer"),
            ({"dim": 1, "cones": [{"gens": [1]}]}, "generator 1 is not a list"),
            ({"dim": "x", "cones": [{"gens": [[1]]}]}, "dim 'x' is not an integer"),
            ({"dim": 1, "cones": [{"gens": [[1.5]]}]}, "coordinate 1.5 is not an integer"),
            ({"dim": 1.7, "cones": [{"gens": [[1]]}]}, "dim 1.7 is not an integer"),
            ({"dim": 1, "cones": [{"gens": [[1]]}], "complete": "false"}, "complete 'false' is not a boolean"),
            ({"dim": 2, "cones": [{"gens": [[1, 0]]}, {"gens": [[1]]}]}, "generator [1] has wrong dimension"),
        ],
        ids=["coordinate-a", "generator-not-list", "dim-x", "coordinate-1.5", "dim-1.7", "complete-string", "generator-length"],
    )
    def test_malformed_fan_parse_error(self, capture, tmp_path, doc, message):
        p = tmp_path / "bad.fan"
        p.write_text(json.dumps(doc))
        code, env = capture(["validate-fan", str(p)])
        assert code == 2 and env["status"] == "ParseError"
        assert env["payload"]["message"] == message


@pytest.mark.parametrize(
    "command, doc",
    [
        ("extend", _tree_doc(edges=EDGE_TO_NOWHERE)),
        (
            "multidegree",
            _tree_doc(
                edges=EDGE_TO_NOWHERE,
                basepoint="a",
                base_value="0",
                edge_slopes=[{"from": "a", "to": "b", "slope": 0}, {"from": "a", "to": "nowhere", "slope": 0}],
                leg_slopes={"1": 0, "2": 0, "3": 0, "4": 0},
            ),
        ),
        ("validate", _tree_doc(legs=[{"label": "x", "at": "a"}] + _tree_doc()["legs"][1:])),
        ("validate", _tree_doc(vertices=[["a"], "b"])),
        ("validate", _tree_doc(legs=[{"label": 1.9, "at": "a"}] + _tree_doc()["legs"][1:])),
        ("extend", _tree_doc(legs=[{"label": True, "at": "a"}] + _tree_doc()["legs"][1:])),
        (
            "multidegree",
            _tree_doc(
                basepoint="a",
                base_value="0",
                edge_slopes=[{"from": "a", "to": "b", "slope": 2.5}],
                leg_slopes={"1": 0, "2": 0, "3": 0, "4": 0},
            ),
        ),
        (
            "multidegree",
            _tree_doc(
                basepoint="a",
                base_value="0",
                edge_slopes=[{"from": "a", "to": "b", "slope": 0}],
                leg_slopes={"1": "0", "2": 0, "3": 0, "4": 0},
            ),
        ),
        ("multidegree", _pl_doc(edge_slopes=[{"from": "a", "to": "b", "slope": 2}, {"from": "b", "to": "a", "slope": 5}])),
        ("multidegree", _pl_doc(edge_slopes=[{"from": "a", "to": "b", "slope": 0}, {"from": "a", "to": "zz", "slope": 0}])),
        ("multidegree", _pl_doc(leg_slopes={"1": 0, "2": 0, "3": 0, "4": 0, "5": 0})),
        ("multidegree", _pl_doc(edges=[{"ends": ["a", "b"], "length": "1"}] * 2)),
        ("extend", _tree_doc(edges=[{"ends": ["a", "b"], "length": "1e5000"}])),
        ("validate", _tree_doc(vertices="ab")),
        ("validate", _tree_doc(vertices={"a": 1, "b": 2})),
        ("validate", _tree_doc(edges=[{"ends": "ab", "length": "1"}])),
        ("validate", _tree_doc(edges=[{"ends": ["a", "b", "c"], "length": "1"}])),
        (
            "validate",
            {
                "vertices": [True, 2],
                "edges": [{"ends": [True, 2], "length": "1"}],
                "legs": [{"label": 1, "at": 1}, {"label": 2, "at": 1}, {"label": 3, "at": 2}, {"label": 4, "at": 2}],
            },
        ),
    ],
    ids=[
        "extend-unknown-vertex",
        "multidegree-unknown-vertex",
        "leg-label-x",
        "list-vertex-id",
        "leg-label-1.9",
        "leg-label-true",
        "edge-slope-2.5",
        "leg-slope-string",
        "two-slope-records-one-edge",
        "slope-record-for-no-edge",
        "leg-slope-for-no-leg",
        "parallel-edges-one-record",
        "edge-length-1e5000",
        "vertices-string",
        "vertices-object",
        "ends-string",
        "three-ends",
        "vertex-id-true",
    ],
)
def test_malformed_tree_parse_error(capture, tmp_path, command, doc):
    p = tmp_path / "tree.json"
    p.write_text(json.dumps(doc))
    argv = [command, str(p)] + (["--sigma", "0,0,0,0"] if command == "extend" else [])
    code, env = capture(argv)
    assert code == 2 and env["status"] == "ParseError"


class TestSelfmap:
    def test_kernel_order(self, capture):
        code, env = capture(["selfmap", "--r", "3"])
        assert code == 0 and env["payload"]["kernel_order"] == 3

    def test_constant_stratum(self, capture):
        code, env = capture(["selfmap", "--r", "0", "--a", "5"])
        assert env["payload"] == {"degree": 0, "kernel_order": 0, "translation": "5"}

    def test_compose(self, capture):
        code, env = capture(["selfmap", "--r", "2", "--a", "1", "--compose", "3", "4"])
        assert env["payload"]["degree"] == 6 and env["payload"]["translation"] == "9"

    @pytest.mark.parametrize(
        "argv",
        [["--a=1e5000"], ["--a", "1E3"], ["--compose", "1", "1e1000000000"]],
        ids=["a-1e5000", "a-1E3", "compose-1e1000000000"],
    )
    def test_exponent_parse_error(self, capsys, argv):
        code = main(["selfmap", "--r", "1"] + argv)
        out = capsys.readouterr().out
        env = json.loads(out)
        assert code == 2 and out.count("\n") == 1 and env["status"] == "ParseError"
        assert "exponents are not accepted" in env["payload"]["message"]

    def test_compose_bad_degree(self, capture):
        code, env = capture(["selfmap", "--r", "1", "--compose", "x", "0"])
        assert code == 2 and env["status"] == "ParseError"

    def test_digit_separators_parse_error(self, capture):
        # '1_000' is 1000 to Fraction on newer Pythons only; it is refused
        # on all of them.
        code, env = capture(["selfmap", "--r", "2", "--a", "1_000"])
        assert code == 2 and env["status"] == "ParseError"
        assert env["payload"]["message"] == "not a rational: '1_000'"


def _assert_output_limit(capsys, code):
    out, err = capsys.readouterr()
    env = json.loads(out)
    assert code == 7 and out.count("\n") == 1 and err == ""
    assert env["status"] == "SizeLimit" and env["payload"]["error"] == "SizeLimit"
    assert f"more than {sys.get_int_max_str_digits()} digits" in env["payload"]["message"]


def test_selfmap_result_over_digit_limit(capsys):
    # Each input has 4 000 digits; the translation r * a2 has 8 000.
    big = "9" * 4000
    _assert_output_limit(capsys, main(["selfmap", "--r", big, "--a", "0", "--compose", "1", big]))


@pytest.mark.parametrize("extra", [[], ["--certify-product", "1"]], ids=["maps", "certificate"])
def test_moduli_result_over_digit_limit(capsys, extra):
    # Each leg slope has 4 300 digits, as many as an input may have; the
    # edge slope -2A has 4 301.  No part of the envelope is printed first.
    a = "9" * 4300
    _assert_output_limit(capsys, main(["moduli", "--n", "4", "--sigma", f"{a},{a},-{a},-{a}", *extra]))


def _integer_vertex_pl_doc(**changes):
    doc = {
        "vertices": [1, 2],
        "edges": [{"ends": [1, 2], "length": "1"}],
        "legs": [{"label": 1, "at": 1}, {"label": 2, "at": 1}, {"label": 3, "at": 2}],
        "basepoint": 1,
        "base_value": "0",
        "edge_slopes": [{"from": 1, "to": 2, "slope": -1}],
        "leg_slopes": {"1": 1, "2": 0, "3": -1},
    }
    for key, value in changes.items():
        if key in ("from", "to"):
            doc["edge_slopes"][0][key] = value
        else:
            doc[key] = value
    return doc


@pytest.mark.parametrize(
    "changes",
    [{"basepoint": True}, {"basepoint": 1.0}, {"basepoint": [1]}, {"from": True}, {"to": 2.0}, {"from": None}],
    ids=["basepoint-true", "basepoint-float", "basepoint-list", "from-true", "to-float", "from-null"],
)
def test_pl_document_vertex_ids_are_checked(capture, tmp_path, changes):
    # The basepoint and the ends of a slope record are vertex ids like the
    # tree's: true and 1.0 would match the vertex 1.
    p = tmp_path / "plf.json"
    p.write_text(json.dumps(_integer_vertex_pl_doc()))
    code, env = capture(["multidegree", str(p)])
    assert (code, env["status"], env["payload"]["balanced"]) == (0, "ok", True)
    p.write_text(json.dumps(_integer_vertex_pl_doc(**changes)))
    code, env = capture(["multidegree", str(p)])
    assert (code, env["status"]) == (2, "ParseError")
    assert "vertex ids must be strings or integers" in env["payload"]["message"]


def test_multidegree_result_over_digit_limit(capsys, tmp_path):
    # Two slopes of 4 300 digits each are valid JSON integers; their sum,
    # the degree of the only vertex, has 4 301.
    big = int("9" * 4300)
    doc = {
        "vertices": ["a"],
        "edges": [],
        "legs": [{"label": 1, "at": "a"}, {"label": 2, "at": "a"}, {"label": 3, "at": "a"}],
        "basepoint": "a",
        "base_value": "0",
        "edge_slopes": [],
        "leg_slopes": {"1": big, "2": big, "3": 0},
    }
    p = tmp_path / "plf.json"
    p.write_text(json.dumps(doc))
    _assert_output_limit(capsys, main(["multidegree", str(p)]))


def test_other_value_errors_are_not_size_limits(monkeypatch):
    # Only Python's integer-to-text limit becomes SizeLimit; a ValueError of
    # any other origin is a bug and must not be hidden behind an envelope.
    def broken(args):
        raise ValueError("not a digit limit")

    build_parser()  # the shared parser exists before the handler is replaced
    monkeypatch.setattr(troplog.cli, "cmd_selfmap", broken)
    with pytest.raises(ValueError, match="not a digit limit"):
        main(["selfmap", "--r", "1"])


def test_second_main_call_leaves_no_cyclic_garbage(cyclic_garbage, capsys):
    # Every call shares one parser, and so leaves nothing for the collector;
    # a parser built per call is a cycle of argparse objects.
    main(["selfmap", "--r", "2", "--a", "1"])
    cyclic_garbage()
    assert main(["moduli", "--n", "4", "--sigma", "1,1,1,-3"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["status"] == "ok"
    assert cyclic_garbage() == []


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The cyclic collector on or off before the test's ``main`` call; the
    caller's setting is restored after the test."""
    enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    try:
        yield request.param
    finally:
        (gc.enable if enabled else gc.disable)()


def test_main_restores_the_collector_after_success(collector, capture):
    assert capture(["selfmap", "--r", "2", "--a", "1"])[0] == 0
    assert gc.isenabled() is collector


def test_main_restores_the_collector_after_an_error_envelope(collector, capture):
    code, env = capture(["moduli", "--n", "4", "--sigma", "1,1,1,-2"])
    assert (code, env["status"]) == (3, "NonZeroSum")
    assert gc.isenabled() is collector


def test_main_restores_the_collector_after_an_unexpected_exception(collector, monkeypatch):
    def broken(args):
        assert not gc.isenabled()  # the handler runs with the collector paused
        raise RuntimeError("a bug")

    build_parser()
    monkeypatch.setattr(troplog.cli, "cmd_selfmap", broken)
    with pytest.raises(RuntimeError, match="a bug"):
        main(["selfmap", "--r", "1"])
    assert gc.isenabled() is collector


def test_main_runs_no_collection(capsys):
    # The collector is on before the call; main pauses it for the command,
    # so no generation is collected during the certificate's build.  The
    # objects that main allocates still count toward the youngest
    # generation, so the first allocation after it returns (here, reading
    # the statistics) may run one young collection.  Collecting first
    # empties every count, so that one cannot reach the older generations.
    enabled = gc.isenabled()
    gc.collect()
    gc.enable()
    try:
        before = [s["collections"] for s in gc.get_stats()]
        code = main(["moduli", "--n", "6", "--sigma", "1,1,1,1,1,-5", "--certify-product", "1"])
        after = [s["collections"] for s in gc.get_stats()]
        assert gc.isenabled()
    finally:
        (gc.enable if enabled else gc.disable)()
    env = json.loads(capsys.readouterr().out)
    assert code == 0 and env["payload"]["product_decomposition"]["certified"] is True
    assert after[2] == before[2]
    assert after[1] == before[1] and after[0] - before[0] <= 1


class TestDeterminism:
    def test_payload_byte_identical(self, capsys, p1_fan):
        outs = []
        for _ in range(2):
            main(["subdivide", "--n", "4", "--sigma", "2,-1,1,-2", "--fan", p1_fan])
            env = json.loads(capsys.readouterr().out)
            outs.append(json.dumps(env["payload"], sort_keys=True))
        assert outs[0] == outs[1]

    def test_payload_roundtrips(self, capture, path_tree):
        _, env = capture(["extend", path_tree, "--sigma", "2,-1,-1"])
        f = plfunction_from_json(env["payload"])
        assert json.dumps(env["payload"], sort_keys=True)
        t = tree_from_json(env["payload"])
        assert t.n_legs == 3


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["moduli", "--n", "x"], "invalid int value: 'x'"),
        (["moduli", "--n", "4", "--frobnicate"], "unrecognized arguments: --frobnicate"),
        ([], "required: command"),
    ],
    ids=["bad-int", "unknown-flag", "missing-subcommand"],
)
def test_argument_errors_give_envelope(capsys, argv, fragment):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    assert out.count("\n") == 1
    env = json.loads(out)
    assert env["status"] == "ParseError" and env["payload"]["error"] == "ParseError"
    assert fragment in env["payload"]["message"]


@pytest.mark.parametrize(
    "flag, argv, accepted",
    [
        ("--n", ["moduli", "--n", "{}"], " +3 "),
        ("--certify-product", ["moduli", "--n", "4", "--sigma", "1,1,1,-3", "--certify-product", "{}"], " +1 "),
        ("--sigma", ["moduli", "--n", "3", "--sigma", "{},-5,-5"], " +10 "),
        ("--r", ["selfmap", "--r", "{}"], " +2 "),
        ("--compose", ["selfmap", "--r", "2", "--a", "1", "--compose", "{}", "2"], " +1 "),
    ],
    ids=["n", "certify-product", "sigma", "r", "compose"],
)
def test_integer_arguments_share_one_grammar(capture, flag, argv, accepted):
    # int() alone reads '1_0' as 10. Integer arguments are read as
    # rationals are, without the fraction: whitespace, a sign, digits; and
    # no more digits than int() reads.
    for refused in ("1_0", "0x1", "1.0", "", "1" * (sys.get_int_max_str_digits() + 1)):
        code, env = capture([a.format(refused) for a in argv])
        assert (code, env["status"]) == (2, "ParseError"), refused
        assert f"argument {flag}: invalid int value: {refused!r}" in env["payload"]["message"]
    code, env = capture([a.format(accepted) for a in argv])
    assert (code, env["status"]) == (0, "ok"), env


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["moduli", "--help"])
    assert exc.value.code == 0
    assert "--certify-product" in capsys.readouterr().out


def test_closed_stdout_gives_no_traceback():
    # The payload of `moduli --n 6` (about 100 kB) is larger than a pipe
    # buffer, so the CLI is still writing when the reader closes the pipe.
    src = str(Path(troplog.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "troplog.cli", "moduli", "--n", "6"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    head = proc.stdout.read(50)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert head.startswith(b'{"payload": ') and err == b""


def _moduli_payload(n, sigma=None, leg=None) -> dict:
    """The `moduli` payload as the oracles' dicts: the library's `to_json`
    parses the text the CLI prints, so it cannot be the reference."""
    cx = build_moduli_complex(n) if sigma is None else build_map_moduli(n, ContactOrder.of(sigma))
    payload = {"complex": cone_complex_json(cx), "empty": cx.is_empty}
    if leg is not None:
        report = product_decomposition(n, ContactOrder.of(sigma), leg)
        payload["product_decomposition"] = isomorphism_report_json(report)
    return payload


def _argument_error(argv) -> dict:
    with pytest.raises(ParseError) as exc:
        build_parser().parse_args(argv)
    return {"error": exc.value.code, "message": str(exc.value)}


@pytest.mark.parametrize(
    "argv, status, payload",
    [
        (["moduli", "--n", "5", "--sigma", "1,1,1,1,-4"], "ok", lambda: _moduli_payload(5, (1, 1, 1, 1, -4))),
        (["selfmap", "--r", "2", "--a", "1/2"], "ok", lambda: classify_self_map(2, "1/2").to_json()),
        (["moduli", "--n", "x"], "ParseError", lambda: _argument_error(["moduli", "--n", "x"])),
        (["moduli", "--n", "6"], "ok", lambda: _moduli_payload(6)),
        (
            ["moduli", "--n", "6", "--sigma", "1,2,-3,4,-5,1", "--certify-product", "2"],
            "ok",
            lambda: _moduli_payload(6, (1, 2, -3, 4, -5, 1), 2),
        ),
        (["moduli", "--n", "1", "--sigma", "0"], "ok", lambda: _moduli_payload(1, (0,))),
        (
            ["subdivide", "--n", "1", "--sigma", "0", "--fan", "P1"],
            "ok",
            lambda: subdivided_complex_json(subdivide_map_moduli(1, ContactOrder.of((0,)), Fan.projective_line())),
        ),
    ],
    ids=["moduli", "selfmap", "parse-error", "moduli-curves", "moduli-certificate", "moduli-empty", "subdivide-empty"],
)
def test_envelope_bytes_equal_json_dump(capsys, p1_fan, argv, status, payload):
    # main writes the envelope in pieces; the bytes must be those that
    # json.dump streams for the envelope of dicts built apart from the
    # writer (the oracles' for `moduli` and `subdivide`) and the printed
    # timing.
    main([p1_fan if a == "P1" else a for a in argv])
    out = capsys.readouterr().out
    envelope = {"status": status, "payload": payload(), "timing_ms": json.loads(out)["timing_ms"]}
    expected = io.StringIO()
    json.dump(envelope, expected, sort_keys=True)
    assert out == expected.getvalue() + "\n"


@pytest.mark.parametrize(
    "argv",
    [["--n", "6"], ["--n", "6", "--sigma", "1,1,1,1,1,-5"], ["--n", "6", "--sigma", "1,1,1,1,1,-5", "--certify-product", "1"]],
    ids=["curves", "maps", "certificate"],
)
def test_moduli_builds_no_payload_dict(capture, monkeypatch, argv):
    # `moduli` writes its payload from shared JSON fragments; `to_json`
    # parses that text, and the dict builders are the tests' oracles.
    def no_dict(self):
        raise AssertionError("moduli built its payload as a dict")

    monkeypatch.setattr(troplog.moduli.ConeComplex, "to_json", no_dict)
    monkeypatch.setattr(troplog.moduli.IsomorphismReport, "to_json", no_dict)
    code, env = capture(["moduli", *argv])
    assert (code, env["status"]) == (0, "ok")
    assert env["payload"]["complex"]["n"] == 6


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "5", "--sigma", "2,-1,1,-3,1", "--fan", "P1"],
        ["--n", "4", "--sigma", "1,1,1,-3;1,-3,1,1", "--fan", "PLANE"],
    ],
    ids=["p1", "plane"],
)
def test_subdivide_builds_no_payload_dict(capture, monkeypatch, p1_fan, plane_fan, argv):
    # `subdivide` writes its payload as `moduli` does, and each cell from
    # the text of its shared halfspace and witness tuples.
    def no_dict(self):
        raise AssertionError("subdivide built its payload as a dict")

    for cls in (troplog.subdivision.SubdividedComplex, troplog.subdivision.SubdividedCell, troplog.moduli.ConeComplex):
        monkeypatch.setattr(cls, "to_json", no_dict)
    code, env = capture(["subdivide", *[{"P1": p1_fan, "PLANE": plane_fan}.get(a, a) for a in argv]])
    assert (code, env["status"]) == (0, "ok")
    assert env["payload"]["statistics"]["total_max_cells"] > 1


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_fixed_cli_payload_digests(capsys, monkeypatch, tmp_path):
    # The benchmark's fixed-input commands must keep the payload digests it
    # recorded. perfbench/ is only read: no bytecode is written there.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    inputs = importlib.import_module("inputs")
    digests = json.loads((PERFBENCH / "digests.json").read_text())
    monkeypatch.chdir(tmp_path)
    ops = inputs.fixed_cli_ops(str(tmp_path), digests)
    assert sorted(op.name for op in ops) == sorted(digests)
    for op in ops:
        code = main(op.argv)
        env = json.loads(capsys.readouterr().out)
        assert (code, env["status"]) == (0, "ok"), op.name
        assert op.expect(env["payload"]) == [], op.name


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# Fan documents: half of them well formed (valid, overlapping or incomplete
# fans in dimension 1 or 2), half with random JSON at every level.
WELL_FORMED_FANS = st.integers(1, 2).flatmap(
    lambda d: st.fixed_dictionaries(
        {
            "dim": st.just(d),
            "cones": st.lists(
                st.fixed_dictionaries(
                    {"gens": st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d), max_size=3)}
                ),
                max_size=5,
            ),
        },
        optional={"complete": st.booleans()},
    )
)
GENERATORS = JSON_VALUES | st.lists(
    JSON_VALUES | st.lists(st.integers(-3, 3) | JSON_SCALARS, max_size=3), max_size=4
)
CONES = JSON_VALUES | st.lists(JSON_VALUES | st.fixed_dictionaries({"gens": GENERATORS}), max_size=5)
FAN_DOCS = WELL_FORMED_FANS | st.fixed_dictionaries(
    {"dim": st.integers(-1, 3) | JSON_VALUES, "cones": CONES},
    optional={"complete": JSON_VALUES},
)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(FAN_DOCS)
def test_random_fan_documents_give_one_envelope(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fan.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for argv in (
            ["validate-fan", path],
            ["subdivide", "--n", "3", "--sigma", "1,1,-2", "--fan", path],
        ):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            lines = out.getvalue().splitlines()
            assert len(lines) == 1, (argv, doc)
            env = json.loads(lines[0])
            assert env["status"] in troplog.cli.EXIT_CODES, (env, doc)
            assert code == troplog.cli.EXIT_CODES[env["status"]], (env, doc)


@pytest.mark.parametrize(
    "doc",
    [
        {"dim": 0, "cones": []},
        {"dim": -1, "cones": []},
        {"dim": 0, "cones": [{"gens": []}]},
        {"dim": -1, "cones": [{"gens": [[]]}]},
        {"dim": 3, "cones": []},
    ],
)
def test_fan_dimension_outside_one_and_two(capture, tmp_path, doc):
    # A fan of dimension <= 0 got a report of 2-D probes (or, with a cone,
    # another message); every dimension but 1 and 2 gets one refusal.
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(doc))
    for argv in (["validate-fan", str(path)], ["subdivide", "--n", "3", "--sigma", "1,1,-2", "--fan", str(path)]):
        code, env = capture(argv)
        assert (code, env["status"]) == (5, "UnsupportedDimension"), argv
        assert env["payload"]["message"] == f"fans are supported in dimension 1 or 2 only, got {doc['dim']}"


@st.composite
def well_formed_pl_docs(draw):
    """A path tree on vertices 0..k-1 with legs 1..n and integer slopes;
    the slopes need not balance."""
    k, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    return {
        "vertices": list(range(k)),
        "edges": [{"ends": [i, i + 1], "length": draw(st.sampled_from([None, "1", "3/2"]))} for i in range(k - 1)],
        "legs": [{"label": i + 1, "at": draw(st.integers(0, k - 1))} for i in range(n)],
        "basepoint": 0,
        "base_value": draw(st.sampled_from(["0", "c", "1/2"])),
        "edge_slopes": [{"from": i, "to": i + 1, "slope": draw(st.integers(-2, 2))} for i in range(k - 1)],
        "leg_slopes": {str(i + 1): draw(st.integers(-2, 2)) for i in range(n)},
    }


@st.composite
def pl_docs(draw):
    """Half well formed; the other half with one to three fields, list
    entries or entry fields replaced by random JSON or deleted."""
    doc = draw(well_formed_pl_docs())
    if draw(st.booleans()):
        return doc
    for _ in range(draw(st.integers(1, 3))):
        parent = doc
        while True:
            keys = list(range(len(parent))) if isinstance(parent, list) else sorted(parent)
            if not keys:
                break
            key = draw(st.sampled_from(keys))
            if isinstance(parent[key], (list, dict)) and parent[key] and draw(st.booleans()):
                parent = parent[key]
            elif isinstance(parent, dict) and draw(st.booleans()):
                del parent[key]
                break
            else:
                parent[key] = draw(JSON_VALUES)
                break
    return doc


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(pl_docs(), st.lists(st.integers(-2, 2), min_size=1, max_size=4))
def test_random_tree_and_pl_documents_give_one_envelope(doc, sigma):
    # A PL function document is a tree document with more fields, so each
    # document goes to all three commands that read these documents.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for argv in (
            ["validate", path],
            ["extend", path, "--sigma", ",".join(map(str, sigma))],
            ["multidegree", path],
        ):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            lines = out.getvalue().splitlines()
            assert len(lines) == 1, (argv, doc)
            env = json.loads(lines[0])
            assert env["status"] in troplog.cli.EXIT_CODES, (env, doc)
            assert code == troplog.cli.EXIT_CODES[env["status"]], (env, doc)


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """Documents for the argv fuzz test by kind: trees (a good one, a
    disconnected one), a PL function, fans, and the bad ones (a file that
    is not JSON, a path that does not exist)."""
    d = tmp_path_factory.mktemp("argv")
    tree = _tree_doc()
    docs = {
        "tree": {"tree.json": tree, "disconnected.json": _tree_doc(edges=[])},
        "plf": {
            "plf.json": {
                **tree,
                "basepoint": "a",
                "base_value": "c",
                "edge_slopes": [{"from": "a", "to": "b", "slope": 1}],
                "leg_slopes": {"1": 1, "2": -2, "3": 2, "4": -1},
            }
        },
        "fan": {
            "p1.fan": {"dim": 1, "cones": [{"gens": [[1]]}, {"gens": [[-1]]}, {"gens": []}]},
            "plane.fan": {"dim": 2, "cones": [{"gens": g} for g in [[[1, 0], [0, 1]], [[0, 1], [-1, -1]], [[-1, -1], [1, 0]]]]},
            "half.fan": {"dim": 1, "cones": [{"gens": [[1]]}]},
        },
    }
    files = {kind: [] for kind in [*docs, "bad"]}
    for kind, named in docs.items():
        for name, doc in named.items():
            (d / name).write_text(json.dumps(doc))
            files[kind].append(str(d / name))
    (d / "junk.json").write_text("{not json")
    files["bad"] += [str(d / "junk.json"), str(d / "missing.json")]
    return files


# No token can reach --help: neither the flags nor the alphabet of the free
# text hold an "h".  No token is "-", which reads stdin.  Every integer is
# at most 5, and free text only reaches n >= 9, which the size limit refuses.
SMALL_INTS = st.integers(-2, 5).map(str)
ZERO_SUM = st.lists(st.integers(-4, 4), min_size=1, max_size=4).map(lambda xs: [*xs, -sum(xs)])
SIGMAS = (ZERO_SUM | st.lists(st.integers(-4, 4), min_size=1, max_size=5)).map(lambda xs: ",".join(map(str, xs)))
FLAGS = ["--n", "--sigma", "--fan", "--basepoint", "--base-value", "--certify-product", "--r", "--a", "--compose"]
FREE_TEXT = st.text(alphabet="ab019,;/.-x ", max_size=6).filter(lambda t: t != "-")


@st.composite
def argvs(draw, files):
    """A subcommand and its arguments: half well formed (required arguments
    present, optional ones drawn, documents mostly of the right kind), half
    random tokens."""
    any_path = st.sampled_from([p for kind in files.values() for p in kind])

    def paths(kind):
        return st.sampled_from(files[kind]) | any_path

    sigmas = SIGMAS | st.tuples(SIGMAS, SIGMAS).map(";".join)
    values = {
        "--n": SMALL_INTS,
        "--sigma": sigmas,
        "--fan": paths("fan"),
        "--basepoint": st.sampled_from(["a", "b", "0", "zz"]),
        "--base-value": st.sampled_from(["0", "3/2", "c", "1/0", "c +", "x"]),
        "--certify-product": SMALL_INTS,
        "--r": SMALL_INTS,
        "--a": st.sampled_from(["0", "1/2", "c", "x", "1/0"]),
        "--compose": st.tuples(SMALL_INTS | FREE_TEXT, SMALL_INTS | FREE_TEXT),
    }
    # (positional argument or None, required flags, optional flags)
    commands = {
        "validate": (paths("tree"), [], []),
        "extend": (paths("tree"), ["--sigma"], ["--basepoint", "--base-value"]),
        "multidegree": (paths("plf"), [], []),
        "moduli": (None, ["--n"], ["--sigma", "--certify-product"]),
        "subdivide": (None, ["--n", "--sigma", "--fan"], []),
        "validate-fan": (paths("fan"), [], []),
        "selfmap": (None, ["--r"], ["--a", "--compose"]),
    }
    command = draw(st.sampled_from(sorted(commands)))
    if not draw(st.booleans()):
        token = st.sampled_from(FLAGS) | SMALL_INTS | sigmas | any_path | FREE_TEXT
        return [command, *draw(st.lists(token, max_size=6))]
    positional, required, optional = commands[command]
    argv = [command] if positional is None else [command, draw(positional)]
    for flag in required + [f for f in optional if draw(st.booleans())]:
        value = draw(values[flag])
        # --flag=value, so that a value such as -1,1 is not read as a flag.
        argv += [flag, *value] if isinstance(value, tuple) else [f"{flag}={value}"]
    return argv


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(data=st.data())
def test_random_argv_gives_one_envelope(argv_files, data):
    argv = data.draw(argvs(argv_files))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = out.getvalue().splitlines()
    assert len(lines) == 1 and err.getvalue() == "", argv
    env = json.loads(lines[0])
    assert env["status"] in troplog.cli.EXIT_CODES, (env, argv)
    assert code == troplog.cli.EXIT_CODES[env["status"]], (env, argv)
