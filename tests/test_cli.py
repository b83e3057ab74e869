import contextlib
import io
import itertools
import json
import os
import subprocess
import sys

import pytest

import stellar
from stellar.cli import main
from stellar.io import complex_to_json, dumps, structure_to_json
from stellar import standard_sphere, subdivide


def run(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old
    return code, out.getvalue(), err.getvalue()


CIRCLE = '{"generators": [[1, 2], [1, 3], [2, 3]]}'
S3 = dumps(complex_to_json(standard_sphere(3)))


def test_chi():
    code, out, err = run(["chi", "-"], CIRCLE)
    assert code == 0 and err == ""
    assert json.loads(out) == {"chi": 0}


def test_boundary_of_triangle_is_circle():
    code, out, _ = run(["boundary", "-"], '{"generators": [[1, 2, 3]]}')
    assert code == 0
    assert json.loads(out) == {"generators": [[1, 2], [1, 3], [2, 3]]}


def test_subdivide_then_weld_round_trips():
    code, sub_out, _ = run(["subdivide", "-", "1,2", "4"], CIRCLE)
    assert code == 0
    assert json.loads(sub_out) == {
        "generators": [[1, 3], [1, 4], [2, 3], [2, 4]]
    }
    code, weld_out, _ = run(["weld", "-", "1,2", "4"], sub_out)
    assert code == 0
    assert json.loads(weld_out) == json.loads(CIRCLE)


def test_pipe_composition_is_stable():
    _, lens_out, _ = run(["lens", "5", "1"])
    code, deg_out, _ = run(["degree", "-"], lens_out)
    assert code == 0
    assert json.loads(deg_out) == {"degree": [5, 2]}
    code, h1_out, _ = run(["h1", "-"], lens_out)
    assert code == 0
    assert json.loads(h1_out) == {"group": "Z/5", "rank": 0, "torsion": [5]}


def test_check_reports_bad_vertex():
    code, out, _ = run(["check", "-"], '{"generators": [[1, 2, 3], [1, 4, 5]]}')
    assert code == 0
    data = json.loads(out)
    assert data["is_manifold"] is False
    assert data["bad_vertices"] == [1]


def test_check_counts_certificates():
    # every vertex link of a subdivided 4-sphere is a 3-sphere certified by
    # collapse; the bow-tie's links are graphs, decided exactly
    s4 = dumps(complex_to_json(subdivide(standard_sphere(4), (1, 2), 7)))
    code, out, _ = run(["check", "-"], s4)
    assert code == 0
    assert json.loads(out)["certificates"] == {"exact": 0, "collapse": 7, "null": 0}
    code, out, _ = run(["check", "-"], '{"generators": [[1, 2, 3], [1, 4, 5]]}')
    assert code == 0
    assert json.loads(out)["certificates"] == {"exact": 5, "collapse": 0, "null": 0}


def test_check_takes_no_budget():
    # recognition runs no search, so only the structure build takes a budget
    code, out, err = run(["check", "-", "--budget", "5"], S3)
    assert code == 2 and out == ""
    assert json.loads(err)["kind"] == "parse"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sphere-check", "--budget", "abc", "-"], "--budget must be an integer, got 'abc'"),
        (["structure", "-", "--budget", "1.5"], "--budget must be an integer, got '1.5'"),
        (["chi"], None),
        (["frobnicate", "-"], None),
        (["check", "-", "--budget", "5"], None),
        (["subdivide", "-", "1,2", "x"], None),
        (["lens", "5"], None),
        (["subdivide", "-", "", "5"], "expected comma-separated integers, got ''"),
        ([], None),
    ],
)
def test_a_malformed_argument_is_a_json_parse_error(argv, message):
    # argparse's own usage text and exit never reach the caller: each
    # malformed argument is one JSON error on stderr, as a malformed file is
    code, out, err = run(argv, S3)
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["kind"] == "parse"
    if message is not None:
        assert error["error"] == message


def test_sphere_check_leaves_the_poincare_structure_undecided(tmp_path, poincare_structure):
    path = tmp_path / "poincare.json"
    path.write_text(dumps(structure_to_json(poincare_structure)))
    code, out, err = run(["sphere-check", str(path)])
    assert code == 0 and err == ""
    assert json.loads(out)["conclusion"] == "undecided: H1 = 0 and the quotient does not collapse"


@pytest.mark.parametrize("argv", [["-h"], ["sphere-check", "-h"], ["lens", "-h"]])
def test_help_returns_zero(argv):
    # argparse's help action exits the process; main returns instead
    code, out, err = run(argv)
    assert code == 0 and err == ""
    assert out.startswith("usage: stellar")


def test_structure_then_degree():
    code, s_out, _ = run(["structure", "-"], S3)
    assert code == 0
    code, deg_out, _ = run(["degree", "-"], s_out)
    assert code == 0
    assert json.loads(deg_out) == {"degree": [3, 2]}


def test_sphere_check_conclusion():
    code, out, _ = run(["sphere-check", "-"], S3)
    assert code == 0
    data = json.loads(out)
    assert data["conclusion"] == "sphere"
    assert data["degree"] == [3, 2]
    assert any("absorption steps" in line for line in data["evidence"])


def test_sphere_check_refuses_lens():
    _, lens_out, _ = run(["lens", "5", "2"])
    code, out, _ = run(["sphere-check", "-"], lens_out)
    assert code == 0
    assert json.loads(out)["conclusion"] == "not a sphere: H1 = Z/5"


# the square folded along its diagonal: a flat structure over a circle
FOLDED_SQUARE = json.dumps({
    "apex": 9,
    "sphere": {"generators": [[1, 2], [2, 3], [3, 4], [1, 4]]},
    "equivalence": {
        "vertex_classes": [[2, 4]],
        "generator_pairs": [[[1, 2], [1, 4]], [[2, 3], [3, 4]]],
    },
})
REFUSAL = {"error": "structure needs a uniform 2-complex as its sphere", "kind": "domain"}


def test_sphere_check_refuses_a_structure_over_a_circle():
    # the tetrahedron boundary's structure, which is not flat, and the
    # folded square, which is
    _, circle, _ = run(["structure", "-"], '{"generators": [[1,2,3],[1,2,4],[1,3,4],[2,3,4]]}')
    for structure in (circle, FOLDED_SQUARE):
        code, out, err = run(["sphere-check", "-"], structure)
        assert code == 1 and out == ""
        assert json.loads(err) == REFUSAL


def test_classify_refuses_a_structure_over_a_circle():
    # the surface classifier would name the folded square's 1-dimensional
    # quotient "Other", for an isolated vertex cell
    code, out, err = run(["classify", "-"], FOLDED_SQUARE)
    assert code == 1 and out == ""
    assert json.loads(err) == REFUSAL


def test_gamma_refuses_a_structure_over_two_points():
    # the triangle's structure has a 0-sphere, which has no edge classes
    _, points, _ = run(["structure", "-"], '{"generators": [[1, 2], [2, 3], [1, 3]]}')
    code, out, err = run(["gamma", "-"], points)
    assert code == 1 and out == ""
    assert json.loads(err) == REFUSAL


def test_sphere_check_refuses_disjoint_spheres():
    two = {"generators": [list(g) for s in (range(1, 6), range(6, 11))
                          for g in itertools.combinations(s, 4)]}
    code, out, err = run(["sphere-check", "-"], json.dumps(two))
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "input must be connected", "kind": "domain"}


def test_classify_fold_quotient(tmp_path):
    _, lens_out, _ = run(["lens", "2", "1"])
    code, out, _ = run(["classify", "-"], lens_out)
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "ProjectivePlane"
    assert data["chi"] == 1


def test_gamma_writes_dot(tmp_path):
    _, lens_out, _ = run(["lens", "3", "1"])
    dot_file = tmp_path / "gamma.dot"
    code, out, _ = run(["gamma", "-", "--dot", str(dot_file)], lens_out)
    assert code == 0
    data = json.loads(out)
    assert data["has_circuit"] is True
    text = dot_file.read_text()
    assert text.startswith("graph gamma {")


def test_gamma_reports_an_unwritable_dot_file_as_json(tmp_path):
    _, lens_out, _ = run(["lens", "3", "1"])
    dot_file = tmp_path / "missing" / "gamma.dot"
    code, out, err = run(["gamma", "-", "--dot", str(dot_file)], lens_out)
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["kind"] == "parse"
    assert error["error"].startswith(f"cannot write {dot_file}")


def test_collapse_triangle():
    code, out, _ = run(["collapse", "-"], '{"generators": [[1, 2, 3]]}')
    assert code == 0
    data = json.loads(out)
    assert data["collapsible"] is True
    assert data["residue"] == {"generators": [[3]]}


def test_prism_verb():
    code, out, _ = run(["prism", "-"], '{"generators": [[1, 2]]}')
    assert code == 0
    assert json.loads(out) == {"generators": [[1, 2, 12], [1, 11, 12]]}


def test_parse_error_exit_code_two(tmp_path):
    # malformed JSON, a file that is not UTF-8, and nesting too deep to decode
    undecodable = tmp_path / "undecodable.json"
    undecodable.write_bytes(b"\xff{")
    for argv, stdin in [
        (["chi", "-"], "{not json"),
        (["chi", str(undecodable)], ""),
        (["chi", "-"], "[" * 100_000),
    ]:
        code, out, err = run(argv, stdin)
        assert code == 2 and out == ""
        assert json.loads(err)["kind"] == "parse"


def test_a_negative_budget_is_a_parse_error():
    # a budget below 0 is refused before the input is read; 0 caps the walk
    for verb in ("sphere-check", "structure"):
        code, out, err = run([verb, "-", "--budget", "-3"], S3)
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "--budget must be at least 0, got -3", "kind": "parse"}
        code, out, err = run([verb, "-", "--budget", "0"], S3)
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "structure build exceeded 0 steps", "kind": "domain"}


def test_domain_error_exit_code_one():
    code, out, err = run(["lens", "4", "2"])
    assert code == 1 and out == ""
    assert "error" in json.loads(err)


def test_closed_stdout_exits_141_without_traceback():
    # the read end is closed before the child starts, so its write always
    # meets a broken pipe, as `stellar lens 257 3 | head -c 10` can
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(stellar.__file__)))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "stellar", "lens", "5", "1"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_file_input(tmp_path):
    f = tmp_path / "circle.json"
    f.write_text(CIRCLE)
    code, out, _ = run(["chi", str(f)])
    assert code == 0
    assert json.loads(out) == {"chi": 0}


def test_one_parser_serves_verbs_in_turn(tmp_path):
    # the parser is built once per process, so no option of one call may
    # reach the next: a --budget or a --dot given once is not seen again
    assert stellar.cli._build_parser() is stellar.cli._build_parser()
    code, _, err = run(["sphere-check", "-", "--budget", "1"], S3)
    assert code == 1
    assert "exceeded" in json.loads(err)["error"]
    code, out, _ = run(["sphere-check", "-"], S3)
    assert code == 0
    assert json.loads(out)["conclusion"] == "sphere"
    _, lens_out, _ = run(["lens", "5", "1"])
    dot = tmp_path / "gamma.dot"
    assert run(["gamma", "-", "--dot", str(dot)], lens_out)[0] == 0
    dot.unlink()
    code, out, _ = run(["gamma", "-"], lens_out)
    assert code == 0 and json.loads(out)["has_circuit"] is not None
    assert not dot.exists()
