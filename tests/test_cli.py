"""End-to-end command-line checks, driven through ``main`` directly."""

import json
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import symcurv
from symcurv import (DenseTensor, LinearMap, Metric, NotACurvatureTensor, alpha,
                     canonical_elements, decompose_pure, gamma, tensor_product,
                     verify_identity_table)
from symcurv.cli import COUNT_CAP, main

from helpers import rand_curvature, rand_skew, rand_symmetric, rand_tensor


@pytest.fixture
def curvature_file(tmp_path):
    rng = random.Random(81)
    t = gamma(rand_symmetric(rng, 3)) + alpha(rand_skew(rng, 3))
    path = tmp_path / "curv.json"
    path.write_text(json.dumps(t.to_json_dict()))
    return path, t


def test_identities_all_pass(capsys):
    assert main(["identities"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 12
    assert "FAIL" not in out


def test_identities_json(capsys):
    assert main(["identities", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_pass"] is True
    assert len(payload["checks"]) == 12


def test_identities_corruption_hook(monkeypatch, capsys):
    e = canonical_elements()
    broken = replace(e, alpha_generator=e.alpha_generator.scale(2))
    monkeypatch.setattr("symcurv.cli.verify_identity_table",
                        lambda: verify_identity_table(broken))
    assert main(["identities"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and out.endswith("12 checks: FAILURES above\n")
    assert main(["identities", "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["all_pass"] is False


def test_check_curvature_pass(curvature_file, capsys):
    path, _ = curvature_file
    assert main(["check-curvature", str(path)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "Bianchi defect nonzero entries: 0" in out


def test_check_curvature_fail_names_violation(tmp_path, capsys):
    rng = random.Random(82)
    s = rand_symmetric(rng, 2)
    t = tensor_product(s, s)
    path = tmp_path / "ss.json"
    path.write_text(json.dumps(t.to_json_dict()))
    assert main(["check-curvature", str(path)]) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "antisymmetry in the first index pair" in out


def test_check_curvature_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["check-curvature", str(path)]) == 2
    assert "line 1" in capsys.readouterr().err
    # bytes that are not UTF-8, nesting deeper than the decoder recurses, and
    # a number past the interpreter's limit on integer digits
    for name, data in (("latin.json", b"\xff\xfe{}"), ("deep.json", b"[" * 200_000),
                       ("long.json", b'{"order": 1' + b"0" * 5000 + b', "dim": 2}')):
        path = tmp_path / name
        path.write_bytes(data)
        assert main(["check-curvature", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


def test_check_curvature_missing_file(tmp_path):
    assert main(["check-curvature", str(tmp_path / "nope.json")]) == 2


def test_wrong_order_tensor_is_an_input_error(tmp_path, capsys):
    from symcurv import DenseTensor
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(
        DenseTensor.from_nested([[1, 0], [0, 1]]).to_json_dict()))
    assert main(["check-curvature", str(path)]) == 2
    assert main(["decompose", str(path)]) == 2
    assert "order-4" in capsys.readouterr().err


def test_zero_denominator_is_an_input_error(tmp_path, capsys):
    tensor_path = tmp_path / "t.json"
    tensor_path.write_text(json.dumps({
        "order": 4, "dim": 2,
        "entries": [{"idx": [0, 1, 0, 1], "value": "1/0"}]}))
    assert main(["check-curvature", str(tensor_path)]) == 2
    assert "invalid tensor JSON" in capsys.readouterr().err

    good_tensor = tmp_path / "good.json"
    good_tensor.write_text(json.dumps(
        gamma(Metric.standard(2, 0).tensor()).to_json_dict()))
    metric_path = tmp_path / "g.json"
    metric_path.write_text(json.dumps({"matrix": [["1/0", "0"], ["0", "1"]]}))
    assert main(["osserman", "spectrum", "--tensor", str(good_tensor),
                 "--metric", str(metric_path)]) == 2
    assert "invalid metric JSON" in capsys.readouterr().err


def test_boolean_index_is_an_input_error(tmp_path, capsys):
    from symcurv import DenseTensor
    with pytest.raises(TypeError, match=r"index \(True, 0, 0, 1\)"):
        DenseTensor.from_entries(4, 2, {(True, 0, 0, 1): 1})
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({
        "order": 4, "dim": 2,
        "entries": [{"idx": [True, 0, 0, 1], "value": "1"}]}))
    assert main(["check-curvature", str(path)]) == 2
    assert "invalid tensor JSON" in capsys.readouterr().err


@pytest.mark.parametrize("shape", [
    {"order": 4.9, "dim": True},
    {"order": 4, "dim": 2.5},
])
def test_non_integer_tensor_shape_is_an_input_error(shape, tmp_path, capsys):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps({**shape, "entries": []}))
    assert main(["check-curvature", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "invalid tensor JSON" in err[0]


@pytest.mark.parametrize("payload, field, leak", [
    ({"entries": [{"idx": [0, 1, 0, 1], "value": True}]}, "'value' at index [0, 1, 0, 1]", None),
    ({"entries": [{"idx": [0, 1, 0, 1], "value": 1}, {"idx": [0, 1, 0, 1], "value": "5/2"}]},
     "appears twice", None),
    ({"entries": [{"idx": 5, "value": 1}]}, "'idx' must be a list", "not iterable"),
    ({"entries": {"a": 1}}, "'entries' must be a list", "string indices"),
    ({"entries": [{"idx": [0, 1, 0, 1]}]}, "'value' at index [0, 1, 0, 1]", "'value'\n"),
    ({"entries": [{"idx": [[0], 1, 0, 1], "value": 1}]}, "every entry of 'idx'", "unhashable"),
    ({"entries": [{"idx": [0, 1, 0, 1], "value": None}]}, "'value' at index [0, 1, 0, 1]",
     "Rational instance"),
    ({"entries": None}, "'entries' must be a list", "NoneType"),
    ({"entries": [7]}, "every item of 'entries'", "not subscriptable"),
    ([], "expected a JSON object with 'order'", "list indices"),
    ({"entries": [{"idx": [0, 1, 0, 1], "value": "1/0"}]},
     "'value' at index [0, 1, 0, 1] has a zero denominator", "Fraction(1, 0)"),
    ({"entries": [{"idx": [0, 1, 0, 1], "value": "x"}]}, "'value' at index [0, 1, 0, 1]: ",
     None),
], ids=["bool-value", "repeated-idx", "idx-int", "entries-object", "value-missing",
        "idx-nested", "value-null", "entries-null", "entry-int", "payload-list",
        "value-zero-denominator", "value-not-a-number"])
def test_bad_tensor_entries_are_input_errors(payload, field, leak, tmp_path, capsys):
    """Each malformed field of a tensor file is an input error whose one
    line names the field, not the Python error it used to leak."""
    path = tmp_path / "entries.json"
    if isinstance(payload, dict):
        payload = {"order": 4, "dim": 2, **payload}
    path.write_text(json.dumps(payload))
    assert main(["check-curvature", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: invalid tensor JSON: ") and err.count("\n") == 1
    assert field in err and (leak is None or leak not in err)


@pytest.mark.parametrize("entry, message", [
    ("1/0", "'matrix' entry at row 1, column 0 has a zero denominator: '1/0'"),
    ("x", "'matrix' entry at row 1, column 0: Invalid literal for Fraction: 'x'"),
    (0.5, "'matrix' entry at row 1, column 0 must be an integer or a 'p/q' string"),
    (None, "'matrix' entry at row 1, column 0 must be an integer or a 'p/q' string"),
], ids=["zero-denominator", "not-a-number", "float", "null"])
def test_bad_metric_entries_are_named(entry, message, tmp_path, capsys):
    """A refused matrix entry of a metric file is named by row and column,
    not by the Python error it used to leak."""
    tensor_path = tmp_path / "t.json"
    metric_path = tmp_path / "g.json"
    tensor_path.write_text('{"order": 4, "dim": 2, "entries": []}')
    metric_path.write_text(json.dumps({"matrix": [["1", "0"], [entry, "1"]]}))
    assert main(["osserman", "spectrum", "--tensor", str(tensor_path),
                 "--metric", str(metric_path), "--count", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {metric_path}: invalid metric JSON: {message}")
    assert err.count("\n") == 1 and "Fraction(1, 0)" not in err


def test_non_square_metric_is_refused_before_its_entries(tmp_path, capsys):
    # the long row's "x" is never read, so the shape is what gets reported
    tensor_path = tmp_path / "t.json"
    metric_path = tmp_path / "g.json"
    tensor_path.write_text('{"order": 4, "dim": 2, "entries": []}')
    metric_path.write_text(json.dumps({"matrix": [["1", "0"], ["0", "1", "x"]]}))
    assert main(["osserman", "spectrum", "--tensor", str(tensor_path),
                 "--metric", str(metric_path), "--count", "2"]) == 2
    assert capsys.readouterr().err == (f"error: {metric_path}: invalid metric JSON: "
                                       "matrix must be square and nonempty\n")


@pytest.mark.parametrize("missing", ["tensor", "metric"])
def test_missing_integer_field_is_named(missing, tmp_path, capsys):
    """A tensor file without "order" and a metric file without "p" are
    input errors whose one line names the field, not a bare KeyError."""
    tensor_path = tmp_path / "t.json"
    metric_path = tmp_path / "g.json"
    tensor = {"order": 4, "dim": 2, "entries": []}
    if missing == "tensor":
        del tensor["order"]
    tensor_path.write_text(json.dumps(tensor))
    metric_path.write_text(json.dumps({"q": 0} if missing == "metric" else {"p": 2, "q": 0}))
    assert main(["osserman", "spectrum", "--tensor", str(tensor_path),
                 "--metric", str(metric_path), "--count", "2"]) == 2
    err = capsys.readouterr().err
    path, field = (tensor_path, "'order'") if missing == "tensor" else (metric_path, "'p'")
    assert err == f"error: {path}: invalid {missing} JSON: missing integer field {field}\n"


@pytest.mark.parametrize("signature", [{"p": 3.7, "q": 0}, {"p": 3, "q": False}])
def test_non_integer_metric_signature_is_an_input_error(signature, tmp_path,
                                                        capsys):
    # the tensor matches the truncated (3, 0) reading, so only the type check
    # can refuse the metric
    tensor_path = tmp_path / "t.json"
    metric_path = tmp_path / "g.json"
    tensor_path.write_text('{"order": 4, "dim": 3, "entries": []}')
    metric_path.write_text(json.dumps(signature))
    assert main(["osserman", "spectrum", "--tensor", str(tensor_path),
                 "--metric", str(metric_path), "--count", "2"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "invalid metric JSON" in err[0]


def test_metric_matrix_of_strings_is_an_input_error(tmp_path, capsys):
    # ["12", "21"] used to load as [[1, 2], [2, 1]], a metric of dimension 2
    tensor_path = tmp_path / "t.json"
    metric_path = tmp_path / "g.json"
    tensor_path.write_text('{"order": 4, "dim": 2, "entries": []}')
    metric_path.write_text(json.dumps({"matrix": ["12", "21"]}))
    assert main(["osserman", "spectrum", "--tensor", str(tensor_path),
                 "--metric", str(metric_path), "--count", "2"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "invalid metric JSON" in err[0]


@pytest.mark.parametrize("extra", [{"p": 1}, {"q": 0}, {"p": 2, "q": 0}])
def test_metric_with_matrix_and_signature_is_an_input_error(extra, tmp_path, capsys):
    # "matrix" used to win and "p"/"q" were ignored, even where they disagree
    tensor_path = tmp_path / "t.json"
    metric_path = tmp_path / "g.json"
    tensor_path.write_text('{"order": 4, "dim": 2, "entries": []}')
    metric_path.write_text(json.dumps({"matrix": [["1", "0"], ["0", "1"]], **extra}))
    assert main(["osserman", "spectrum", "--tensor", str(tensor_path),
                 "--metric", str(metric_path), "--count", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "invalid metric JSON" in err[0] and "not both" in err[0]


@pytest.mark.parametrize("mode", ["mixed", "gamma", "alpha"])
def test_decompose_round_trips(curvature_file, tmp_path, capsys, mode):
    path, t = curvature_file
    out_path = tmp_path / f"dec-{mode}.json"
    assert main(["decompose", str(path), "--mode", mode,
                 "--out", str(out_path)]) == 0
    assert "reconstruction exact: yes" in capsys.readouterr().out
    payload = json.loads(out_path.read_text())
    assert payload["reconstruction_exact"] is True
    if mode == "gamma":
        assert all(term["map"] == "gamma" for term in payload["terms"])
    if mode == "alpha":
        assert all(term["map"] == "alpha" for term in payload["terms"])
    from symcurv import CurvatureDecomposition
    assert CurvatureDecomposition.from_json_dict(payload).reconstruct() == t


@pytest.mark.parametrize("mode", ["mixed", "gamma", "alpha"])
def test_decompose_self_check_does_not_rebuild(curvature_file, tmp_path, monkeypatch, mode):
    # the self-check compares curvature operators, so nothing calls reconstruct
    from symcurv import CurvatureDecomposition
    calls = []
    original = CurvatureDecomposition.reconstruct

    def counting(self):
        calls.append(self.kind)
        return original(self)

    monkeypatch.setattr(CurvatureDecomposition, "reconstruct", counting)
    path, _ = curvature_file
    assert main(["decompose", str(path), "--mode", mode,
                 "--out", str(tmp_path / "dec.json")]) == 0
    assert len(calls) == 0


def test_decompose_to_stdout(curvature_file, capsys):
    path, _ = curvature_file
    assert main(["decompose", str(path), "--mode", "alpha"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "pure-alpha"


@pytest.mark.parametrize("target", ["missing/dec.json", "."])
def test_decompose_unwritable_out_is_an_input_error(target, curvature_file,
                                                     tmp_path, capsys):
    path, _ = curvature_file
    out = tmp_path / target  # a missing directory, or a directory itself
    assert main(["decompose", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {out}: ")
    assert captured.out == ""


def test_decompose_rejects_non_curvature(tmp_path, capsys):
    rng = random.Random(83)
    t = rand_tensor(rng, 4, 2)
    path = tmp_path / "generic.json"
    path.write_text(json.dumps(t.to_json_dict()))
    assert main(["decompose", str(path), "--mode", "mixed"]) == 3
    assert "curvature" in capsys.readouterr().err


def test_schur_lr_output(capsys):
    assert main(["schur", "lr", "2", "1,1"]) == 0
    assert capsys.readouterr().out.strip() == "3,1 + 2,1,1"


def test_schur_plethysm_outputs(capsys):
    assert main(["schur", "plethysm", "sym2", "2"]) == 0
    assert capsys.readouterr().out.strip() == "4 + 2,2"
    assert main(["schur", "plethysm", "alt2", "2"]) == 0
    assert capsys.readouterr().out.strip() == "2,2 + 1,1,1,1"
    assert main(["schur", "plethysm", "sym2", "3"]) == 0
    assert capsys.readouterr().out.strip() == "6 + 4,2 + 2,2,2"


def test_schur_bad_partition(capsys):
    assert main(["schur", "lr", "1,2", "1"]) == 2
    assert "partition" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["0_3", "+3", "\u0661", "3, -1"],
                         ids=["underscore", "plus", "arabic-indic", "minus"])
def test_schur_partition_text_takes_ascii_digits_only(text, capsys):
    # "0_3" used to print "4 + 3,1" with exit 0
    assert main(["schur", "lr", text, "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: bad partition {text!r}: expected ASCII digits "
                            f"joined by commas, got {text!r}\n")


@pytest.mark.parametrize("argv", [
    ["schur", "lr", "9", "1"],
    ["schur", "plethysm", "sym2", "7"],
    ["schur", "plethysm", "sym2", "0"],
])
def test_schur_out_of_range_is_an_input_error(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: schur ")
    assert err.count("\n") == 1  # one line, no traceback


def test_schur_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["schur", "frobenius", "2"])
    assert exc.value.code == 2


def test_osserman_spectrum_files(tmp_path, capsys):
    g = Metric.standard(2, 2)
    t = gamma(g.tensor()).scale(3)
    tensor_path = tmp_path / "t.json"
    metric_path = tmp_path / "g.json"
    tensor_path.write_text(json.dumps(t.to_json_dict()))
    metric_path.write_text(json.dumps(g.to_json_dict()))
    assert main(["osserman", "spectrum", "--tensor", str(tensor_path),
                 "--metric", str(metric_path), "--sign", "-",
                 "--count", "6", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "constant across samples: yes" in out


def test_osserman_spectrum_seed_reproducible(tmp_path, capsys):
    g = Metric.standard(4, 0)
    from symcurv import clifford_family, quaternion_triple
    t = clifford_family(2, [1], [quaternion_triple()[0]], g)
    tensor_path = tmp_path / "t.json"
    metric_path = tmp_path / "g.json"
    tensor_path.write_text(json.dumps(t.to_json_dict()))
    metric_path.write_text(json.dumps(g.to_json_dict()))
    argv = ["osserman", "spectrum", "--tensor", str(tensor_path),
            "--metric", str(metric_path), "--count", "5", "--seed", "7",
            "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second  # byte-identical for a fixed seed


def test_osserman_spectrum_of_a_generic_tensor_says_no(tmp_path):
    # a tensor that is not Osserman: past the root 0, the scaled
    # characteristic polynomials end in constants of 35 to 126 bits.  Run
    # in a fresh process, so a root search that does not end fails here
    # instead of stalling the suite.
    tensor_path = tmp_path / "t.json"
    metric_path = tmp_path / "g.json"
    tensor_path.write_text(json.dumps(rand_curvature(random.Random(2), 4, 2).to_json_dict()))
    metric_path.write_text(json.dumps({"p": 4, "q": 0}))
    source = str(Path(symcurv.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [source, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "symcurv.cli", "osserman", "spectrum",
         "--tensor", str(tensor_path), "--metric", str(metric_path), "--count", "3"],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 1, done.stderr
    assert "constant across samples: NO" in done.stdout
    assert "unfactored degree 3" in done.stdout


def test_osserman_spectrum_on_a_scaled_metric(tmp_path, capsys):
    # no diagonal entry of 2*I_6 is 1, so sampling needs a searched anchor
    g = Metric([[2 * (i == j) for j in range(6)] for i in range(6)])
    tensor_path = tmp_path / "t.json"
    metric_path = tmp_path / "g.json"
    tensor_path.write_text(json.dumps(gamma(g.tensor()).to_json_dict()))
    metric_path.write_text(json.dumps(g.to_json_dict()))
    assert main(["osserman", "spectrum", "--tensor", str(tensor_path),
                 "--metric", str(metric_path), "--count", "3"]) == 0
    out = capsys.readouterr().out
    assert "x = (1/2, 1/2, 0, 0, 0, 0)" in out
    assert "constant across samples: yes" in out


def test_osserman_spectrum_refuses_a_non_curvature_tensor_like_decompose(tmp_path,
                                                                       capsys):
    not_curv = DenseTensor.from_entries(4, 2, {(0, 0, 0, 0): 1})
    with pytest.raises(NotACurvatureTensor) as refused:
        decompose_pure(not_curv, "alpha")
    tensor_path, metric_path = tmp_path / "t.json", tmp_path / "g.json"
    tensor_path.write_text(json.dumps(not_curv.to_json_dict()))
    metric_path.write_text(json.dumps({"p": 2, "q": 0}))
    assert main(["osserman", "spectrum", "--tensor", str(tensor_path),
                 "--metric", str(metric_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {refused.value}\n"


_SPECTRUM_REFUSALS = [
    pytest.param(3, {"p": 4, "q": 0}, 2,
                 "tensor dimension 3 does not match metric dimension 4",
                 id="tensor and metric of different dimensions"),
]


@pytest.mark.parametrize("dim, metric, code, fragment", _SPECTRUM_REFUSALS)
def test_osserman_spectrum_refusals(dim, metric, code, fragment, tmp_path, capsys):
    tensor_path, metric_path = tmp_path / "t.json", tmp_path / "g.json"
    tensor_path.write_text(json.dumps(rand_curvature(random.Random(4), dim).to_json_dict()))
    metric_path.write_text(json.dumps(metric))
    assert main(["osserman", "spectrum", "--tensor", str(tensor_path),
                 "--metric", str(metric_path), "--count", "2"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and fragment in err[0]


def test_osserman_nilpotent_ok(capsys):
    assert main(["osserman", "nilpotent", "--kind", "skew",
                 "--p", "2", "--q", "2"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_osserman_nilpotent_infeasible_signature(capsys):
    assert main(["osserman", "nilpotent", "--kind", "sym",
                 "--p", "0", "--q", "2"]) == 4
    assert "definite" in capsys.readouterr().err
    assert main(["osserman", "nilpotent", "--kind", "skew",
                 "--p", "1", "--q", "3"]) == 4


def test_osserman_lorentz(capsys):
    assert main(["osserman", "lorentz", "--q", "2", "--trials", "10"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "(exact: T == 0): PASS" in out and "samples" not in out
    # J == 0 is decided exactly, so there is no sample count to pass
    with pytest.raises(SystemExit) as exc:
        main(["osserman", "lorentz", "--q", "2", "--samples", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --samples 5" in capsys.readouterr().err


def test_osserman_demo_clifford(capsys):
    assert main(["osserman", "demo", "--family", "clifford",
                 "--l0", "2", "--l1", "1"]) == 0
    out = capsys.readouterr().out
    assert "constant across samples: yes" in out
    assert "-1" in out and "2" in out  # spectrum {0, 2, -1}


def test_osserman_demo_nilpotent_families(capsys):
    assert main(["osserman", "demo", "--family", "nilpotent-gamma"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["osserman", "demo", "--family", "nilpotent-alpha"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_osserman_demo_help_names_the_family_of_each_option(capsys):
    # the nilpotent families ignore --l0, --l1 and --count, the clifford
    # family --samples; the help says so instead of staying silent
    with pytest.raises(SystemExit) as exc:
        main(["osserman", "demo", "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    for option, family in (("--l0 L0", "clifford"), ("--l1 L1", "clifford"),
                           ("--count COUNT", "clifford"), ("--samples SAMPLES", "nilpotent")):
        assert re.search(f"{option} [^-]*read by the {family} famil", out), option


def test_osserman_demo_negative_fractions_after_a_space(capsys):
    assert main(["osserman", "demo", "--l0", "-4/3", "--l1", "-1/2",
                 "--json"]) == 0
    spaced = capsys.readouterr().out
    assert main(["osserman", "demo", "--l0=-4/3", "--l1=-1/2", "--json"]) == 0
    assert capsys.readouterr().out == spaced


@pytest.mark.parametrize("argv", [
    ["osserman", "demo", "--l0", "1/0"],
    ["osserman", "demo", "--l1=1/0"],
    ["osserman", "demo", "--l0", "two"],
])
def test_osserman_demo_bad_fraction_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "expected a fraction" in capsys.readouterr().err


def test_osserman_demo_json(capsys):
    assert main(["osserman", "demo", "--family", "clifford", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["constant"] is True
    assert payload["all_rational"] is True


def test_oversized_tensor_is_refused_before_allocation(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"order": 4, "dim": 1000000, "entries": []}')
    assert main(["check-curvature", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "cap" in err[0]


@pytest.mark.parametrize("argv", [
    ["osserman", "nilpotent", "--p", str(10 ** 18), "--q", "2"],
    ["osserman", "nilpotent", "--kind", "skew", "--p", "2", "--q", str(10 ** 18)],
    ["osserman", "lorentz", "--q", str(10 ** 18)],
    ["osserman", "spectrum", "--tensor", "t.json", "--metric", "g.json"],
])
def test_oversized_metric_is_refused_before_allocation(argv, tmp_path,
                                                       monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.json").write_text('{"order": 4, "dim": 2, "entries": []}')
    (tmp_path / "g.json").write_text(json.dumps({"p": 10 ** 18, "q": 0}))
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "cap" in err[0]


def test_negative_signature_is_an_input_error(capsys):
    assert main(["osserman", "nilpotent", "--p", "-1", "--q", "2"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("argv", [
    ["osserman", "spectrum", "--tensor", "t.json", "--metric", "g.json",
     "--count", "0"],
    ["osserman", "demo", "--count", "-3"],
    ["osserman", "demo", "--samples", "0"],
    ["osserman", "nilpotent", "--p", "2", "--q", "2", "--samples", "-1"],
    ["osserman", "lorentz", "--q", "2", "--trials", "-1"],
    ["osserman", "lorentz", "--q", "2", "--trials", "0"],
    ["osserman", "lorentz", "--q", "0"],
])
def test_nonpositive_counts_are_input_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "expected a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["osserman", "spectrum", "--tensor", "t.json", "--metric", "g.json",
     "--count", "10000000"],
    ["osserman", "nilpotent", "--p", "2", "--q", "2", "--samples", "100000000"],
    ["osserman", "demo", "--count", "10001"],
    ["osserman", "demo", "--family", "nilpotent-alpha", "--samples", "10001"],
    ["osserman", "lorentz", "--q", "2", "--trials", "10001"],
    ["osserman", "lorentz", "--q", "2", "--trials", str(10 ** 18)],
])
def test_oversized_counts_are_input_errors(argv, capsys):
    # refused by argparse, before any sampling starts
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"at most the cap {COUNT_CAP}" in capsys.readouterr().err


def test_count_cap_itself_is_accepted(capsys):
    assert main(["osserman", "nilpotent", "--p", "1", "--q", "1",
                 "--samples", str(COUNT_CAP), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["samples"] == COUNT_CAP


def test_huge_decimal_exponents_are_input_errors(tmp_path):
    # 10**300000000 would take minutes to build; both refusals come at once.
    # Run in a fresh process, so a regression fails here instead of stalling.
    path = tmp_path / "t.json"
    path.write_text('{"order":4,"dim":2,"entries":[{"idx":[0,1,0,1],"value":"1e300000000"}]}')
    source = str(Path(symcurv.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [source, os.environ.get("PYTHONPATH")]))}
    for argv in (["check-curvature", str(path)], ["osserman", "demo", "--l0=1e999999999"]):
        done = subprocess.run([sys.executable, "-m", "symcurv.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr
        assert sum("error:" in line for line in done.stderr.splitlines()) == 1


def _digit_limit_tensor() -> dict:
    """``alpha(E12 - E21)`` scaled so that every entry has 4300 digits, the
    interpreter's limit for integer string conversion: the file reads, but
    its decomposition holds longer numbers."""
    a = LinearMap([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    return alpha(a).scale(Fraction(15 * 10 ** 4299, 2)).to_json_dict()


@pytest.mark.parametrize("argv, code", [
    (["osserman", "demo", "--l0=1e4300"], 2),
    (["osserman", "demo", "--l0=1e4300", "--json"], 2),
    (["decompose", "big.json"], 2),
    (["decompose", "big.json", "--out", "dec.json"], 2),
    (["check-curvature", "missing.json", "--json"], 2),
    (["decompose", "generic.json"], 3),
    (["osserman", "nilpotent", "--p", "0", "--q", "2", "--json"], 4),
])
def test_error_exits_print_one_line_and_no_report(argv, code, tmp_path, monkeypatch,
                                                  capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "big.json").write_text(json.dumps(_digit_limit_tensor()))
    (tmp_path / "generic.json").write_text(
        json.dumps(rand_tensor(random.Random(83), 4, 2).to_json_dict()))
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not (tmp_path / "dec.json").exists()
    if "big.json" in argv or "--l0=1e4300" in argv:
        assert "4300 digits" in err[0]


def test_digit_limit_tensor_is_readable(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(_digit_limit_tensor()))
    assert main(["check-curvature", str(path)]) == 0
    assert capsys.readouterr().out.endswith("\nPASS\n")


def test_other_value_errors_propagate(monkeypatch):
    def fail():
        raise ValueError("not a digit limit")

    monkeypatch.setattr("symcurv.cli.verify_identity_table", fail)
    with pytest.raises(ValueError, match="not a digit limit"):
        main(["identities"])


@pytest.mark.parametrize("argv", [
    ["identities"],
    ["check-curvature", "t.json"],
    ["schur", "lr", "2", "1"],
    ["schur", "plethysm", "alt2", "2"],
    ["osserman", "spectrum", "--tensor", "t.json", "--metric", "g.json", "--count", "2"],
    ["osserman", "nilpotent", "--p", "1", "--q", "1", "--samples", "2"],
    ["osserman", "lorentz", "--q", "1", "--trials", "2"],
    ["osserman", "demo", "--count", "2"],
    ["decompose", "t.json"],
], ids=lambda argv: " ".join(argv[:2]))
def test_json_flag_on_every_reporting_command(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.json").write_text(json.dumps(rand_curvature(random.Random(4), 3).to_json_dict()))
    (tmp_path / "g.json").write_text(json.dumps({"p": 3, "q": 0}))
    if argv[0] == "decompose":  # writes JSON only, so it takes no --json
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--json"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --json" in capsys.readouterr().err
        return
    assert main(argv + ["--json"]) in (0, 1)
    assert isinstance(json.loads(capsys.readouterr().out), dict)
