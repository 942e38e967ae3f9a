"""Every workload check accepts the real output and rejects a corrupted one.

Each test builds a workload's operation list, runs its cheaper operations
once, and feeds the check both the true result and a result corrupted on
purpose (a flipped term sign, a wrong multiplicity, a symmetrizer scaled
by 2, ...).  A check that passed a corrupted result would let the
benchmark count wrong answers as work.

    python3 -m pytest perfbench/test_oracles.py
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import symcurv as sc  # noqa: E402
import symcurv.cli  # noqa: E402,F401
import oracles  # noqa: E402
import workloads  # noqa: E402


def _live(kind: str, matrix: list) -> bool:
    """Whether the term contributes: gamma(S) = 0 exactly when rank S <= 1,
    alpha(A) = 0 only when A = 0."""
    n = len(matrix)
    if kind == "alpha":
        return any(any(row) for row in matrix)
    return any(matrix[i][j] * matrix[k][l] != matrix[i][l] * matrix[k][j]
               for i in range(n) for j in range(n) for k in range(n) for l in range(n))


def _flip_live_sign(dec):
    """Flip the sign of the first term whose map is nonzero (a term with a
    zero map can change sign without changing the sum)."""
    for field, kind in (("gamma_terms", "gamma"), ("alpha_terms", "alpha")):
        terms = list(getattr(dec, field))
        for i, term in enumerate(terms):
            if _live(kind, term.matrix.to_nested()):
                terms[i] = term._replace(sign=-term.sign)
                return dataclasses.replace(dec, **{field: tuple(terms)})
    raise AssertionError("decomposition without a live term")


def _wrong_multiplicity(report):
    (root, mult), *rest = report.roots[0]
    return dataclasses.replace(report, roots=(((root, mult + 1), *rest),) + report.roots[1:])


def _off_sphere(report):
    first = tuple(2 * v for v in report.samples[0])
    return dataclasses.replace(report, samples=(first,) + report.samples[1:])


def _bumped_lr(result):
    (part, mult), *rest = result.items()
    return sc.SchurSum([(part, mult + 1), *rest])


def _extra_term(elem):
    ident = sc.Permutation.identity(elem.degree)
    return elem + sc.GroupRingElement(elem.degree, {ident: 1})


def _failing_table(report):
    line = dataclasses.replace(report.lines[0], passed=False)
    return dataclasses.replace(report, lines=(line,) + report.lines[1:])


def _corruptions(label: str):
    """Corrupted variants of a result, by the kind of operation."""
    if label.startswith("check_curvature rejected"):
        return [lambda r: dataclasses.replace(r, direct_ok=True, young_ok=True, first_violation=None),
                lambda r: dataclasses.replace(r, first_violation="pair-exchange symmetry"
                                              if r.first_violation != "pair-exchange symmetry"
                                              else "first Bianchi identity"),
                lambda r: dataclasses.replace(r, bianchi_nonzero=r.bianchi_nonzero + 1)]
    if label.startswith("check_curvature"):
        return [lambda r: dataclasses.replace(r, young_ok=False),
                lambda r: dataclasses.replace(r, bianchi_nonzero=1)]
    if label.startswith("decompose"):
        return [_flip_live_sign,
                lambda d: dataclasses.replace(d, gamma_terms=(), alpha_terms=d.alpha_terms[:1])]
    if label.startswith("clifford_family"):
        return [lambda t: t.scale(2)]
    if label.startswith("spectrum"):
        return [_wrong_multiplicity, _off_sphere]
    if label.startswith(("young_symmetrizer", "y*y", "derivative_idempotent", "e*e")):
        return [lambda y: y.scale(2), _extra_term]
    if label.startswith("solve_right_factor"):
        return [_extra_term, lambda x: None]
    if label == "verify_identity_table":
        return [_failing_table]
    if label.startswith("lr_product"):
        return [_bumped_lr]
    raise AssertionError(f"no corruption for {label}")


#: Operations skipped here because they take seconds; every kind of check
#: still runs on a cheaper operation of the same kind.
SLOW = {"decompose": ("n=4", "n=5", "n=6"), "spectra": ("n=8", "p=3", "p=4"),
        "group_ring": ("r=6", "u=2", "u=3", "solve_right_factor r=5")}


def _run(op):
    try:
        return op.call(), None
    except Exception as exc:  # noqa: BLE001
        return None, exc


@pytest.mark.parametrize("workload", ["decompose", "spectra", "group_ring"])
def test_library_workload_checks_catch_corruption(workload, tmp_path):
    ops = workloads.BUILDERS[workload](sc, random.Random(f"{workload}/7"), tmp_path)
    tried = 0
    for op in ops:
        if any(marker in op.label for marker in SLOW[workload]):
            continue
        result, error = _run(op)
        assert op.check(result, error) is None, op.label
        if "rejected" in op.label and op.label.startswith("decompose"):
            assert op.check(None, None) is not None, "a decomposition of a non-curvature input passed"
            assert op.check(None, ValueError("other")) is not None
            continue
        assert op.check(None, RuntimeError("boom")) is not None, op.label
        for corrupt in _corruptions(op.label):
            assert op.check(corrupt(result), None) is not None, f"{op.label}: corruption passed"
        tried += 1
    assert tried >= 10


def _cli_corruptions(label: str, result):
    payload = json.loads(result.stdout) if result.stdout.lstrip().startswith("{") else None
    yield result._replace(code=1)
    if label.startswith("decompose"):
        return
    if label == "identities":
        payload["checks"][3]["pass"] = False
    elif label.startswith("check-curvature"):
        payload["bianchi_nonzero"] = 2
    elif label.startswith("schur lr"):
        payload["terms"][0]["multiplicity"] += 1
    else:
        payload["roots"][0][0]["multiplicity"] += 1
    yield result._replace(stdout=json.dumps(payload))


def test_cli_checks_catch_corruption(tmp_path):
    ops = workloads.build_cli(sc, random.Random("cli/7"), tmp_path, in_process=True)
    for op in ops:
        if op.label.endswith("n=4") and op.label.startswith("decompose"):
            continue
        result, error = _run(op)
        assert op.check(result, error) is None, op.label
        for corrupt in _cli_corruptions(op.label, result):
            assert op.check(corrupt, None) is not None, f"{op.label}: corruption passed"
        if op.label.startswith("decompose"):
            out_file = tmp_path / f"decomposition3-{op.label.split()[1]}.json"
            payload = json.loads(out_file.read_text())
            live = next(t for t in payload["terms"]
                        if _live(t["map"], [[Fraction(v) for v in row] for row in t["matrix"]]))
            live["sign"] *= -1
            out_file.write_text(json.dumps(payload))
            assert op.check(result, None) is not None, f"{op.label}: flipped sign in file passed"


def test_oracles_agree_with_closed_forms():
    # y*y = (r!/f) y with f from the hook-length formula; f^(2,1) = 2.
    rows = [[1, 2], [3]]
    y = oracles.symmetrizer(rows)
    assert oracles.hook_count((2, 1)) == 2
    assert oracles.ring_mul(y, y) == oracles.scaled(y, Fraction(3))
    assert oracles.square_problem(oracles.scaled(y, Fraction(6)), rows) is not None
    # The derivative idempotents are idempotent.
    e = oracles.derivative_idempotent(1)
    assert oracles.ring_mul(e, e) == e
    # Clifford closed form merges equal eigenvalues: lam0 = 3 lam1 gives 0 twice.
    assert oracles.clifford_spectrum(4, Fraction(3), [Fraction(1)]) == [(0, 2), (3, 2)]
    # LR identity on the known product s_1 * s_1 = s_2 + s_11, and a wrong one.
    assert oracles.lr_problem((1,), (1,), [((2,), 1), ((1, 1), 1)]) is None
    assert oracles.lr_problem((1,), (1,), [((2,), 2)]) is not None
