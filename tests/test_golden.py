"""Golden outputs: SHA-256 digests of seeded results that refactors must
leave byte-identical.

Each case renders one deterministic output as text: a decomposition's JSON,
a spectrum report, metric signatures and inverses, the JSON of group-ring
elements (symmetrizers, idempotents, the canonical elements and right-factor
solves), every Littlewood-Richardson product in a weight range, or the stdout of
a CLI command.  The test compares the digest of that text with the pinned
one.
A change that is meant to alter an output updates its digest and says why;
``python tests/test_golden.py`` (with ``src`` on ``PYTHONPATH``) prints the
current digest of every case.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from symcurv import (
    GroupRingElement,
    LinearMap,
    Metric,
    canonical_elements,
    clifford_family,
    curvature_tableau,
    decompose_mixed,
    decompose_pure,
    derivative_idempotent,
    lr_product,
    osserman_spectrum_sample,
    partitions_of,
    solve_right_factor,
    standard_tableaux,
    star,
    tensor_product,
    young_symmetrizer,
)
from symcurv.cli import main

from helpers import (quaternion_clifford, rand_curvature, rand_fraction,
                     rand_ring_element, structured_curvatures)


def _dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def _decomposition(mode: str, n: int) -> str:
    return _decomposition_of(mode, rand_curvature(random.Random(100 + n), n))


def _decomposition_of(mode: str, tensor) -> str:
    if mode == "mixed":
        return _dumps(decompose_mixed(tensor).to_json_dict())
    return _dumps(decompose_pure(tensor, mode).to_json_dict())


def _clifford_r4() -> str:
    tensor, g = quaternion_clifford()
    return _dumps(osserman_spectrum_sample(tensor, g, 6, 1, seed=3).to_json_dict())


def _split_complex_structure() -> LinearMap:
    """Skew for diag(1, 1, -1, -1) and squaring to -Id."""
    return LinearMap([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])


def _clifford_split() -> str:
    g = Metric.standard(2, 2)
    tensor = clifford_family(Fraction(1, 2), [Fraction(3)], [_split_complex_structure()], g)
    reports = [osserman_spectrum_sample(tensor, g, 5, sign, seed=4).to_json_dict()
               for sign in (1, -1)]
    return _dumps(reports)


def _random_metrics() -> str:
    """Signature and inverse of seeded symmetric matrices, n = 1..6; a
    third have a zero diagonal, so no diagonal entry can serve as a pivot."""
    rng = random.Random(2024)
    lines = []
    for k in range(180):
        n = 1 + k % 6
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if i != j or k % 3:
                    rows[i][j] = rows[j][i] = rand_fraction(rng, -4, 4, 3)
        try:
            g = Metric(rows)
        except ValueError:
            lines.append("singular")
            continue
        lines.append(_dumps([list(g.signature),
                             [[str(v) for v in row] for row in g.inverse_rows]]))
    return "\n".join(lines)


def _symmetrizers(r: int) -> str:
    """The symmetrizer of every standard tableau of degree ``r``."""
    return "\n".join(_dumps([tableau.rows, young_symmetrizer(tableau).to_json_dict()])
                     for shape in partitions_of(r) for tableau in standard_tableaux(shape))


def _symmetrizer_squares(r: int) -> str:
    """``y*y`` and ``star(y)*star(y)`` for the symmetrizer ``y`` of every
    standard tableau of degree ``r``."""
    lines = []
    for shape in partitions_of(r):
        for tableau in standard_tableaux(shape):
            y = young_symmetrizer(tableau)
            lines.append(_dumps([tableau.rows, (y * y).to_json_dict(),
                                 (star(y) * star(y)).to_json_dict()]))
    return "\n".join(lines)


def _idempotent_squares(u: int) -> str:
    e = derivative_idempotent(u)
    return _dumps([(e * e).to_json_dict(), (star(e) * star(e)).to_json_dict()])


def _canonical_elements() -> str:
    elements = canonical_elements()
    return _dumps({field.name: getattr(elements, field.name).to_json_dict()
                   for field in dataclasses.fields(elements)})


def _solves() -> str:
    """Five seeded solvable right-factor problems, half of them with a
    singular left factor, then one without a solution."""
    rng = random.Random(15)
    lines = []
    for r, singular in ((3, False), (3, True), (4, False), (4, True), (5, True)):
        if singular:
            tableau = rng.choice(standard_tableaux(rng.choice(partitions_of(r)[1:-1])))
            a = young_symmetrizer(tableau).scale(rand_fraction(rng, 1, 5, 3))
        else:
            a = rand_ring_element(rng, r, terms=3)
        c = a * rand_ring_element(rng, r)
        lines.append(_dumps(solve_right_factor(a, c).to_json_dict()))
    y = young_symmetrizer(curvature_tableau())
    lines.append(_dumps(solve_right_factor(y, GroupRingElement.one(4))))
    return "\n".join(lines)


def _lr_products(low: int, high: int) -> str:
    """Every Littlewood-Richardson product of two partitions whose weights
    lie in ``low..high``, one JSON line per ordered pair."""
    shapes = [p for w in range(low, high + 1) for p in partitions_of(w)]
    return "\n".join(_dumps([lam.to_json(), mu.to_json(), lr_product(lam, mu).to_json_dict()])
                     for lam in shapes for mu in shapes)


def _cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}"


def _cli_on_tensor(argv: list[str], tmp_path: Path, tensor=None) -> str:
    if tensor is None:
        tensor = rand_curvature(random.Random(7), 4)
    path = tmp_path / "tensor.json"
    path.write_text(_dumps(tensor.to_json_dict()))
    return _cli([argv[0], str(path), *argv[1:]])


def _cli_decompose_out(mode: str, tmp_path: Path) -> str:
    out = tmp_path / "out.json"
    stdout = _cli_on_tensor(["decompose", "--mode", mode, "--out", str(out)], tmp_path)
    return stdout.replace(str(out), "OUT") + out.read_text()


def _cli_spectrum(tmp_path: Path, tensor, g: Metric, *flags: str) -> str:
    tensor_path, metric_path = tmp_path / "t.json", tmp_path / "g.json"
    tensor_path.write_text(_dumps(tensor.to_json_dict()))
    metric_path.write_text(_dumps(g.to_json_dict()))
    return _cli(["osserman", "spectrum", "--tensor", str(tensor_path),
                 "--metric", str(metric_path), *flags])


def _split_clifford() -> tuple:
    g = Metric.standard(2, 2)
    return clifford_family(1, [2], [_split_complex_structure()], g), g


def _not_curvature():
    """``S (x) S`` for a symmetric S: symmetric in the first index pair, so
    the direct test fails on antisymmetry."""
    s = LinearMap([[1, 2], [2, -1]])
    return tensor_product(s, s)


SCHUR_ARGV = {"lr": ["schur", "lr", "2", "1,1"],
              "sym2": ["schur", "plethysm", "sym2", "3"],
              "alt2": ["schur", "plethysm", "alt2", "3"]}


CASES = {
    **{f"decompose-{mode}-n{n}": (lambda tmp, mode=mode, n=n: _decomposition(mode, n))
       for mode in ("mixed", "gamma", "alpha") for n in (3, 4, 5)},
    **{f"decompose-{mode}-{name}": (
        lambda tmp, mode=mode, name=name: _decomposition_of(mode, structured_curvatures()[name]))
       for mode in ("mixed", "gamma", "alpha") for name in structured_curvatures()},
    "spectrum-clifford-r4": lambda tmp: _clifford_r4(),
    "spectrum-clifford-split": lambda tmp: _clifford_split(),
    "metric-random-symmetric": lambda tmp: _random_metrics(),
    **{f"cli-decompose-{mode}": (lambda tmp, mode=mode: _cli_decompose_out(mode, tmp))
       for mode in ("mixed", "gamma", "alpha")},
    "cli-decompose-stdout": lambda tmp: _cli_on_tensor(["decompose"], tmp),
    "cli-check-curvature": lambda tmp: _cli_on_tensor(["check-curvature", "--json"], tmp),
    "cli-check-curvature-text": lambda tmp: _cli_on_tensor(["check-curvature"], tmp),
    "cli-check-curvature-fail": lambda tmp: _cli_on_tensor(
        ["check-curvature"], tmp, _not_curvature()),
    "cli-check-curvature-fail-json": lambda tmp: _cli_on_tensor(
        ["check-curvature", "--json"], tmp, _not_curvature()),
    "cli-spectrum": lambda tmp: _cli_spectrum(tmp, *_split_clifford(), "--sign", "-",
                                              "--count", "4", "--seed", "2", "--json"),
    "cli-spectrum-text": lambda tmp: _cli_spectrum(tmp, *quaternion_clifford(),
                                                   "--count", "6", "--seed", "3"),
    "cli-spectrum-generic-n3": lambda tmp: _cli_spectrum(
        tmp, rand_curvature(random.Random(1), 3), Metric.standard(3, 0), "--count", "3"),
    **{f"cli-schur-{name}{suffix}": (lambda tmp, argv=argv + flags: _cli(argv))
       for name, argv in SCHUR_ARGV.items()
       for suffix, flags in (("-text", []), ("-json", ["--json"]))},
    "lr-products-w6": lambda tmp: _lr_products(0, 6),
    "lr-products-w8": lambda tmp: _lr_products(8, 8),
    "cli-demo-text": lambda tmp: _cli(["osserman", "demo"]),
    "cli-demo-nilpotent-gamma-text": lambda tmp: _cli(
        ["osserman", "demo", "--family", "nilpotent-gamma"]),
    "cli-nilpotent-text": lambda tmp: _cli(["osserman", "nilpotent", "--p", "2", "--q", "1"]),
    "cli-lorentz-text": lambda tmp: _cli(["osserman", "lorentz", "--q", "2", "--trials", "10"]),
    "cli-identities-text": lambda tmp: _cli(["identities"]),
    "cli-demo": lambda tmp: _cli(["osserman", "demo", "--json"]),
    "cli-demo-nilpotent-alpha": lambda tmp: _cli(
        ["osserman", "demo", "--family", "nilpotent-alpha", "--json"]),
    "cli-nilpotent": lambda tmp: _cli(["osserman", "nilpotent", "--p", "2", "--q", "1",
                                       "--json"]),
    "cli-lorentz": lambda tmp: _cli(["osserman", "lorentz", "--q", "2", "--trials", "10",
                                     "--json"]),
    "cli-identities": lambda tmp: _cli(["identities", "--json"]),
    **{f"young-symmetrizers-r{r}": (lambda tmp, r=r: _symmetrizers(r)) for r in (4, 5)},
    **{f"derivative-idempotent-u{u}": (
        lambda tmp, u=u: _dumps(derivative_idempotent(u).to_json_dict())) for u in (0, 1, 2, 3)},
    **{f"symmetrizer-squares-r{r}": (lambda tmp, r=r: _symmetrizer_squares(r)) for r in (4, 5)},
    "idempotent-squares-u3": lambda tmp: _idempotent_squares(3),
    "canonical-elements": lambda tmp: _canonical_elements(),
    "solve-right-factor": lambda tmp: _solves(),
}

GOLDEN = {
    "canonical-elements": "9856ea9611a927b8f1e718956c3307b679b29b464794c6b521c73c76e22a5799",
    "derivative-idempotent-u0": "be738558849d6b3c393e1b3291b96b304d211122b8541b06f64183cebee9f509",
    "derivative-idempotent-u1": "4ab7557f33b45594649c700bfd00cc20bb82c1c9c02315526fb06fd82a4532f2",
    "derivative-idempotent-u2": "fe16fcfc8613e52190e75f2ac6b80e22010883de68911bdb366839452f7327d3",
    "derivative-idempotent-u3": "a257602ff950c50b9b5e0e3ff49bef2b64864e4ae5d21873bbc6e04fc87c9b42",
    "idempotent-squares-u3": "2b05ba6a374589b2a6a7feba6a8a0cc36b68421fdf5e67bb022f1a0a38dfd701",
    "cli-check-curvature": "ce2ec6bea9efd0cb4f5457d78517434a196fbb98739372e807174d300016960d",
    "cli-check-curvature-fail": "0193412d7cc990c654d18857ebdcd8d83feab2eaf487ce79a9298d4d7de1d364",
    "cli-check-curvature-fail-json": "6dc29978d3818b38bf54dd9c262ebd3d73a791efb942a4fc42a0643ac2069aca",
    "cli-check-curvature-text": "0505d8aba9abfe7710663449323675e6bee331d005c7dc0c10c0db66f39bcbec",
    "cli-decompose-alpha": "cce4381d6bbfcbac07f47e4fc0dadf5dc37554f1d760c993ef28af4fa58ebf88",
    "cli-decompose-gamma": "ac2741cd21adc2f32789cf055e006f131a1cd772c077160eed7e67af76c9b11c",
    "cli-decompose-mixed": "56dc6895a61091bc953300b91f0e8451eb2b9067cee89cd3ae5586b2f83228c8",
    "cli-decompose-stdout": "3cf3793e07a069f02bfcd87bd6b200325849830c04742b384fae0b18af8fe2e5",
    "cli-demo": "16ec88a5aab301889fb579e468112c70ac277c227f7554ef68eaff076a4fdbe2",
    "cli-demo-nilpotent-alpha": "32b8a64f3a3d2ef63852ecda7863e87a2862411c2cdc0cfc13c130c0901c0304",
    "cli-demo-nilpotent-gamma-text": "1d60cb68a97b6bc0d793417484673af913c5932cb4b5f8a676fabbc6e4cef97b",
    "cli-demo-text": "e30497c7b02022197885a859e4652f46ebee4959452e901ad8ce1a3b53a9cc5c",
    "cli-identities": "f6eadfa94169920a90c866143d3e0556873a38de2f1f1d25c1c9c7a877b8499e",
    "cli-identities-text": "fe9ce17883e10d0aa954e40a5444640e5e9e48f83d8319a3db0f52897c0aadc6",
    "cli-lorentz": "e9adb27fb1a64f09fd20bbea5ea0ec27ca16f868c2a77290390ae0fb4f75a6e6",
    "cli-lorentz-text": "bd1736cb18853e9593980906e49d35c0e08438d529ea3b6428328a8e9467b441",
    "cli-nilpotent": "5bc4b1bab5f4bac35fa15f36e0dd94c14a636b88e4c6eeed85dad7a36cc90a95",
    "cli-nilpotent-text": "4b8c2a1fd513e9946d2327e92b82b46374f4e8ea8ee7f0cd24dd19a78715db06",
    "cli-schur-alt2-json": "15d5d407b5d89df5c9518ce5bb143357aaf5fe98b9139eb798b665e6470130da",
    "cli-schur-alt2-text": "5dea7f2919f348fab2ea308ebedb6f798d663671efcb8737c49a6948e2da551e",
    "cli-schur-lr-json": "f275c8284e7550c90aaf8d3f82d4b05febde30f9ae8b39ab392245c6d5dd6554",
    "cli-schur-lr-text": "3d186b92d66fd4ec4d8720ecdcdf3e0ef30401fef6db1833b9983f3cbf49194b",
    "cli-schur-sym2-json": "39da05159638e18f70ec5c55807ea3a9b096996e31d397ed079b916af719eca6",
    "cli-schur-sym2-text": "b8176a89b07f71b42bf818327f5f5d68ac3b24f89c35805b0eeb696857548521",
    "cli-spectrum": "551da66e7d0119060626e0b75bfcde820dfdff120f71af846d1052cbd6697635",
    "cli-spectrum-generic-n3": "f3d8ba4c1c5ba2f724d73cb5eb5e8212df4e6ba1ebd55763dc542ce545017fa9",
    "cli-spectrum-text": "009de728bfe0779bc1a04af841bf133260a872b5bd8f64216c082f2f15d8f053",
    "decompose-alpha-n3": "ce26a4ed29dab0fd0c1fc2e0fbd3dda517633c0d1c1319dc165e3f459b80a739",
    "decompose-alpha-n4": "9fe499f1cac56d6b0a949a4229c9159f714c35a7bb138be939e651f90012c06c",
    "decompose-alpha-n5": "514ab1b6940763f08d2d0eefab73b153b8042e39dbc9da62ddcba5ff8e4027a5",
    "decompose-gamma-n3": "5d94f2c6dfaae1ca8456aea44618301b9add586d86c8ecf287a43204850cbd28",
    "decompose-gamma-n4": "73f700f8b714935d990f621b04c6febc2d1c929d67ac751caecf1a39788f36ee",
    "decompose-gamma-n5": "5928d87edf792566abb36f6382ef57621a98d8d3fecb6f768b7bc80b15c442c7",
    "decompose-mixed-n3": "3afd4c9852c92c153146fb0b9a8bc7dc45c6ec5109f9d4bdd497b4e084a42641",
    "decompose-mixed-n4": "1c09cc1c6d31f1bcfd80158b42ba0afcb376c374d7257e11f423363250d417dc",
    "decompose-mixed-n5": "1e9a40b300dfb161058967f55f32767a67bc138baa104260c4eac39f1fe42e9b",
    "decompose-alpha-alpha-e12-n3": "21aedb6ee31d0181abf4a005c2d6f359b2832d17008721a6e913fce0da78bbe4",
    "decompose-alpha-alpha-nilpotent-skew": "1e9cf86c2d23198161ec02f16932a047f9ffa1c1a10665ed4debfdb7de98574b",
    "decompose-alpha-clifford-quaternion": "e08a5da5d89c59164bb6f5bb67d28c353186ead57d703a7022e7fa0e8a90b60d",
    "decompose-alpha-gamma-identity-n3": "437c9c188b439a2c252a4988c52d188ed61cb4ec773d1cb53c666f923d9afd2f",
    "decompose-alpha-gamma-identity-n4": "dccb11ceb56c4507c6fc4500fc8dc8a94a03ea3406e2908b160163575be624ef",
    "decompose-alpha-zero-diagonal-n4": "294384bd01ba8bd758c9f73ce84cf91ee3e3e678fa9041ce0a2f71dc70961f06",
    "decompose-gamma-alpha-e12-n3": "51539e2016eb65d18f6b28d41b0c223fe74c69037fa87f179f9289d81d2f1528",
    "decompose-gamma-alpha-nilpotent-skew": "3e36290478c7fbe1378cb248e22a90ac1a47e3193f3ba9eeca0568545a08d5f7",
    "decompose-gamma-clifford-quaternion": "2f5418b97aa51ae6305c53a73641357c2b990939020aa98b14a8907253cabd1a",
    "decompose-gamma-gamma-identity-n3": "2262287b74b3167b8c710bb2fb0a66823434be2045b37eafc8759ab11ed5eb2c",
    "decompose-gamma-gamma-identity-n4": "82d544830ed6f8582970768852e9445fef269d88122ff51f2f1a74b2b6f8aaa5",
    "decompose-gamma-zero-diagonal-n4": "b1465d254f2dfed5fe1a944a1820f88e4a31f1f9d744cb5a2d5e3eb3f77e3095",
    "decompose-mixed-alpha-e12-n3": "a91e80a2ff06dfb432d129ff20cd952221075166efb5d2eb6b82a1515cb67cf4",
    "decompose-mixed-alpha-nilpotent-skew": "b5639755d715dddead232d85278a6c5da84827a9cc82da6de89047648c182b53",
    "decompose-mixed-clifford-quaternion": "a13e833f22c9850cf81d5cd038693b217cda4a904e5ecde4d7fec592a4afb78d",
    "decompose-mixed-gamma-identity-n3": "34f1408f28964c009bec02930d2fa40f98f79b527d70174c7569d3cf62817a2c",
    "decompose-mixed-gamma-identity-n4": "fa9896cf1bb9ae5c3397997168fa7cb60b0c1baac6b3387b46b51b4237ead97c",
    "decompose-mixed-zero-diagonal-n4": "105be1ce6d3fff135a1bdcb912257e8ea7ef8e3b4f1c676a51f5d487094d1dae",
    "lr-products-w6": "33cd3f6006517883a62690a45593c39ae79df3616c5efde5cbb8c0620f6041cf",
    "lr-products-w8": "08aab4fac0586523a6225c700f6aa99f8616c3a75453ca75678ac7361ac348ff",
    "metric-random-symmetric": "b30ba971ee3a59bcfc593ae4967c58dfe9e56e8e62527dea1dda78a74a079294",
    "solve-right-factor": "ee3bc109605448c454917db3def2904ab2de6d471ffb6736a6050f724007fbb9",
    "spectrum-clifford-r4": "8205870a103c2c8b09876eb6285cd244b28c650387d309961ca518e740dd9abf",
    "spectrum-clifford-split": "6ffc54950534ea0b8810b14d183ea91a7853482f890d2ab1f0a675cb02b2b226",
    "symmetrizer-squares-r4": "cf2c941db7ef26831eaff5afe70a8788c4660536f3017b5e7ac30842f028498b",
    "symmetrizer-squares-r5": "8d487b06c858d76eeff65e5e5db1c3ddf01d21ec1d2e2ed4a245a95140b8d7f4",
    "young-symmetrizers-r4": "52cbac5f4db8ae7afee4763ee57042f6aafc2f9f738f899667f06e36a79c7dad",
    "young-symmetrizers-r5": "b79e80bf55703c553dd1d1a5d96dbe0b0c48c867796538cdd8e602ec6477ab39",
}


def _digest(name: str, tmp_path: Path) -> str:
    return hashlib.sha256(CASES[name](tmp_path).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_digest(name, tmp_path):
    assert _digest(name, tmp_path) == GOLDEN[name]


def test_every_case_is_pinned():
    assert set(GOLDEN) == set(CASES)


if __name__ == "__main__":
    import tempfile

    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            print(f'    "{case}": "{_digest(case, Path(tmp))}",')
