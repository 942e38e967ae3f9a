"""Seeded inputs and the fixed operation list of each workload.

A workload is built once per run as a list of :class:`Op`.  One pass runs
the list in order; every run repeats whole passes, so the mix of
operations is the same in every run and for every seed.  The seed only
changes the numbers inside the inputs (matrix entries, coefficients,
which tableau of a given shape, sampling seeds), never the count or the
kind of operations.

Inputs are generated here from the paper's formulas with the benchmark's
own code (:mod:`oracles`) and handed to ``symcurv`` as finished objects.
Every ``call`` looks its entry point up on the ``symcurv`` module at call
time, so the tracer can substitute wrapped functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import oracles

WORKLOADS = ("decompose", "spectra", "group_ring", "cli")


class Op(NamedTuple):
    """One call into a public entry point (or one CLI process).

    ``call`` is timed; ``check(result, error)`` runs after the clock stops
    and returns ``None`` or the reason the output is wrong.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object, BaseException | None], str | None]


def _frac(rng: random.Random, lo: int = -5, hi: int = 5, den: int = 4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def _nonzero_frac(rng: random.Random, lo: int = -3, hi: int = 3, den: int = 2) -> Fraction:
    while True:
        value = _frac(rng, lo, hi, den)
        if value:
            return value


def _symmetric(rng: random.Random, n: int) -> list:
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = _frac(rng)
    return m


def _skew(rng: random.Random, n: int) -> list:
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = _frac(rng)
            m[j][i] = -m[i][j]
    return m


def _product_tensor(a: list, b: list) -> list:
    n = len(a)
    return [[[[a[i][j] * b[k][l] for l in range(n)] for k in range(n)]
             for j in range(n)] for i in range(n)]


def curvature_input(rng: random.Random, n: int) -> list:
    """``sum c_i gamma(S_i) + sum d_i alpha(A_i)``, two of each, as nested
    Fractions."""
    total = oracles.zeros4(n)
    for _ in range(2):
        oracles.add_scaled(total, _nonzero_frac(rng), oracles.gamma_formula(_symmetric(rng, n)))
        oracles.add_scaled(total, _nonzero_frac(rng), oracles.alpha_formula(_skew(rng, n)))
    return total


def perturbed_input(rng: random.Random, n: int, kind: str) -> list:
    """A curvature tensor pushed off the curvature space.

    ``entry`` changes one entry (breaks antisymmetry), ``exchange`` adds
    ``A (x) B`` for two skew matrices (breaks pair exchange only),
    ``bianchi`` adds ``A (x) A`` (keeps every direct symmetry and breaks
    Bianchi; needs n >= 4).
    """
    while True:
        t = curvature_input(rng, n)
        delta = _nonzero_frac(rng)
        if kind == "entry":
            i, j, k, l = (rng.randrange(n) for _ in range(4))
            t[i][j][k][l] += delta
        elif kind == "exchange":
            oracles.add_scaled(t, delta, _product_tensor(_skew(rng, n), _skew(rng, n)))
        else:
            a = _skew(rng, n)
            oracles.add_scaled(t, delta, _product_tensor(a, a))
        violation = oracles.curvature_violation(t)
        if violation is not None and (kind != "bianchi" or violation == "first Bianchi identity"):
            return t


def _bianchi_nonzero(t: list) -> int:
    n = len(t)
    return sum(1 for i in range(n) for j in range(n) for k in range(n) for l in range(n)
               if t[i][j][k][l] + t[i][k][l][j] + t[i][l][j][k])


def decomposition_terms(dec) -> list:
    """A ``CurvatureDecomposition`` as plain ``(map, sign, weight, matrix)``."""
    return ([("gamma", t.sign, t.weight, t.matrix.to_nested()) for t in dec.gamma_terms]
            + [("alpha", t.sign, t.weight, t.matrix.to_nested()) for t in dec.alpha_terms])


_KIND = {"mixed": "mixed", "gamma": "pure-gamma", "alpha": "pure-alpha"}


def decomposition_check(target: list, mode: str):
    def check(result, error):
        if error is not None:
            return f"raised {error!r}"
        if result.kind != _KIND[mode]:
            return f"kind {result.kind!r} for mode {mode!r}"
        if mode == "gamma" and result.alpha_terms or mode == "alpha" and result.gamma_terms:
            return f"pure-{mode} decomposition has terms of the other map"
        return oracles.decomposition_problem(target, decomposition_terms(result))
    return check


def _accepted_check_curvature(result, error):
    if error is not None:
        return f"raised {error!r}"
    if not (result.ok and result.direct_ok and result.young_ok):
        return f"curvature tensor rejected: {result.first_violation}"
    if result.first_violation is not None or result.bianchi_nonzero:
        return "diagnostics report a violation on a curvature tensor"
    return None


def _rejected_check_curvature(violation: str, bianchi_nonzero: int):
    def check(result, error):
        if error is not None:
            return f"raised {error!r}"
        if result.ok or result.direct_ok or result.young_ok:
            return "non-curvature tensor accepted"
        if result.first_violation != violation:
            return f"first violation {result.first_violation!r}, expected {violation!r}"
        if result.bianchi_nonzero != bianchi_nonzero:
            return f"Bianchi defect {result.bianchi_nonzero} entries, expected {bianchi_nonzero}"
        return None
    return check


def _expect_not_curvature(sc):
    def check(result, error):
        if isinstance(error, sc.NotACurvatureTensor):
            return None
        return f"expected NotACurvatureTensor, got {error!r}" if error else "decomposed a non-curvature tensor"
    return check


def _decompose_call(sc, tensor, mode: str):
    if mode == "mixed":
        return lambda: sc.decompose_mixed(tensor)
    return lambda: sc.decompose_pure(tensor, mode)


#: (dimension, accepted inputs, rejected inputs) per pass.  Most inputs are
#: small so that a run holds enough operations for a p90; n = 5 and 6 keep
#: the large-tensor path on every pass.  The 4 slowest operations of a pass
#: (n = 6 and the two n = 5 decompositions) stay under 10% of its 64, so
#: the p90 falls among the 7 operations of about 0.2 s (n = 4
#: decompositions) and not on the edge between the two groups.
DECOMPOSE_PLAN = ((3, 16, 4), (4, 6, 2), (5, 2, 1), (6, 1, 0))
MODES = ("mixed", "gamma", "alpha")


def decompose_inputs(rng: random.Random) -> list:
    """``(n, nested tensor, mode, violation or None)`` in pass order."""
    out = []
    turn = 0
    for n, accepted, rejected in DECOMPOSE_PLAN:
        for _ in range(accepted):
            out.append((n, curvature_input(rng, n), MODES[turn % 3], None))
            turn += 1
        kinds = ("entry", "exchange") if n == 3 else ("entry", "exchange", "bianchi")
        for i in range(rejected):
            t = perturbed_input(rng, n, kinds[i % len(kinds)])
            out.append((n, t, MODES[turn % 3], oracles.curvature_violation(t)))
            turn += 1
    return out


def build_decompose(sc, rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for n, nested, mode, violation in decompose_inputs(rng):
        tensor = sc.DenseTensor.from_nested(nested)
        if violation is None:
            ops.append(Op(f"check_curvature n={n}",
                          lambda t=tensor: sc.check_curvature(t), _accepted_check_curvature))
            ops.append(Op(f"decompose {mode} n={n}", _decompose_call(sc, tensor, mode),
                          decomposition_check(nested, mode)))
        else:
            ops.append(Op(f"check_curvature rejected n={n}",
                          lambda t=tensor: sc.check_curvature(t),
                          _rejected_check_curvature(violation, _bianchi_nonzero(nested))))
            ops.append(Op(f"decompose {mode} rejected n={n}", _decompose_call(sc, tensor, mode),
                          _expect_not_curvature(sc)))
    return ops


# ---------------------------------------------------------------- spectra

QUATERNION = (  # left multiplication by i, j, k on R^4
    ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0)),
    ((0, 0, -1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, -1, 0, 0)),
    ((0, 0, 0, -1), (0, 0, -1, 0), (0, 1, 0, 0), (1, 0, 0, 0)),
)


def clifford_maps(n: int, k: int) -> list:
    """k anticommuting skew maps on R^n: block-diagonal copies of i, j, k."""
    maps = []
    for q in QUATERNION[:k]:
        m = [[Fraction(0)] * n for _ in range(n)]
        for b in range(0, n, 4):
            for i in range(4):
                for j in range(4):
                    m[b + i][b + j] = Fraction(q[i][j])
        maps.append(m)
    return maps


def clifford_tensor(n: int, lam0: Fraction, lams: list, maps: list) -> list:
    """``3 lam0 gamma(g) + 3 sum lam_i alpha(C_i^T)`` on Euclidean R^n (the
    lowered form of C under g = Id is its transpose)."""
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    total = oracles.zeros4(n)
    oracles.add_scaled(total, 3 * lam0, oracles.gamma_formula(ident))
    for lam, c in zip(lams, maps):
        lowered = [[c[j][i] for j in range(n)] for i in range(n)]
        oracles.add_scaled(total, 3 * lam, oracles.alpha_formula(lowered))
    return total


def nilpotent_tensor(p: int) -> list:
    """``alpha(u v^T - v u^T)`` for the null, orthogonal vectors
    ``u = e_0 + e_p`` and ``v = e_1 + e_{p+1}`` of signature (p, p)."""
    n = 2 * p
    u = [Fraction(int(i in (0, p))) for i in range(n)]
    v = [Fraction(int(i in (1, p + 1))) for i in range(n)]
    return oracles.alpha_formula([[u[i] * v[j] - v[i] * u[j] for j in range(n)] for i in range(n)])


#: Clifford families per pass: (dimension, number of maps, draws of lambda).
#: With the nilpotent cases a pass holds 36 operations, 5 of them the
#: slowest kind (R^8 and p = 4 spectra): about 14%, so a run's p90 falls
#: inside that group rather than on its edge.
SPECTRA_CLIFFORD = ((4, 1, 4), (4, 2, 4), (4, 3, 4), (8, 1, 1), (8, 2, 1), (8, 3, 1))
SPECTRA_NILPOTENT = (2, 3, 4)
SAMPLES = 3


def spectra_inputs(rng: random.Random) -> tuple[list, list]:
    """Clifford families ``(n, lam0, lams, seed)`` and nilpotent cases
    ``(p, sign, seed)``, each with a sampling seed, in pass order."""
    families = []
    for n, k, draws in SPECTRA_CLIFFORD:
        # On R^8 a lambda with denominator 3 makes rational_roots trial-divide
        # up to the square root of a ~70-bit constant, which never finishes
        # (see the README); R^8 families therefore use integer lambdas.
        den = 3 if n == 4 else 1
        for _ in range(draws):
            lam0 = _nonzero_frac(rng, -4, 4, den)
            lams = [_nonzero_frac(rng, -4, 4, den) for _ in range(k)]
            families.append((n, lam0, lams, rng.randrange(10 ** 6)))
    nilpotent = [(p, sign, rng.randrange(10 ** 6)) for p in SPECTRA_NILPOTENT for sign in (1, -1)]
    return families, nilpotent


def spectrum_check(diag: list, sign: int, expected: list):
    def check(report, error):
        if error is not None:
            return f"raised {error!r}"
        if report.sign != sign or not report.constant or not report.all_rational:
            return "report flags disagree with an Osserman family"
        if not len(report.samples) == len(report.roots) == len(report.remainders):
            return "report lists have different lengths"
        return oracles.spectrum_problem(
            [list(x) for x in report.samples], [list(r) for r in report.roots],
            report.remainders, diag, sign, SAMPLES, expected)
    return check


def _tensor_check(nested: list):
    def check(result, error):
        if error is not None:
            return f"raised {error!r}"
        if result.to_nested() != nested:
            return "tensor differs from the paper's formula"
        return None
    return check


def build_spectra(sc, rng: random.Random, workdir: Path) -> list[Op]:
    families, nilpotent = spectra_inputs(rng)
    ops = []
    for n, lam0, lams, seed in families:
        g = sc.Metric.standard(n, 0)
        maps = [sc.LinearMap(m) for m in clifford_maps(n, len(lams))]
        nested = clifford_tensor(n, lam0, lams, clifford_maps(n, len(lams)))
        tensor = sc.DenseTensor.from_nested(nested)
        ops.append(Op(f"clifford_family n={n} k={len(lams)}",
                      lambda l0=lam0, ls=lams, ms=maps, g=g: sc.clifford_family(l0, ls, ms, g),
                      _tensor_check(nested)))
        ops.append(Op(f"spectrum clifford n={n} k={len(lams)}",
                      lambda t=tensor, g=g, s=seed: sc.osserman_spectrum_sample(t, g, SAMPLES, 1, s),
                      spectrum_check([1] * n, 1, oracles.clifford_spectrum(n, lam0, lams))))
    for p, sign, seed in nilpotent:
        g = sc.Metric.standard(p, p)
        tensor = sc.DenseTensor.from_nested(nilpotent_tensor(p))
        ops.append(Op(f"spectrum nilpotent p={p} sign={sign:+d}",
                      lambda t=tensor, g=g, sg=sign, s=seed: sc.osserman_spectrum_sample(t, g, SAMPLES, sg, s),
                      spectrum_check([1] * p + [-1] * p, sign, [(Fraction(0), 2 * p)])))
    return ops


# ------------------------------------------------------------- group ring


def standard_tableaux(shape: tuple) -> list:
    """All standard fillings of ``shape`` (rows of 1..r), in a fixed order."""
    r = sum(shape)
    out = []
    rows: list[list[int]] = [[] for _ in shape]

    def place(k: int) -> None:
        if k > r:
            out.append([list(row) for row in rows])
            return
        for i, part in enumerate(shape):
            if len(rows[i]) < part and (i == 0 or len(rows[i - 1]) > len(rows[i])):
                rows[i].append(k)
                place(k + 1)
                rows[i].pop()

    place(1)
    return out


def partitions(r: int, largest: int | None = None) -> list:
    largest = r if largest is None else largest
    if r == 0:
        return [()]
    return [(first,) + rest for first in range(min(r, largest), 0, -1)
            for rest in partitions(r - first, first)]


def ring_dict(elem) -> dict:
    """A ``GroupRingElement`` as ``{one-line images: Fraction}``."""
    return {p.images: c for p, c in elem.items()}


def _ring_element(sc, r: int, terms: dict):
    return sc.GroupRingElement(r, {sc.Permutation(p): c for p, c in terms.items()})


#: Degree-6 shapes whose symmetrizers square in a fraction of a second;
#: one seeded tableau of each per pass.
DEGREE6_SHAPES = ((4, 1, 1), (3, 2, 1), (3, 1, 1, 1), (2, 2, 1, 1))
#: solve_right_factor inputs: the symmetrizer of a seeded tableau of each shape.
SOLVE_SHAPES = ((2, 2), (3, 1), (2, 1, 1), (2, 2), (3, 2), (2, 2, 1))
#: Littlewood-Richardson factor weights: every pair with total weight at
#: most 6, three times over (well under a millisecond each), plus four
#: products at the factor-weight cap LR_WEIGHT_CAP = 8 (milliseconds each).
#: With the degree-4 squares (1-8 ms) above them, the sub-millisecond
#: products put the pass median in the middle of the 18 degree-5
#: symmetrizer builds of support 48, not on the edge of a group.
LR_WEIGHTS = tuple((a, b) for a in range(1, 6) for b in range(1, 7 - a)) * 3 \
    + ((8, 8), (8, 7), (7, 8), (8, 6))
DERIVATIVE_ORDERS = (0, 1, 2, 3)


def _pick_partition(rng: random.Random, weight: int) -> tuple:
    return rng.choice(partitions(weight))


def group_ring_inputs(rng: random.Random) -> dict:
    tableaux = [t for r in (4, 5) for shape in partitions(r) for t in standard_tableaux(shape)]
    tableaux += [rng.choice(standard_tableaux(shape)) for shape in DEGREE6_SHAPES]
    solves = []
    for shape in SOLVE_SHAPES:
        r = sum(shape)
        a = oracles.symmetrizer(rng.choice(standard_tableaux(shape)))
        x0 = {}
        for _ in range(3):
            perm = list(range(1, r + 1))
            rng.shuffle(perm)
            x0[tuple(perm)] = _nonzero_frac(rng, -4, 4, 3)
        solves.append((r, a, oracles.ring_mul(a, x0)))
    lrs = [(_pick_partition(rng, wl), _pick_partition(rng, wm)) for wl, wm in LR_WEIGHTS]
    return {"tableaux": tableaux, "solves": solves, "lr": lrs}


def _dict_check(problem):
    def check(result, error):
        if error is not None:
            return f"raised {error!r}"
        return problem(ring_dict(result))
    return check


def _table_check(report, error):
    if error is not None:
        return f"raised {error!r}"
    if len(report.lines) != 9 or not all(line.passed for line in report.lines) or not report.all_ok:
        return "identity table has a failing line"
    return None


def _lr_check(lam: tuple, mu: tuple):
    def check(result, error):
        if error is not None:
            return f"raised {error!r}"
        return oracles.lr_problem(lam, mu, [(p.parts, m) for p, m in result.items()])
    return check


def _solve_check(a: dict, c: dict):
    def check(result, error):
        if error is not None:
            return f"raised {error!r}"
        return oracles.solve_problem(a, None if result is None else ring_dict(result), c)
    return check


def build_group_ring(sc, rng: random.Random, workdir: Path) -> list[Op]:
    inputs = group_ring_inputs(rng)
    ops = []
    for rows in inputs["tableaux"]:
        r = sum(len(row) for row in rows)
        tab = sc.YoungTableau(rows)
        ops.append(Op(f"young_symmetrizer r={r}", lambda t=tab: sc.young_symmetrizer(t),
                      _dict_check(lambda got, rows=rows: oracles.symmetrizer_problem(got, rows))))
        y = _ring_element(sc, r, oracles.symmetrizer(rows))
        ops.append(Op(f"y*y r={r}", lambda y=y: sc.ring_product(y, y),
                      _dict_check(lambda got, rows=rows: oracles.square_problem(got, rows))))
    for u in DERIVATIVE_ORDERS:
        e = _ring_element(sc, u + 4, oracles.derivative_idempotent(u))
        ops.append(Op(f"derivative_idempotent u={u}", lambda u=u: sc.derivative_idempotent(u),
                      _dict_check(lambda got, u=u: oracles.idempotent_problem(got, u))))
        ops.append(Op(f"e*e u={u}", lambda e=e: sc.ring_product(e, e),
                      _dict_check(lambda got, u=u: oracles.idempotent_problem(got, u))))
    for r, a, c in inputs["solves"]:
        ops.append(Op(f"solve_right_factor r={r}",
                      lambda a=_ring_element(sc, r, a), c=_ring_element(sc, r, c): sc.solve_right_factor(a, c),
                      _solve_check(a, c)))
    ops.append(Op("verify_identity_table", lambda: sc.verify_identity_table(), _table_check))
    for lam, mu in inputs["lr"]:
        ops.append(Op(f"lr_product {sum(lam)}x{sum(mu)}",
                      lambda l=sc.Partition(lam), m=sc.Partition(mu): sc.lr_product(l, m),
                      _lr_check(lam, mu)))
    return ops


# -------------------------------------------------------------------- cli


def tensor_json(nested: list) -> dict:
    """The documented tensor file format, written by the benchmark itself."""
    n = len(nested)
    entries = [{"idx": [i, j, k, l], "value": str(nested[i][j][k][l])}
               for i in range(n) for j in range(n) for k in range(n) for l in range(n)
               if nested[i][j][k][l]]
    return {"order": 4, "dim": n, "entries": entries}


def _write_json(path: Path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


class CliResult(NamedTuple):
    code: int
    stdout: str
    maxrss_kb: int
    json_bytes: int  # JSON read from argv files plus JSON written


def _json_bytes(argv: list, stdout: str) -> int:
    files = [Path(a) for a in argv if a.endswith(".json")]
    return len(stdout.encode()) + sum(f.stat().st_size for f in files if f.exists())


def run_cli_process(argv: list, workdir: Path, env: dict) -> CliResult:
    """``python -m symcurv.cli argv`` in a fresh interpreter; its exit code,
    standard output and peak resident set size."""
    out_path = workdir / "stdout.txt"
    with open(out_path, "w") as out:
        proc = subprocess.Popen([sys.executable, "-m", "symcurv.cli", *argv],
                                stdout=out, stderr=subprocess.DEVNULL, env=env, cwd=workdir)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text()
    return CliResult(proc.returncode, stdout, usage.ru_maxrss, _json_bytes(argv, stdout))


def run_cli_in_process(sc, argv: list) -> CliResult:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = sc.cli.main(argv)
    stdout = buffer.getvalue()
    return CliResult(code, stdout, 0, _json_bytes(argv, stdout))


def _cli_json_check(problem):
    def check(result, error):
        if error is not None:
            return f"raised {error!r}"
        if result.code != 0:
            return f"exit code {result.code}"
        try:
            payload = json.loads(result.stdout)
        except json.JSONDecodeError as err:
            return f"unparsable --json output: {err}"
        return problem(payload)
    return check


def _identities_problem(payload):
    checks = payload.get("checks", [])
    if payload.get("all_pass") is not True or len(checks) != 12 or not all(c["pass"] for c in checks):
        return "identity checks do not all pass"
    return None


def _check_curvature_problem(payload):
    if not (payload.get("pass") and payload.get("direct") and payload.get("symmetrizer")):
        return "curvature tensor file rejected"
    if payload.get("bianchi_nonzero") != 0 or payload.get("first_violation") is not None:
        return "diagnostics report a violation"
    return None


def _spectrum_problem(diag: list, sign: int, expected: list):
    def problem(payload):
        if payload.get("sign") != sign or payload.get("constant") is not True:
            return "spectrum not reported constant"
        samples = [[Fraction(v) for v in x] for x in payload["samples"]]
        roots = [[(Fraction(e["root"]), e["multiplicity"]) for e in per] for per in payload["roots"]]
        if len(roots) != len(samples) or payload.get("all_rational") is not True:
            return "spectrum report incomplete"
        return oracles.spectrum_problem(samples, roots, [[1]] * len(roots), diag, sign, SAMPLES, expected)
    return problem


def _lr_json_problem(lam: tuple, mu: tuple):
    def problem(payload):
        return oracles.lr_problem(lam, mu, [(tuple(t["partition"]), t["multiplicity"])
                                            for t in payload["terms"]])
    return problem


def _decompose_file_check(nested: list, mode: str, out_file: Path):
    def check(result, error):
        if error is not None:
            return f"raised {error!r}"
        if result.code != 0:
            return f"exit code {result.code}"
        try:
            payload = json.loads(out_file.read_text())
        except (OSError, json.JSONDecodeError) as err:
            return f"unreadable --out file: {err}"
        if payload.get("kind") != _KIND[mode] or payload.get("reconstruction_exact") is not True:
            return "decomposition file has the wrong kind or no exact reconstruction"
        terms = [(t["map"], t["sign"], Fraction(t["weight"]),
                  [[Fraction(v) for v in row] for row in t["matrix"]])
                 for t in payload["terms"]]
        if mode != "mixed" and any(t[0] != mode for t in terms):
            return f"pure-{mode} file has terms of the other map"
        return oracles.decomposition_problem(nested, terms)
    return check


def _partition_text(p: tuple) -> str:
    return ",".join(map(str, p))


def cli_commands(rng: random.Random, workdir: Path) -> list:
    """``(label, argv, check, out_file)`` per process, in pass order.

    Tensor inputs come from the decompose and spectra generators.  Most
    processes are short, so that start-up, import and JSON I/O stay
    visible; the two heavy ones (identities, an n=4 decomposition) are
    2 of 17, so a run's p90 falls between them and not on an edge.
    """
    cmds = []
    cmds.append(("identities", ["identities", "--json"], _cli_json_check(_identities_problem), None))
    for n in (3, 4):
        path = _write_json(workdir / f"check{n}.json", tensor_json(curvature_input(rng, n)))
        cmds.append((f"check-curvature n={n}", ["check-curvature", path, "--json"],
                     _cli_json_check(_check_curvature_problem), None))
    for n, modes in ((3, MODES), (4, ("gamma",))):
        nested = curvature_input(rng, n)
        path = _write_json(workdir / f"decompose{n}.json", tensor_json(nested))
        for mode in modes:
            out_file = workdir / f"decomposition{n}-{mode}.json"
            cmds.append((f"decompose {mode} n={n}",
                         ["decompose", path, "--mode", mode, "--out", str(out_file)],
                         _decompose_file_check(nested, mode, out_file), out_file))
    for wl, wm in ((2, 2), (3, 2), (3, 3), (4, 3), (4, 4), (5, 3)):
        lam, mu = _pick_partition(rng, wl), _pick_partition(rng, wm)
        cmds.append((f"schur lr {wl}x{wm}", ["schur", "lr", _partition_text(lam), _partition_text(mu), "--json"],
                     _cli_json_check(_lr_json_problem(lam, mu)), None))
    for _ in range(2):
        l0, l1 = _nonzero_frac(rng, -4, 4, 3), _nonzero_frac(rng, -4, 4, 3)
        seed = rng.randrange(10 ** 6)
        # "--l0=-4/3", not "--l0 -4/3": argparse takes a bare "-4/3" for an option.
        cmds.append(("osserman demo", ["osserman", "demo", f"--l0={l0}", f"--l1={l1}", "--count", str(SAMPLES),
                                       "--seed", str(seed), "--json"],
                     _cli_json_check(_spectrum_problem([1] * 4, 1, oracles.clifford_spectrum(4, l0, [l1]))), None))
    lam0, lams = _nonzero_frac(rng, -4, 4, 3), [_nonzero_frac(rng, -4, 4, 3) for _ in range(2)]
    path = _write_json(workdir / "clifford4.json", tensor_json(clifford_tensor(4, lam0, lams, clifford_maps(4, 2))))
    metric = _write_json(workdir / "euclid4.json", {"p": 4, "q": 0})
    cmds.append(("osserman spectrum clifford", ["osserman", "spectrum", "--tensor", path, "--metric", metric,
                                                "--count", str(SAMPLES), "--seed", str(rng.randrange(10 ** 6)), "--json"],
                 _cli_json_check(_spectrum_problem([1] * 4, 1, oracles.clifford_spectrum(4, lam0, lams))), None))
    path = _write_json(workdir / "nilpotent2.json", tensor_json(nilpotent_tensor(2)))
    metric = _write_json(workdir / "split22.json", {"p": 2, "q": 2})
    cmds.append(("osserman spectrum nilpotent", ["osserman", "spectrum", "--tensor", path, "--metric", metric,
                                                 "--sign", "-", "--count", str(SAMPLES), "--seed", str(rng.randrange(10 ** 6)),
                                                 "--json"],
                 _cli_json_check(_spectrum_problem([1, 1, -1, -1], -1, [(Fraction(0), 4)])), None))
    return cmds


def build_cli(sc, rng: random.Random, workdir: Path, in_process: bool = False) -> list[Op]:
    """CLI processes, or, with ``in_process``, ``symcurv.cli.main(argv)``
    on the same argv (used by the traced run)."""
    env = dict(os.environ, PYTHONPATH=str(Path(sc.__file__).resolve().parent.parent))
    ops = []
    for label, argv, check, out_file in cli_commands(rng, workdir):
        def call(argv=argv, out_file=out_file):
            if out_file is not None and out_file.exists():
                out_file.unlink()
            if in_process:
                return run_cli_in_process(sc, argv)
            return run_cli_process(argv, workdir, env)
        ops.append(Op(label, call, check))
    return ops


BUILDERS = {
    "decompose": build_decompose,
    "spectra": build_spectra,
    "group_ring": build_group_ring,
    "cli": build_cli,
}
