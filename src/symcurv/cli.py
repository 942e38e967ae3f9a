"""Command-line surface: verification reports and JSON tensor I/O.

Exit codes: 0 success, 1 a verification ran and failed, 2 unreadable or
malformed input, 3 a mathematical precondition was violated (e.g. the
input is not a curvature tensor), 4 the requested construction cannot
exist in the requested signature.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import replace
from fractions import Fraction

from ._exact import exact
from .curvature import (
    IdentityTableReport,
    NotACurvatureTensor,
    TableLine,
    alpha,
    canonical_elements,
    check_curvature,
    decompose_mixed,
    decompose_pure,
    gamma,
    verify_identity_table,
)
from .osserman import (
    Metric,
    SignatureError,
    check_signature,
    clifford_family,
    lorentz_checks,
    nilpotency_check,
    nilpotent_skew_example,
    nilpotent_sym_example,
    osserman_spectrum_sample,
    quaternion_triple,
)
from .schur import lr_product, plethysm_sym2, plethysm_transpose
from .tensor_ops import DenseTensor
from .young import Partition, derivative_idempotent


class _InputError(Exception):
    """Unreadable or malformed input; mapped to exit code 2."""


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as err:
        raise _InputError(f"{path}: {err.strerror or err}")
    except json.JSONDecodeError as err:
        raise _InputError(
            f"{path}: parse error at line {err.lineno}, column {err.colno}: {err.msg}"
        )
    except (ValueError, RecursionError) as err:
        # bytes that are not UTF-8, a number too long to convert, deep nesting
        raise _InputError(f"{path}: unreadable JSON: {err}")


def _load_tensor(path: str, expect_order: int | None = None) -> DenseTensor:
    payload = _load_json(path)
    try:
        tensor = DenseTensor.from_json_dict(payload)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as err:
        raise _InputError(f"{path}: invalid tensor JSON: {err}")
    if expect_order is not None and tensor.order != expect_order:
        raise _InputError(
            f"{path}: expected an order-{expect_order} tensor, got order "
            f"{tensor.order}"
        )
    return tensor


def _load_metric(path: str) -> Metric:
    payload = _load_json(path)
    try:
        return Metric.from_json_dict(payload)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as err:
        raise _InputError(f"{path}: invalid metric JSON: {err}")


def _require_signature(p: int, q: int) -> None:
    try:
        check_signature(p, q)
    except ValueError as err:
        raise _InputError(f"metric: {err}")


#: Largest sample or trial count the CLI accepts.
COUNT_CAP = 10_000


def _positive_int(text: str) -> int:
    """argparse type for a positive integer."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _count(text: str) -> int:
    """argparse type for sample and trial counts: a positive integer of at
    most ``COUNT_CAP``."""
    value = _positive_int(text)
    if value > COUNT_CAP:
        raise argparse.ArgumentTypeError(
            f"expected a count of at most the cap {COUNT_CAP}, got {text!r}")
    return value


def _fraction(text: str) -> Fraction:
    """argparse type for exact coefficients such as 2, -4/3 or 0.5."""
    try:
        return exact(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a fraction, got {text!r}")


def _parse_partition(text: str) -> Partition:
    try:
        return Partition.from_text(text)
    except ValueError as err:
        raise _InputError(f"bad partition {text!r}: {err}")


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _print_report_lines(lines) -> None:
    for line in lines:
        print(f"{'PASS' if line.passed else 'FAIL'}  {line.label}")


def cmd_identities(args) -> int:
    elements = canonical_elements()
    if args.corrupt:
        elements = replace(elements,
                           alpha_generator=elements.alpha_generator.scale(2))
    lines = list(verify_identity_table(elements).lines)
    for u in (0, 1, 2):
        idem = derivative_idempotent(u)
        lines.append(TableLine(
            f"derivative idempotent u={u} (degree {u + 4}): e.e == e",
            idem * idem == idem,
        ))
    report = IdentityTableReport(tuple(lines))
    if args.json:
        _emit_json(report.to_json_dict())
    else:
        _print_report_lines(report.lines)
        verdict = "all passed" if report.all_ok else "FAILURES above"
        print(f"{len(report.lines)} checks: {verdict}")
    return 0 if report.all_ok else 1


def cmd_check_curvature(args) -> int:
    tensor = _load_tensor(args.path, expect_order=4)
    result = check_curvature(tensor)
    if args.json:
        _emit_json(result.to_json_dict())
    else:
        if result.direct_ok:
            print("direct symmetries + Bianchi: PASS")
        else:
            print(f"direct symmetries + Bianchi: FAIL ({result.first_violation})")
        print("symmetrizer criterion (ystar T == 12 T): "
              + ("PASS" if result.young_ok else "FAIL"))
        print(f"Bianchi defect nonzero entries: {result.bianchi_nonzero}")
        print("PASS" if result.ok else "FAIL")
    return 0 if result.ok else 3


def cmd_decompose(args) -> int:
    tensor = _load_tensor(args.path, expect_order=4)
    if args.mode == "mixed":
        decomposition = decompose_mixed(tensor)
    else:
        decomposition = decompose_pure(tensor, args.mode)
    # decompose_* return only after comparing their exact reconstruction
    # with the input; a mismatch raises instead.
    payload = decomposition.to_json_dict()
    payload["reconstruction_exact"] = True
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as err:
            raise _InputError(f"{args.out}: {err.strerror or err}")
        print(f"{decomposition.kind}: {decomposition.term_count} terms -> {args.out}; "
              "reconstruction exact: yes")
    else:
        print(text)
    return 0


def cmd_schur_lr(args) -> int:
    try:
        result = lr_product(_parse_partition(args.lam), _parse_partition(args.mu))
    except ValueError as err:
        raise _InputError(f"schur lr: {err}")
    if args.json:
        _emit_json(result.to_json_dict())
    else:
        print(result)
    return 0


def cmd_schur_plethysm(args) -> int:
    try:
        result = plethysm_sym2(args.n)
    except ValueError as err:
        raise _InputError(f"schur plethysm: {err}")
    if args.kind == "alt2":
        result = plethysm_transpose(result)
    if args.json:
        _emit_json(result.to_json_dict())
    else:
        print(result)
    return 0


def _spectrum_report(args, tensor, metric, sign, title=None) -> int:
    """Sample the Jacobi spectra, print them as text or ``--json``, and
    return exit code 1 unless they are constant."""
    report = osserman_spectrum_sample(tensor, metric, args.count, sign, args.seed)
    if args.json:
        _emit_json(report.to_json_dict())
    else:
        if title:
            print(title)
        print(f"{len(report.samples)} samples on g(x,x) == {report.sign:+d}")
        for x, roots, remainder in zip(report.samples, report.roots, report.remainders):
            shown = ", ".join(f"{root} (x{mult})" for root, mult in roots) or "-"
            extra = "" if len(remainder) == 1 else \
                f"; unfactored degree {len(remainder) - 1}"
            print(f"  x = ({', '.join(str(v) for v in x)}): roots {shown}{extra}")
        if not report.all_rational:
            print("note: non-rational spectrum; constancy checked at "
                  "characteristic-polynomial level")
        print(f"constant across samples: {'yes' if report.constant else 'NO'}")
    return 0 if report.constant else 1


def _nilpotency_report(args, kind, p, q, fields, title=None) -> int:
    """Check ``J(x)^2 == 0`` for the built-in ``kind`` ("sym" or "skew")
    example on signature (p, q), print the verdict as text or ``--json``
    (``fields`` name the example), and return exit code 1 if it fails."""
    metric = Metric.standard(p, q)
    tensor = (gamma(nilpotent_sym_example(p, q)) if kind == "sym"
              else alpha(nilpotent_skew_example(p, q)))
    ok = nilpotency_check(tensor, metric, args.samples, args.seed)
    if args.json:
        _emit_json({**fields, "p": p, "q": q, "samples": args.samples, "nilpotent": ok})
    else:
        if title:
            print(title)
        print(f"J(x)^2 == 0 at all {args.samples} samples: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def cmd_osserman_spectrum(args) -> int:
    tensor = _load_tensor(args.tensor, expect_order=4)
    metric = _load_metric(args.metric)
    if tensor.dim != metric.dim:
        raise _InputError(
            f"tensor dimension {tensor.dim} does not match metric dimension "
            f"{metric.dim}")
    return _spectrum_report(args, tensor, metric, 1 if args.sign == "+" else -1)


def cmd_osserman_nilpotent(args) -> int:
    _require_signature(args.p, args.q)
    return _nilpotency_report(args, args.kind, args.p, args.q, {"kind": args.kind})


def cmd_osserman_lorentz(args) -> int:
    _require_signature(1, args.q)
    report = lorentz_checks(args.q, args.trials, args.samples, args.seed)
    if args.json:
        _emit_json(report.to_json_dict())
    else:
        print(f"signature (1,{args.q})")
        print(f"  {report.skew_trials} random nonzero skew A, all with "
              f"(A F)^2 != 0: " + ("PASS" if report.skew_all_non_nilpotent else "FAIL"))
        print(f"  J == 0 for the nilpotent-symmetric construction at "
              f"{report.jacobi_samples} samples: "
              + ("PASS" if report.jacobi_all_zero else "FAIL"))
        print("PASS" if report.ok else "FAIL")
    return 0 if report.ok else 1


def cmd_osserman_demo(args) -> int:
    if args.family == "clifford":
        metric = Metric.standard(4, 0)
        tensor = clifford_family(args.l0, [args.l1], [quaternion_triple()[0]], metric)
        return _spectrum_report(args, tensor, metric, 1,
                                f"curvature family with coefficients l0={args.l0}, "
                                f"l1={args.l1} on Euclidean R^4")
    kind, p, q = ("sym", 1, 1) if args.family == "nilpotent-gamma" else ("skew", 2, 2)
    return _nilpotency_report(args, kind, p, q, {"family": args.family},
                              f"{args.family} example on signature ({p},{q})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symcurv",
        description="Exact verification and decomposition of algebraic "
                    "curvature tensors.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    identities = commands.add_parser(
        "identities", help="verify the generator product table and the "
                           "derivative idempotents")
    identities.add_argument("--json", action="store_true")
    identities.add_argument("--corrupt", action="store_true",
                            help=argparse.SUPPRESS)  # failure-path test hook
    identities.set_defaults(func=cmd_identities)

    check = commands.add_parser(
        "check-curvature", help="test an order-4 tensor file for the "
                                "curvature symmetries")
    check.add_argument("path")
    check.add_argument("--json", action="store_true")
    check.set_defaults(func=cmd_check_curvature)

    decompose = commands.add_parser(
        "decompose", help="decompose a curvature tensor file into gammas "
                          "only or alphas only")
    decompose.add_argument("path")
    decompose.add_argument("--mode", choices=("mixed", "gamma", "alpha"),
                           default="mixed",
                           help="gamma: gammas only; alpha: alphas only; "
                                "mixed (the default): the alpha terms, "
                                "labelled 'mixed'")
    decompose.add_argument("--out", help="write the decomposition JSON here "
                                         "instead of stdout")
    decompose.set_defaults(func=cmd_decompose)

    schur = commands.add_parser("schur", help="partition-level verification "
                                              "combinatorics")
    schur_sub = schur.add_subparsers(dest="schur_command", required=True)
    lr = schur_sub.add_parser("lr", help="Littlewood-Richardson product")
    lr.add_argument("lam", help="first partition, e.g. 2")
    lr.add_argument("mu", help="second partition, e.g. 1,1")
    lr.add_argument("--json", action="store_true")
    lr.set_defaults(func=cmd_schur_lr)
    plethysm = schur_sub.add_parser("plethysm",
                                    help="symmetric/alternating square rules")
    plethysm.add_argument("kind", choices=("sym2", "alt2"))
    plethysm.add_argument("n", type=int)
    plethysm.add_argument("--json", action="store_true")
    plethysm.set_defaults(func=cmd_schur_plethysm)

    osserman = commands.add_parser("osserman",
                                   help="Jacobi-operator spectra and the "
                                        "indefinite-signature examples")
    osserman_sub = osserman.add_subparsers(dest="osserman_command", required=True)

    spectrum = osserman_sub.add_parser("spectrum",
                                       help="exact spectra at sampled "
                                            "pseudo-unit vectors")
    spectrum.add_argument("--tensor", required=True)
    spectrum.add_argument("--metric", required=True)
    spectrum.add_argument("--sign", choices=("+", "-"), default="+")
    spectrum.add_argument("--count", type=_count, default=10)
    spectrum.add_argument("--seed", type=int, default=0)
    spectrum.add_argument("--json", action="store_true")
    spectrum.set_defaults(func=cmd_osserman_spectrum)

    nilpotent = osserman_sub.add_parser("nilpotent",
                                        help="built-in nilpotent examples "
                                             "with J^2 == 0")
    nilpotent.add_argument("--kind", choices=("sym", "skew"), default="sym")
    nilpotent.add_argument("--p", type=int, required=True)
    nilpotent.add_argument("--q", type=int, required=True)
    nilpotent.add_argument("--samples", type=_count, default=20)
    nilpotent.add_argument("--seed", type=int, default=0)
    nilpotent.add_argument("--json", action="store_true")
    nilpotent.set_defaults(func=cmd_osserman_nilpotent)

    lorentz = osserman_sub.add_parser("lorentz",
                                      help="signature (1,q) rigidity checks")
    lorentz.add_argument("--q", type=_positive_int, required=True)
    lorentz.add_argument("--trials", type=_count, default=50)
    lorentz.add_argument("--samples", type=_count, default=20)
    lorentz.add_argument("--seed", type=int, default=0)
    lorentz.add_argument("--json", action="store_true")
    lorentz.set_defaults(func=cmd_osserman_lorentz)

    demo = osserman_sub.add_parser("demo", help="run a built-in example")
    demo.add_argument("--family",
                      choices=("clifford", "nilpotent-gamma", "nilpotent-alpha"),
                      default="clifford")
    demo.add_argument("--l0", type=_fraction, default=Fraction(2))
    demo.add_argument("--l1", type=_fraction, default=Fraction(1))
    demo.add_argument("--count", type=_count, default=10)
    demo.add_argument("--samples", type=_count, default=20)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--json", action="store_true")
    demo.set_defaults(func=cmd_osserman_demo)
    # argparse reads only integers and decimals such as -4 or -0.5 as
    # negative numbers; let "--l0 -4/3" pass a negative fraction too.
    demo._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NotACurvatureTensor as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except SignatureError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
