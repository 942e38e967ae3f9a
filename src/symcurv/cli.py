"""Command-line surface: verification reports and JSON tensor I/O.

Each ``cmd_*`` returns its report as ``(payload, text_lines, exit_code)``
and prints nothing; ``main`` alone writes stdout (the payload as JSON under
``--json``, else the text lines) and maps errors to exit codes.

Exit codes: 0 success, 1 a verification ran and failed, 2 unreadable or
malformed input (or a report holding a number past the interpreter's
digit limit), 3 a mathematical precondition was violated (e.g. the
input is not a curvature tensor), 4 the requested construction cannot
exist in the requested signature.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from ._exact import exact
from .curvature import (
    IdentityTableReport,
    NotACurvatureTensor,
    TableLine,
    alpha,
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


def _load(path: str, parse, what: str):
    """``parse`` of the JSON in ``path``; a payload it refuses is an
    invalid ``what``."""
    payload = _load_json(path)
    try:
        return parse(payload)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as err:
        raise _InputError(f"{path}: invalid {what} JSON: {err}")


def _load_tensor(path: str) -> DenseTensor:
    """The order-4 tensor in ``path``."""
    tensor = _load(path, DenseTensor.from_json_dict, "tensor")
    if tensor.order != 4:
        raise _InputError(f"{path}: expected an order-4 tensor, got order {tensor.order}")
    return tensor


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


#: What a command returns: its JSON payload, its text lines (``None`` for a
#: command with no text form) and its exit code.
Report = tuple[dict, list[str] | None, int]


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def cmd_identities(args) -> Report:
    lines = list(verify_identity_table().lines)
    for u in (0, 1, 2):
        idem = derivative_idempotent(u)
        lines.append(TableLine(
            f"derivative idempotent u={u} (degree {u + 4}): e.e == e",
            idem * idem == idem,
        ))
    report = IdentityTableReport(tuple(lines))
    text = [f"{'PASS' if line.passed else 'FAIL'}  {line.label}" for line in report.lines]
    verdict = "all passed" if report.all_ok else "FAILURES above"
    text.append(f"{len(report.lines)} checks: {verdict}")
    return report.to_json_dict(), text, 0 if report.all_ok else 1


def cmd_check_curvature(args) -> Report:
    tensor = _load_tensor(args.path)
    result = check_curvature(tensor)
    direct = "PASS" if result.direct_ok else f"FAIL ({result.first_violation})"
    text = [f"direct symmetries + Bianchi: {direct}",
            "symmetrizer criterion (ystar T == 12 T): "
            + ("PASS" if result.young_ok else "FAIL"),
            f"Bianchi defect nonzero entries: {result.bianchi_nonzero}",
            "PASS" if result.ok else "FAIL"]
    return result.to_json_dict(), text, 0 if result.ok else 3


def cmd_decompose(args) -> Report:
    """The decomposition JSON has no text form: the text lines are ``None``
    unless ``--out`` took the JSON, and then they name the file."""
    tensor = _load_tensor(args.path)
    if args.mode == "mixed":
        decomposition = decompose_mixed(tensor)
    else:
        decomposition = decompose_pure(tensor, args.mode)
    # decompose_* return only after checking exactly that their terms sum
    # to the input; a mismatch raises instead.
    payload = decomposition.to_json_dict()
    payload["reconstruction_exact"] = True
    if not args.out:
        return payload, None, 0
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(_json_text(payload) + "\n")
    except OSError as err:
        raise _InputError(f"{args.out}: {err.strerror or err}")
    return payload, [f"{decomposition.kind}: {decomposition.term_count} terms -> "
                     f"{args.out}; reconstruction exact: yes"], 0


def cmd_schur_lr(args) -> Report:
    try:
        result = lr_product(_parse_partition(args.lam), _parse_partition(args.mu))
    except ValueError as err:
        raise _InputError(f"schur lr: {err}")
    return result.to_json_dict(), [str(result)], 0


def cmd_schur_plethysm(args) -> Report:
    try:
        result = plethysm_sym2(args.n)
    except ValueError as err:
        raise _InputError(f"schur plethysm: {err}")
    if args.kind == "alt2":
        result = plethysm_transpose(result)
    return result.to_json_dict(), [str(result)], 0


def _spectrum_report(args, tensor, metric, sign, title=None) -> Report:
    """Sample the Jacobi spectra and report them, with exit code 1 unless
    they are constant."""
    report = osserman_spectrum_sample(tensor, metric, args.count, sign, args.seed)
    text = [title] if title else []
    text.append(f"{len(report.samples)} samples on g(x,x) == {report.sign:+d}")
    for x, roots, remainder in zip(report.samples, report.roots, report.remainders):
        shown = ", ".join(f"{root} (x{mult})" for root, mult in roots) or "-"
        extra = "" if len(remainder) == 1 else \
            f"; unfactored degree {len(remainder) - 1}"
        text.append(f"  x = ({', '.join(str(v) for v in x)}): roots {shown}{extra}")
    if not report.all_rational:
        text.append("note: non-rational spectrum; constancy checked at "
                    "characteristic-polynomial level")
    text.append(f"constant across samples: {'yes' if report.constant else 'NO'}")
    return report.to_json_dict(), text, 0 if report.constant else 1


def _nilpotency_report(args, kind, p, q, fields, title=None) -> Report:
    """Check ``J(x)^2 == 0`` for the built-in ``kind`` ("sym" or "skew")
    example on signature (p, q) and report the verdict (``fields`` name the
    example in the payload), with exit code 1 if it fails."""
    metric = Metric.standard(p, q)
    tensor = (gamma(nilpotent_sym_example(p, q)) if kind == "sym"
              else alpha(nilpotent_skew_example(p, q)))
    ok = nilpotency_check(tensor, metric, args.samples, args.seed)
    text = [title] if title else []
    text.append(f"J(x)^2 == 0 at all {args.samples} samples: " + ("PASS" if ok else "FAIL"))
    payload = {**fields, "p": p, "q": q, "samples": args.samples, "nilpotent": ok}
    return payload, text, 0 if ok else 1


def cmd_osserman_spectrum(args) -> Report:
    tensor = _load_tensor(args.tensor)
    metric = _load(args.metric, Metric.from_json_dict, "metric")
    if tensor.dim != metric.dim:
        raise _InputError(
            f"tensor dimension {tensor.dim} does not match metric dimension "
            f"{metric.dim}")
    return _spectrum_report(args, tensor, metric, 1 if args.sign == "+" else -1)


def cmd_osserman_nilpotent(args) -> Report:
    _require_signature(args.p, args.q)
    return _nilpotency_report(args, args.kind, args.p, args.q, {"kind": args.kind})


def cmd_osserman_lorentz(args) -> Report:
    _require_signature(1, args.q)
    report = lorentz_checks(args.q, args.trials, seed=args.seed)
    text = [f"signature (1,{args.q})",
            f"  {report.skew_trials} random nonzero skew A, all with "
            f"(A F)^2 != 0: " + ("PASS" if report.skew_all_non_nilpotent else "FAIL"),
            "  J == 0 for the nilpotent-symmetric construction (exact: T == 0): "
            + ("PASS" if report.jacobi_all_zero else "FAIL"),
            "PASS" if report.ok else "FAIL"]
    return report.to_json_dict(), text, 0 if report.ok else 1


def cmd_osserman_demo(args) -> Report:
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
    parser.set_defaults(json=False)  # decompose writes JSON only
    commands = parser.add_subparsers(dest="command", required=True)

    identities = commands.add_parser(
        "identities", help="verify the generator product table and the "
                           "derivative idempotents")
    identities.set_defaults(func=cmd_identities)

    check = commands.add_parser(
        "check-curvature", help="test an order-4 tensor file for the "
                                "curvature symmetries")
    check.add_argument("path")
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
    lr.set_defaults(func=cmd_schur_lr)
    plethysm = schur_sub.add_parser("plethysm",
                                    help="Sym^n(Sym^2) or Sym^n(Alt^2) in Schur terms")
    plethysm.add_argument("kind", choices=("sym2", "alt2"),
                          help="sym2: h_n[h_2] = Sym^n(Sym^2); alt2: h_n[e_2] = Sym^n(Alt^2)")
    plethysm.add_argument("n", type=int, help="the outer degree n")
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
    spectrum.set_defaults(func=cmd_osserman_spectrum)

    nilpotent = osserman_sub.add_parser("nilpotent",
                                        help="built-in nilpotent examples "
                                             "with J^2 == 0")
    nilpotent.add_argument("--kind", choices=("sym", "skew"), default="sym")
    nilpotent.add_argument("--p", type=int, required=True)
    nilpotent.add_argument("--q", type=int, required=True)
    nilpotent.add_argument("--samples", type=_count, default=20)
    nilpotent.add_argument("--seed", type=int, default=0)
    nilpotent.set_defaults(func=cmd_osserman_nilpotent)

    lorentz = osserman_sub.add_parser("lorentz",
                                      help="signature (1,q) rigidity checks")
    lorentz.add_argument("--q", type=_positive_int, required=True)
    lorentz.add_argument("--trials", type=_count, default=50)
    lorentz.add_argument("--seed", type=int, default=0)
    lorentz.set_defaults(func=cmd_osserman_lorentz)

    demo = osserman_sub.add_parser("demo", help="run a built-in example")
    demo.add_argument("--family",
                      choices=("clifford", "nilpotent-gamma", "nilpotent-alpha"),
                      default="clifford")
    demo.add_argument("--l0", type=_fraction, default=Fraction(2),
                      help="coefficient l0; read by the clifford family only")
    demo.add_argument("--l1", type=_fraction, default=Fraction(1),
                      help="coefficient l1; read by the clifford family only")
    demo.add_argument("--count", type=_count, default=10,
                      help="sample count; read by the clifford family only")
    demo.add_argument("--samples", type=_count, default=20,
                      help="sample count; read by the nilpotent families only")
    demo.add_argument("--seed", type=int, default=0)
    demo.set_defaults(func=cmd_osserman_demo)
    # argparse reads only integers and decimals such as -4 or -0.5 as
    # negative numbers; let "--l0 -4/3" pass a negative fraction too.
    demo._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    # added last, so that usage lines keep listing it after the other options
    for reporting in (identities, check, lr, plethysm, spectrum, nilpotent, lorentz, demo):
        reporting.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    """Run one command, then write either its whole report to stdout or one
    ``error:`` line to stderr."""
    args = build_parser().parse_args(argv)
    try:
        payload, lines, code = args.func(args)
        output = _json_text(payload) if lines is None or args.json else "\n".join(lines)
    except _InputError as err:
        code, error = 2, str(err)
    except NotACurvatureTensor as err:
        code, error = 3, str(err)
    except SignatureError as err:
        code, error = 4, str(err)
    except ValueError as err:
        # a result with an integer too long for str(); the JSON reader keeps
        # the same limit to refuse over-long numbers, so it is not lifted
        if "integer string conversion" not in str(err):
            raise
        code, error = 2, (f"the report holds a number of more than "
                          f"{sys.get_int_max_str_digits()} digits, past the "
                          "interpreter's limit for integer string conversion")
    else:
        print(output)
        return code
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
