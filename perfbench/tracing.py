"""Span tracer that wraps ``symcurv``'s public functions from outside.

While installed, each wrapped function or method records a span (name,
start, end, parent) and the counters named in the README.  Functions are
replaced in every ``symcurv`` module namespace that holds them, so calls
between modules are traced too; :meth:`Tracer.installed` restores the
originals on exit.  A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from fractions import Fraction
from math import gcd

MODULES = ("symgroup", "young", "tensor_ops", "curvature", "schur", "osserman", "cli")


def _bits(value: Fraction) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def _scaled_constant_bits(coefficients) -> int:
    """Bit length of the integer constant term that ``rational_roots``
    factors first: strip zero roots, clear denominators by ``x = L t``."""
    coeffs = [Fraction(c) for c in coefficients]
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    if len(coeffs) < 2:
        return 0
    coeffs = [c / coeffs[0] for c in coeffs]
    scale = 1
    for c in coeffs:
        scale = scale * c.denominator // gcd(scale, c.denominator)
    return abs(int(coeffs[-1] * scale ** (len(coeffs) - 1))).bit_length()


class Tracer:
    """In-memory spans plus per-layer counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._deferred: list[tuple[str, object]] = []

    # ------------------------------------------------------------ spans

    def _wrap(self, name: str, fn, on_call=None, on_result=None, when=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when(*args):
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(*args, **kwargs)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [len(tracer.spans) + len(tracer._stack), name, time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - frame[2]
                tracer.self_s[name] += duration - frame[3]
                tracer.counts[name + ".calls"] += 1
                if tracer._stack:
                    tracer._stack[-1][3] += duration
                tracer.spans.append((frame[0], parent, name, frame[2], end))
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count(self, key: str, amount: int) -> None:
        self.counts[key] += amount

    def _defer(self, kind: str, value) -> None:
        self._deferred.append((kind, value))

    # ------------------------------------------------------ installation

    def _plan(self, sc):
        """``(owner, attribute, name, on_call, on_result, when)`` for every
        target, and the ``DenseTensor.__init__`` counting hook.  A target
        with a ``when`` predicate is traced only when it holds: products
        with a scalar are not ``ring_product`` calls."""
        sg, to, cv, os_ = sc.symgroup, sc.tensor_ops, sc.curvature, sc.osserman
        GroupRingElement, DenseTensor = sg.GroupRingElement, to.DenseTensor

        def ring_pairs(a, b):
            self._count("symgroup.ring_product.pairs", len(a) * len(b))

        def entry_reads(a, tensor):
            self._count("tensor_ops.apply_symmetry_operator.entry_reads",
                        len(a) * tensor.dim ** tensor.order)

        def dense_init(_self, order, dim, *_rest, **_kw):
            self._count("tensor_ops.dense_entries", dim ** order)

        def two_elements(_a, b, *_rest):
            return isinstance(b, GroupRingElement)

        plan = [
            (GroupRingElement, "__mul__", "symgroup.ring_product", ring_pairs, None, two_elements),
            (sg, "solve_right_factor", "symgroup.solve_right_factor", None, None, None),
            (sc.young, "young_symmetrizer", "young.young_symmetrizer", None,
             lambda y: self._count("young.young_symmetrizer.support", len(y)), None),
            (sc.young, "derivative_idempotent", "young.derivative_idempotent", None, None, None),
            (to, "apply_symmetry_operator", "tensor_ops.apply_symmetry_operator", entry_reads, None, None),
            (to, "slice_pairs", "tensor_ops.slice_pairs", None, None, None),
            (to, "sym_split", "tensor_ops.sym_split", None, None, None),
            (cv, "check_curvature", "curvature.check_curvature", None, None, None),
            (cv, "gamma", "curvature.gamma", None, None, None),
            (cv, "alpha", "curvature.alpha", None, None, None),
            (cv.CurvatureDecomposition, "reconstruct", "curvature.reconstruct", None, None, None),
            (cv, "decompose_mixed", "curvature.decompose", None,
             lambda d: self._defer("decomposition", d), None),
            (cv, "decompose_pure", "curvature.decompose", None,
             lambda d: self._defer("decomposition", d), None),
            (sc.schur, "lr_product", "schur.lr_product", None,
             lambda s: self._count("schur.lr_product.terms", len(s)), None),
            (os_, "jacobi_operator", "osserman.jacobi_operator", None, None, None),
            (os_, "char_poly", "osserman.char_poly", None,
             lambda p: self._defer("char_poly", p), None),
            (os_, "rational_roots", "osserman.rational_roots",
             lambda coefficients: self._defer("roots_input", tuple(coefficients)), None, None),
            (os_, "sample_unit_vectors", "osserman.sample_unit_vectors", None, None, None),
            (os_, "clifford_family", "osserman.clifford_family", None, None, None),
            (sc.cli, "main", "cli.main", None, None, None),
        ]
        for method in ("__add__", "__sub__", "__neg__", "scale", "transpose", "__eq__"):
            plan.append((DenseTensor, method, "tensor_ops.dense_arith", None, None, None))
        return plan, (DenseTensor, "__init__", dense_init)

    @contextlib.contextmanager
    def installed(self, sc):
        """Wrap the targets in every symcurv namespace; restore on exit."""
        import symcurv.cli  # noqa: F401  (so its namespace is patched too)

        plan, (init_owner, init_attr, init_hook) = self._plan(sc)
        namespaces = [sc] + [getattr(sc, m) for m in MODULES]
        saved = []
        for owner, attr, name, on_call, on_result, when in plan:
            original = owner.__dict__[attr]
            wrapped = self._wrap(name, original, on_call, on_result, when)
            if isinstance(owner, type):
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for ns in namespaces:
                if ns.__dict__.get(attr) is original:
                    saved.append((ns, attr, original))
                    setattr(ns, attr, wrapped)
        original_init = init_owner.__dict__[init_attr]

        def init(obj, *args, **kwargs):
            init_hook(obj, *args, **kwargs)
            original_init(obj, *args, **kwargs)

        saved.append((init_owner, init_attr, original_init))
        setattr(init_owner, init_attr, init)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # ------------------------------------------------------------ output

    def _raise_max(self, key: str, value: int) -> None:
        self.maxima[key] = max(self.maxima[key], value)

    def settle(self) -> None:
        """Evaluate counters that would be costly inside a span."""
        for kind, value in self._deferred:
            if kind == "decomposition":
                terms = value.gamma_terms + value.alpha_terms
                self._count("curvature.decompose.terms", len(terms))
                bits = [_bits(t.weight) for t in terms]
                bits += [_bits(v) for t in terms for row in t.matrix.to_nested() for v in row]
                self._raise_max("curvature.coeff_bits_max", max(bits, default=0))
            elif kind == "char_poly":
                self._raise_max("osserman.coeff_bits_max", max(map(_bits, value)))
            else:
                self._raise_max("osserman.rational_roots.constant_bits_max",
                                _scaled_constant_bits(value))
        self._deferred.clear()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end in sorted(self.spans):
                handle.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                         "start_s": start, "end_s": end}) + "\n")
