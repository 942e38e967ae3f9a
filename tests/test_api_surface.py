"""The public surface of ``symcurv``: every name the package exports and,
for each public function and each public method of an exported class, its
parameter names, kinds and defaults (annotations are left out).

A refactor that drops or renames public API, or changes a parameter,
fails here; a deliberate change updates ``EXPECTED`` and says why.
"""

from __future__ import annotations

import inspect

import symcurv


def _plain(sig: inspect.Signature) -> str:
    """``sig`` as text without annotations: names, kinds (through the ``/``,
    ``*`` and ``**`` markers) and defaults."""
    return str(sig.replace(
        parameters=[p.replace(annotation=inspect.Parameter.empty)
                    for p in sig.parameters.values()],
        return_annotation=inspect.Signature.empty))


def public_surface() -> dict[str, str]:
    """One line per exported name and per public method of an exported
    class; constants are recorded by value.  Methods inherited from outside
    the package (``tuple.count``, ``Exception.add_note``) are left out."""
    out = {}
    for name in sorted(vars(symcurv)):
        obj = getattr(symcurv, name)
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        if not isinstance(obj, type):
            out[name] = _plain(inspect.signature(obj)) if callable(obj) else repr(obj)
            continue
        try:
            out[name] = "class " + _plain(inspect.signature(obj))
        except ValueError:  # an exception class has no signature of its own
            out[name] = "class"
        for attr in dir(obj):
            if attr.startswith("_"):
                continue
            static = inspect.getattr_static(obj, attr)
            if isinstance(static, property):
                out[f"{name}.{attr}"] = "property"
                continue
            func = getattr(static, "__func__", static)
            if not inspect.isfunction(func) or not func.__module__.startswith("symcurv"):
                continue
            kind = (type(static).__name__
                    if isinstance(static, (classmethod, staticmethod)) else "method")
            out[f"{name}.{attr}"] = f"{kind} {_plain(inspect.signature(func))}"
    return out


EXPECTED = {
    'CanonicalElements': 'class (symmetrizer, symmetrizer_star, swap_sym, swap_proj, pair_sym, pair_skew, gamma_generator, alpha_generator, gamma_preimage)',
    'CriteriaDisagreement': 'class',
    'CurvatureCheck': 'class (direct_ok, young_ok, first_violation, bianchi_nonzero)',
    'CurvatureCheck.ok': 'property',
    'CurvatureCheck.to_json_dict': 'method (self)',
    'CurvatureDecomposition': 'class (kind, dim, gamma_terms, alpha_terms)',
    'CurvatureDecomposition.approx_unit_terms': 'method (self)',
    'CurvatureDecomposition.from_json_dict': 'classmethod (cls, payload)',
    'CurvatureDecomposition.reconstruct': 'method (self)',
    'CurvatureDecomposition.term_count': 'property',
    'CurvatureDecomposition.to_json_dict': 'method (self)',
    'DEGREE_CAP': '8',
    'DecompositionTerm': 'class (sign, weight, matrix)',
    'DenseTensor': 'class (order, dim, data)',
    'DenseTensor.dim': 'property',
    'DenseTensor.from_entries': 'staticmethod (order, dim, entries)',
    'DenseTensor.from_function': 'staticmethod (order, dim, fn)',
    'DenseTensor.from_json_dict': 'staticmethod (payload)',
    'DenseTensor.from_nested': 'staticmethod (nested)',
    'DenseTensor.indices': 'method (self)',
    'DenseTensor.is_zero': 'property',
    'DenseTensor.nonzero_items': 'method (self)',
    'DenseTensor.order': 'property',
    'DenseTensor.rows': 'property',
    'DenseTensor.scale': 'method (self, scalar)',
    'DenseTensor.to_json_dict': 'method (self)',
    'DenseTensor.to_nested': 'method (self)',
    'DenseTensor.trace': 'method (self)',
    'DenseTensor.transpose': 'method (self)',
    'DenseTensor.zeros': 'staticmethod (order, dim)',
    'GroupRingElement': 'class (degree, terms=())',
    'GroupRingElement.coefficient': 'method (self, perm)',
    'GroupRingElement.degree': 'property',
    'GroupRingElement.from_json_dict': 'classmethod (cls, payload)',
    'GroupRingElement.from_permutation': 'classmethod (cls, perm, coeff=1)',
    'GroupRingElement.is_zero': 'property',
    'GroupRingElement.items': 'method (self)',
    'GroupRingElement.one': 'classmethod (cls, degree)',
    'GroupRingElement.scale': 'method (self, scalar)',
    'GroupRingElement.star': 'method (self)',
    'GroupRingElement.to_json_dict': 'method (self)',
    'GroupRingElement.zero': 'classmethod (cls, degree)',
    'IDEAL_KINDS': "('SS', 'SA', 'AS', 'AA')",
    'IdentityTableReport': 'class (lines)',
    'IdentityTableReport.all_ok': 'property',
    'IdentityTableReport.to_json_dict': 'method (self)',
    'LR_WEIGHT_CAP': '8',
    'LinearMap': 'class (rows)',
    'LinearMap.dim': 'property',
    'LinearMap.from_entries': 'staticmethod (order, dim, entries)',
    'LinearMap.from_function': 'staticmethod (order, dim, fn)',
    'LinearMap.from_json_dict': 'staticmethod (payload)',
    'LinearMap.from_nested': 'staticmethod (nested)',
    'LinearMap.identity': 'classmethod (cls, n)',
    'LinearMap.indices': 'method (self)',
    'LinearMap.is_zero': 'property',
    'LinearMap.nonzero_items': 'method (self)',
    'LinearMap.order': 'property',
    'LinearMap.rows': 'property',
    'LinearMap.scale': 'method (self, scalar)',
    'LinearMap.to_json_dict': 'method (self)',
    'LinearMap.to_nested': 'method (self)',
    'LinearMap.trace': 'method (self)',
    'LinearMap.transpose': 'method (self)',
    'LinearMap.zeros': 'staticmethod (order, dim)',
    'LorentzReport': 'class (q, skew_trials, skew_all_non_nilpotent, jacobi_all_zero)',
    'LorentzReport.ok': 'property',
    'LorentzReport.to_json_dict': 'method (self)',
    'Metric': 'class (matrix)',
    'Metric.dim': 'property',
    'Metric.from_json_dict': 'classmethod (cls, payload)',
    'Metric.inner': 'method (self, x, y)',
    'Metric.inverse_rows': 'property',
    'Metric.is_skew_map': 'method (self, mapping)',
    'Metric.is_standard_form': 'property',
    'Metric.lower_map': 'method (self, mapping)',
    'Metric.raise_form': 'method (self, form)',
    'Metric.rows': 'property',
    'Metric.signature': 'property',
    'Metric.standard': 'classmethod (cls, p, q)',
    'Metric.tensor': 'method (self)',
    'Metric.to_json_dict': 'method (self)',
    'NotACurvatureTensor': 'class',
    'PARTITION_CAP': '12',
    'Partition': 'class (parts=())',
    'Partition.conjugate': 'method (self)',
    'Partition.contains': 'method (self, other)',
    'Partition.from_json': 'classmethod (cls, payload)',
    'Partition.from_text': 'classmethod (cls, text)',
    'Partition.parts': 'property',
    'Partition.to_json': 'method (self)',
    'Partition.weight': 'property',
    'Permutation': 'class (images)',
    'Permutation.degree': 'property',
    'Permutation.from_cycles': 'classmethod (cls, degree, *cycles)',
    'Permutation.identity': 'classmethod (cls, degree)',
    'Permutation.images': 'property',
    'Permutation.inverse': 'method (self)',
    'Permutation.sign': 'method (self)',
    'SchurSum': 'class (terms=())',
    'SchurSum.items': 'method (self)',
    'SchurSum.multiplicity': 'method (self, part)',
    'SchurSum.to_json_dict': 'method (self)',
    'SignatureError': 'class',
    'SpectrumReport': 'class (sign, samples, roots, remainders, constant, all_rational)',
    'SpectrumReport.to_json_dict': 'method (self)',
    'YoungTableau': 'class (rows)',
    'YoungTableau.columns': 'method (self)',
    'YoungTableau.from_json_dict': 'classmethod (cls, payload)',
    'YoungTableau.from_text': 'classmethod (cls, text)',
    'YoungTableau.is_standard': 'property',
    'YoungTableau.rows': 'property',
    'YoungTableau.shape': 'property',
    'YoungTableau.size': 'property',
    'YoungTableau.to_json_dict': 'method (self)',
    'YoungTableau.to_text': 'method (self)',
    'alpha': '(a)',
    'apply_symmetry_operator': '(a, tensor)',
    'bianchi_defect': '(tensor)',
    'canonical_elements': '()',
    'char_poly': '(mapping)',
    'check_curvature': '(tensor)',
    'clifford_check': '(maps, g, generalized=False)',
    'clifford_family': '(lam0, lams, maps, g)',
    'conjugate': '(lam)',
    'curvature_tableau': '()',
    'decompose_mixed': '(tensor)',
    'decompose_pure': '(tensor, kind)',
    'derivative_idempotent': '(u, cap=8)',
    'enumerate_group': '(r, cap=8)',
    'gamma': '(s)',
    'hook_length_count': '(lam)',
    'ideal_structure': '(kind)',
    'is_algebraic_curvature': '(tensor)',
    'jacobi_alpha_closed': '(a, g, x)',
    'jacobi_gamma_closed': '(s, g, x)',
    'jacobi_operator': '(tensor, g, x)',
    'jordan_family': '(coefficients, cross_coefficients, skews)',
    'lorentz_checks': '(q, trials, *, seed=0)',
    'lr_product': '(lam, mu, cap=8)',
    'nilpotency_check': '(tensor, g, samples, seed=0)',
    'nilpotent_skew_example': '(p, q)',
    'nilpotent_sym_example': '(p, q)',
    'osserman_spectrum_sample': '(tensor, g, count, sign, seed=0)',
    'partitions_of': '(r, cap=12)',
    'perm_compose': '(p, q)',
    'plethysm_sym2': '(n, cap=6)',
    'plethysm_transpose': '(s)',
    'quaternion_triple': '()',
    'rational_roots': '(coefficients)',
    'ring_product': '(a, b)',
    'sample_unit_vectors': '(g, sign, count, seed=0)',
    'sample_vectors': '(dim, count, seed=0)',
    'slice_pairs': '(tensor)',
    'solve_right_factor': '(a, c, cap=8)',
    'standard_tableaux': '(lam, cap=8)',
    'star': '(a)',
    'sym_split': '(m)',
    'tensor_product': '(m, n)',
    'to_group_ring': '(tensor, vectors)',
    'verify_identity_table': '(elements=None)',
    'young_symmetrizer': '(tableau, cap=8)',
}


def test_public_surface_is_unchanged():
    surface = public_surface()
    assert sorted(set(EXPECTED) - set(surface)) == [], "public names removed"
    assert sorted(set(surface) - set(EXPECTED)) == [], "public names added"
    assert {k: v for k, v in surface.items() if EXPECTED[k] != v} == {}
