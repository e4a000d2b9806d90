"""Coxeter polytopes for reflection groups on convex projective domains.

Validate Cartan data, build the fundamental polytope, enumerate and
classify its faces, tile the invariant domain by the reflection orbit,
measure volumes in the Hilbert metric, sample the limit set, and decide
the finite-volume / unique-domain questions with certificates.

`import vinberg` loads no submodule: each public name below is imported
from its module on first access, so a caller pays only for what it uses
(numpy loads with `hilbert`, `limits`, `svg` or a float computation).
"""

import importlib

# public name -> defining submodule
_EXPORTS = {
    name: module
    for module, names in {
        "cartan": (
            "CartanMatrix",
            "CartanValidationError",
            "classify_type",
            "irreducible_components",
            "restrict",
            "validate_cartan",
            "witness_vector",
        ),
        "coxeter": (
            "CoxeterMatrix",
            "classify_group",
            "coxeter_from_cartan",
            "coxeter_matrix",
            "gram_matrix",
        ),
        "decisions": (
            "NotNegativeType",
            "RouteDisagreement",
            "Verdict",
            "decide_finite_volume",
            "decide_limit_set_fills_boundary_necessary",
            "decide_min_domain_equals_vinberg",
            "decide_unique_domain",
            "volume_evidence",
        ),
        "formats": ("InputDocument", "build", "canonical_json", "parse", "serialize"),
        "hilbert": (
            "GeometryError",
            "busemann_density",
            "estimate_volume",
            "finsler_norm",
            "hilbert_distance",
            "join_divergence_probe",
            "monotonicity_probe",
            "volume_sequence",
            "witness_chart",
        ),
        "limits": (
            "LimitSetSample",
            "ProximalWitness",
            "detect_proximal",
            "hausdorff_gap",
            "hull_of_limit_set",
            "omega_min_seed",
            "sample_limit_set",
        ),
        "orbits": (
            "check_properness",
            "check_relations",
            "domain_approx",
            "expand_orbit",
            "form_signature",
            "generators",
            "invariant_form",
            "reflection",
            "representation_report",
            "supporting_covector",
        ),
        "polytope": (
            "CoxeterPolytope",
            "EmptyInteriorError",
            "FaceDescriptor",
            "NotReducedError",
            "PolytopeError",
            "RedundantFacetError",
            "bigger_face",
            "build_polytope",
            "classify_face",
            "decompose",
            "defines_face",
            "enumerate_faces",
            "face_witness",
            "is_2perfect",
            "is_perfect",
            "is_quasiperfect",
            "join",
            "link",
            "tits_polytope",
        ),
        "scalars": ("APPROX", "EXACT", "INFINITY", "InputError"),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
