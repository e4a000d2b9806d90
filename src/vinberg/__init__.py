"""Coxeter polytopes for reflection groups on convex projective domains.

Validate Cartan data, build the fundamental polytope, enumerate and
classify its faces, tile the invariant domain by the reflection orbit,
measure volumes in the Hilbert metric, sample the limit set, and decide
the finite-volume / unique-domain questions with certificates.
"""

from .cartan import (
    CartanMatrix,
    CartanValidationError,
    classify_type,
    irreducible_components,
    restrict,
    validate_cartan,
    witness_vector,
)
from .coxeter import (
    CoxeterMatrix,
    classify_group,
    coxeter_from_cartan,
    coxeter_matrix,
    gram_matrix,
)
from .decisions import (
    NotNegativeType,
    RouteDisagreement,
    Verdict,
    decide_finite_volume,
    decide_limit_set_fills_boundary_necessary,
    decide_min_domain_equals_vinberg,
    decide_unique_domain,
    volume_evidence,
)
from .formats import InputDocument, build, canonical_json, parse, serialize
from .hilbert import (
    GeometryError,
    busemann_density,
    estimate_volume,
    finsler_norm,
    hilbert_distance,
    join_divergence_probe,
    monotonicity_probe,
    volume_sequence,
    witness_chart,
)
from .limits import (
    LimitSetSample,
    ProximalWitness,
    detect_proximal,
    hausdorff_gap,
    hull_of_limit_set,
    omega_min_seed,
    sample_limit_set,
)
from .orbits import (
    check_properness,
    check_relations,
    domain_approx,
    expand_orbit,
    form_signature,
    generators,
    invariant_form,
    reflection,
    representation_report,
    supporting_covector,
)
from .polytope import (
    CoxeterPolytope,
    EmptyInteriorError,
    FaceDescriptor,
    NotReducedError,
    PolytopeError,
    RedundantFacetError,
    bigger_face,
    build_polytope,
    classify_face,
    decompose,
    defines_face,
    enumerate_faces,
    face_witness,
    is_2perfect,
    is_perfect,
    is_quasiperfect,
    join,
    link,
    tits_polytope,
)
from .scalars import APPROX, EXACT, INFINITY, InputError

__version__ = "0.1.0"
