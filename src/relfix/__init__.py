"""relfix: a workbench for relational structures over recursive domain
equations on finite pointed posets.

Solve D = F(D, D) by the inverse-limit chain at finite depth, construct
the canonical relation on the solution by three independent fixed-point
methods, and exercise the surrounding theory: gluing duality, uniformity,
the ordered family of equivalences with its Cauchy limits and the
contractiveness of the relational operator, and the Karoubi envelope
machinery (idempotents, splittings, E_D, the slice equivalence).
"""

from .version import __version__

from .config import Caps, DEFAULT_CAPS
from .errors import (
    CharacterizationMismatch,
    CoherenceViolation,
    DualMismatch,
    EquivalenceMismatch,
    InadmissibleRelation,
    InternalInvariantViolation,
    LawViolation,
    MethodDisagreement,
    NegPosMismatch,
    NoLeastElement,
    NotAPartialOrder,
    NotAnEmbedding,
    NotCauchy,
    NotContractive,
    NotEp,
    NotMonotone,
    ParseError,
    RelfixError,
    ResolveError,
    SizeCapExceeded,
    TypeMismatch,
)
from .poset import (
    FinPoset,
    MonotoneMap,
    chain_poset,
    const_map,
    enumerate_monotone_maps,
    hom_poset,
    identity_map,
    lift,
    one,
    product,
    sum_sep,
    validate_poset,
)
from .relations import (
    BinRel,
    bottom_rel,
    diagonal,
    direct_image,
    intersect,
    inverse_image,
    is_admissible,
    is_rel_morphism,
    rel_from_pairs,
    rel_morphism_witness,
    total_rel,
)
from .ep import EpPair, bottom_ep, compose_ep, identity_ep, projection_of, verify_ep_pair
from .functor import (
    Const,
    Fun,
    FunctorExpr,
    Lift,
    One,
    Prod,
    SumSep,
    Var,
    check_functor_laws,
    eval_ep,
    eval_map,
    eval_obj,
    eval_rel,
    is_covariant,
    to_src,
    validate_functor,
)
from .chain import (
    DomainChain,
    RelFamily,
    bottom_family,
    build_chain,
    diagonal_family,
    family_from_limit,
    glue_family,
    is_coherent,
    is_uniform_family,
    make_family,
    total_family,
    truncation_projections,
)
from .engines import (
    check_uniform,
    compare_methods,
    psi_step,
    solve_banach,
    solve_kleene,
    solve_knaster_tarski,
)
from .cofe import (
    CauchySeq,
    Distance,
    check_contractive,
    cofe_limit,
    n_equal,
    ofe_distance,
    prefix_equal,
    uniform_space_size,
)
from .karoubi import (
    Idempotent,
    KaroubiObj,
    Splitting,
    ed_cpo_check,
    ed_slice_equivalence,
    enumerate_canonical_idempotents,
    hat_functor_mor,
    hat_functor_obj,
    idem_leq,
    karoubi_bottom_hom,
    karoubi_hom_check,
    karoubi_homs,
    karoubi_rel_fiber,
    split_idempotent,
    splitting_iso,
)
from .dsl import SpecFile, parse_poset_literal, parse_spec
from .report import canonical_json, make_report, spec_sha256, write_report
from .suites import canonical_specs, run_suite
