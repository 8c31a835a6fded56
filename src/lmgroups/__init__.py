"""Lodha-Moore groups as computable objects: Cantor-set actions, the
standard-form rewriting from the presentation, cluster complexes with
their Morse data, the continued-fraction circle coding, membership in
the simple group S, and the BNSR finiteness classifier."""

from .words import (
    consecutive,
    independent,
    is_prefix,
    partial_action,
    tree_order_less,
)
from .action import PrefixResult, act_prefix, equal_at_depth, fixes_endpoints
from .group import (
    GroupWord,
    SpecialForm,
    StandardForm,
    Verdict,
    canonical_coset,
    char_value,
    decide_T_identity,
    in_F,
    independent_forms,
    is_special_form,
    rewrite_standard_form,
    same_coset,
    special_form,
    word,
    word_problem,
)
from .arrangements import (
    Arrangement,
    ClusterComplex,
    enumerate_cells,
    face_of,
    verify_convex_cells,
)
from .topology import Complex, is_collapsible, reduced_homology
from .xcomplex import (
    XCluster,
    XComplex,
    ascending_link,
    assemble,
    build_x_cluster,
    find_cone_vertex,
    morse_value,
    verify_morse,
)
from .circle import (
    TailPoint,
    circularly_ordered,
    in_S,
    phi,
    phi_inverse,
    relator_schemas,
    s_witness,
    t_transporter,
)
from .sigma import (
    CharacterVector,
    LatticeSubgroup,
    classify_normal_subgroup,
    sigma_membership,
    type_Fn,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
