import inspect

import lmgroups

# The package's public names, spelled out: removing a name from
# lmgroups/__init__.py is a change of the public interface, not a cleanup.
PUBLIC_NAMES = [
    "Arrangement",
    "CharacterVector",
    "ClusterComplex",
    "Complex",
    "GroupWord",
    "LatticeSubgroup",
    "PrefixResult",
    "SpecialForm",
    "StandardForm",
    "TailPoint",
    "Verdict",
    "XCluster",
    "XComplex",
    "act_prefix",
    "action",
    "arrangements",
    "ascending_link",
    "assemble",
    "build_x_cluster",
    "canonical_coset",
    "char_value",
    "circle",
    "circularly_ordered",
    "classify_normal_subgroup",
    "consecutive",
    "decide_T_identity",
    "enumerate_cells",
    "equal_at_depth",
    "face_of",
    "find_cone_vertex",
    "fixes_endpoints",
    "group",
    "in_F",
    "in_S",
    "independent",
    "independent_forms",
    "is_collapsible",
    "is_prefix",
    "is_special_form",
    "morse_value",
    "partial_action",
    "phi",
    "phi_inverse",
    "reduced_homology",
    "relator_schemas",
    "rewrite_standard_form",
    "s_witness",
    "same_coset",
    "sigma",
    "sigma_membership",
    "special_form",
    "t_transporter",
    "topology",
    "tree_order_less",
    "type_Fn",
    "verify_convex_cells",
    "verify_morse",
    "word",
    "word_problem",
    "words",
    "xcomplex",
]


def test_public_names_are_stable():
    assert lmgroups.__all__ == PUBLIC_NAMES


def test_cluster_signatures_read_the_group_off_the_base():
    # no tag argument: a cluster's group is its base word's tag
    def params(f):
        return tuple(inspect.signature(f).parameters)

    assert params(lmgroups.build_x_cluster) == ("base", "params")
    assert params(lmgroups.assemble) == ("pieces",)
    assert params(lmgroups.find_cone_vertex) == ("pieces",)
    assert params(lmgroups.XComplex) == ("complex", "vertex_words")
