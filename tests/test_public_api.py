import ast
import inspect
from pathlib import Path

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


def test_rewrite_validates_at_the_one_oracle_depth():
    # no depth knob: a validated rewrite is checked at DEFAULT_DEPTH
    params = tuple(inspect.signature(lmgroups.rewrite_standard_form).parameters)
    assert params == ("w", "max_steps", "max_subscript", "validate")


# Complex._trusted checks nothing, so only builders whose complexes are
# right by construction may call it; a new call site must be argued for
# in the Complex docstring and added here.
TRUSTED_COMPLEX_BUILDERS = {
    ("arrangements", "enumerate_cells"),
    ("topology", "Complex.subcomplex"),
    ("xcomplex", "ascending_link"),
    ("xcomplex", "_assemble"),  # behind the memo of `assemble`
}


def _trusted_sites(path):
    """(module, enclosing definition) of every `._trusted` read in a
    source file, other than GroupWord's."""
    sites = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "_trusted"
                    and not (isinstance(child.value, ast.Name) and child.value.id == "GroupWord")):
                sites.add((path.stem, ".".join(scope)))
            visit(child, scope)

    visit(ast.parse(path.read_text()), ())
    return sites


def test_trusted_complexes_are_built_only_by_the_four_builders():
    src = Path(lmgroups.__file__).parent
    sites = set().union(*(_trusted_sites(p) for p in sorted(src.glob("*.py"))))
    assert sites == TRUSTED_COMPLEX_BUILDERS


def test_sources_parse_under_the_oldest_supported_python():
    # CI runs 3.10 as well; a newer syntax feature fails here first
    root = Path(__file__).resolve().parent.parent
    paths = sorted(p for d in ("src", "tests", "bench") for p in (root / d).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
