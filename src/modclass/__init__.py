"""Modular representations of finite groups over finite fields.

The package computes with KG-modules for small permutation groups G and
finite coefficient fields K of characteristic p dividing |G|: simple and
indecomposable modules, behaviour under field extension and restriction
(fibers, Galois orbits, splitting fields), vertices, sources and Green
correspondents, and a verification harness that checks the structural
statements wholesale on concrete groups.
"""

from .errors import (
    ConsistencyError,
    InconclusiveError,
    InputError,
    LimitError,
    ModclassError,
    NotSubfieldError,
)
from .finite_field import (
    FieldAutomorphism,
    FieldEmbedding,
    FiniteField,
    automorphisms,
    embed,
    frobenius,
    make_field,
)
from .perm_group import PermGroup, Subgroup, catalog, normalizer, p_subgroups_up_to_conjugacy
from .modrep import (
    Rep,
    direct_sum,
    extend_scalars,
    frobenius_twist,
    hom_space,
    induce,
    regular_module,
    restrict_scalars,
    restrict_subgroup,
    trivial_module,
    validate,
)
from .meataxe import (
    Decomposition,
    SimpleSet,
    composition_factors,
    decompose,
    end_structure,
    is_absolutely_indecomposable,
    is_absolutely_simple,
    is_indecomposable,
    is_isomorphic,
    is_simple,
    simple_modules,
    try_canonical_form,
)
from .green import (
    VertexSource,
    green_correspondent,
    is_projective,
    is_relatively_projective,
    source,
    vertex,
)
from .classify import (
    ClassificationReport,
    FiberLevel,
    VerificationReport,
    classify_module,
    count_absolutely_simple,
    descend_component,
    fiber,
    indecomposable_splitting_fiber,
    indecomposable_trace,
    splitting_fiber,
    trace_to_prime_field,
    up_relation,
    verify_classification,
)
from .serialize import load_module, module_from_doc, module_to_doc, save_module

__version__ = "0.1.0"

__all__ = [
    "ClassificationReport",
    "ConsistencyError",
    "Decomposition",
    "FiberLevel",
    "FieldAutomorphism",
    "FieldEmbedding",
    "FiniteField",
    "InconclusiveError",
    "InputError",
    "LimitError",
    "ModclassError",
    "NotSubfieldError",
    "PermGroup",
    "Rep",
    "SimpleSet",
    "Subgroup",
    "VerificationReport",
    "VertexSource",
    "automorphisms",
    "catalog",
    "classify_module",
    "composition_factors",
    "count_absolutely_simple",
    "decompose",
    "descend_component",
    "direct_sum",
    "embed",
    "end_structure",
    "extend_scalars",
    "fiber",
    "frobenius",
    "frobenius_twist",
    "green_correspondent",
    "hom_space",
    "indecomposable_splitting_fiber",
    "indecomposable_trace",
    "induce",
    "is_absolutely_indecomposable",
    "is_absolutely_simple",
    "is_indecomposable",
    "is_isomorphic",
    "is_projective",
    "is_relatively_projective",
    "is_simple",
    "load_module",
    "make_field",
    "module_from_doc",
    "module_to_doc",
    "normalizer",
    "p_subgroups_up_to_conjugacy",
    "regular_module",
    "restrict_scalars",
    "restrict_subgroup",
    "save_module",
    "simple_modules",
    "source",
    "splitting_fiber",
    "trace_to_prime_field",
    "trivial_module",
    "try_canonical_form",
    "up_relation",
    "validate",
    "verify_classification",
    "vertex",
]
