"""Exact symbolic computation in the diagrammatic rings R(nu) of a graph.

Quick start::

    from klr import CartanGraph, KLRRing
    ring = KLRRing(CartanGraph(["i", "j"], [("i", "j")]))
    d = ring.evaluate_word(("i", "j"), [("C", 1)])
"""

from .cartan import (
    CartanGraph,
    GraphError,
    a1xa1,
    a2,
    cycle,
    single_vertex,
    weight_add,
    weight_from_dict,
    weight_of_seq,
    weight_size,
)
from .characters import (
    CharacterVector,
    K0Vector,
    TightReport,
    bar_k0,
    char_at_divided,
    char_projective,
    comultiply,
    cycle_alpha,
    equal_in_f,
    orthogonal_idempotents_check,
    pair_k0,
    pair_monomials,
    pair_recursive,
    serre_check,
    shuffle_product,
    sigma_k0,
    tight,
)
from .elements import (
    InhomogeneousError,
    KLRElement,
    KLRRing,
    WeightMismatchError,
    diagram_degree,
)
from .gdim import GradedDim
from .laurent import DivisibilityError, LaurentPoly, qbinom, qfact, qint
from .permutations import GeneratorIndexError
from .polyrep import (
    act,
    act_many,
    act_word,
    default_orientation,
    oracle_equal,
    reversed_orientation,
)
from .quotients import (
    GradedDimReport,
    IdealSpec,
    cyclotomic_spec,
    degree_lower_bound,
    graded_basis,
    ideal_degree_dim,
    quotient_gdim,
    sym_plus_spec,
)
from .sequences import expand, factorial_poly, seq_enumerate, shift, shuffles

__version__ = "0.1.0"

__all__ = [
    "CartanGraph", "GraphError", "a1xa1", "a2", "cycle", "single_vertex",
    "weight_add", "weight_from_dict", "weight_of_seq", "weight_size",
    "CharacterVector", "K0Vector", "TightReport",
    "bar_k0", "char_at_divided", "char_projective", "comultiply",
    "cycle_alpha", "equal_in_f", "orthogonal_idempotents_check", "pair_k0",
    "pair_monomials", "pair_recursive", "serre_check", "shuffle_product",
    "sigma_k0", "tight",
    "GeneratorIndexError", "InhomogeneousError", "KLRElement", "KLRRing",
    "WeightMismatchError", "diagram_degree",
    "GradedDim", "DivisibilityError", "LaurentPoly", "qbinom", "qfact",
    "qint",
    "act", "act_many", "act_word", "default_orientation",
    "oracle_equal", "reversed_orientation",
    "GradedDimReport", "IdealSpec", "cyclotomic_spec", "degree_lower_bound",
    "graded_basis", "ideal_degree_dim", "quotient_gdim", "sym_plus_spec",
    "expand", "factorial_poly", "seq_enumerate", "shift", "shuffles",
]
