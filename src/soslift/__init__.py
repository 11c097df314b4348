"""Sos permutations: enumeration, degree lifting, Farey correspondence, trees."""

from .farey import (
    FareyInterval,
    farey_intervals,
    farey_sequence,
    farey_terms,
    format_fraction,
    mediant,
    parse_fraction,
    totient_sum,
    totients,
)
from .lifting import Level, generate_up_to, iter_levels, lift_fibers, lift_level, project
from .perm_core import (
    PermClass,
    Permutation,
    ascents,
    cds,
    delta,
    gamma,
    inverse,
    mod_m,
    psi,
    psi_inverse,
    shift,
    shift_closure,
    shift_equivalent,
    supermod_m,
)
from .perm_sets import (
    enumerate_class,
    in_V,
    verify_theorems,
)
from .sos import (
    SuranyiTable,
    sos_from_alpha,
    suranyi_table,
    tau_explicit,
    tau_from_alpha,
    theta_ab,
    verify_invariants,
)
from .trees import (
    Tree,
    build_farey_tree,
    build_gen_tree,
    check_isomorphism,
    export_tree,
)

__version__ = "0.1.0"
