"""Permutree sorting of permutations and the automata behind it."""

from .core import (
    Kind,
    Orientation,
    Permutation,
    PriorityOrder,
    Word,
    all_permutations,
    all_reduced_words,
    contains_pattern,
    is_minimal,
    iter_reduced_words,
    left_multiply,
    ninv_stats,
    stack_sort,
)
from .automata import (
    Status,
    accepts,
    classify,
    exists_accepted,
    export_dot,
    export_dot_product,
    initial_state,
    product_accepts,
    run,
    step,
)
from .sorting import (
    SortTrace,
    check_sorting_network,
    permutree_sort,
    sort_single,
)
from .coxeter import (
    CoxeterWord,
    c_factorization,
    c_sorting_word,
    is_c_sortable,
    orientation_of,
)
from .trees import (
    GeneratingTree,
    count_minimal,
    export_tree_dot,
    generating_tree,
    lexmin_word,
)

__version__ = "0.1.0"
