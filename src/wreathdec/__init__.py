"""Exact decomposition of restrictions between two wreath-product families,
with an independent brute-force verification oracle.

The label-level engine (`decomp`) computes every multiplicity from
Littlewood-Richardson numbers; the oracle (`oracle`) rebuilds the same
numbers from explicit character tables of concretely enumerated groups.
The oracle and its cyclotomic field (`cyclotomic`) load on first use of one
of their names, so the label-side commands never import them.
"""

import importlib

from .partitions import (
    Partition,
    MultiPartition,
    generate_partitions,
    generate_multipartitions,
    hook_lengths,
    p_core_and_quotient,
    reconstruct_from_core_quotient,
    hat,
    parse_partition,
    parse_multipartition,
    format_partition,
    format_multipartition,
)
from .sn_char import mn_value, degree, character_table_sn
from .lr import lr_coefficient, iterated_lr, restriction_expansion
from .decomp import (
    k_coefficient,
    induce_H_to_G,
    restrict_G_to_H,
    degree_G,
    degree_H,
    k_matrix,
    gram_matrix,
    basic_set,
    block_partition,
)

_LAZY = {  # lazy name: its submodule (a submodule maps to itself)
    **dict.fromkeys(["cyclotomic", "Cyclotomic", "root_of_unity"], "cyclotomic"),
    **dict.fromkeys(["oracle", "base_group", "wreath_group", "conjugacy_classes",
                     "parametrized_character", "inner_product", "oracle_restriction",
                     "verify_mackey_multiplicities", "verify_suite", "GuardError"], "oracle"),
}


def __getattr__(name):
    """A lazy submodule, or one of its public names, imported on first use."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__():
    return sorted({*globals(), *_LAZY})


__all__ = [
    "Partition",
    "MultiPartition",
    "generate_partitions",
    "generate_multipartitions",
    "hook_lengths",
    "p_core_and_quotient",
    "reconstruct_from_core_quotient",
    "hat",
    "parse_partition",
    "parse_multipartition",
    "format_partition",
    "format_multipartition",
    "mn_value",
    "degree",
    "character_table_sn",
    "lr_coefficient",
    "iterated_lr",
    "restriction_expansion",
    "Cyclotomic",
    "root_of_unity",
    "k_coefficient",
    "induce_H_to_G",
    "restrict_G_to_H",
    "degree_G",
    "degree_H",
    "k_matrix",
    "gram_matrix",
    "basic_set",
    "block_partition",
    "base_group",
    "wreath_group",
    "conjugacy_classes",
    "parametrized_character",
    "inner_product",
    "oracle_restriction",
    "verify_mackey_multiplicities",
    "verify_suite",
    "GuardError",
]
