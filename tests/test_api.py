import wreathdec


def test_public_names_are_pinned():
    assert wreathdec.__all__ == [
        "Partition", "MultiPartition", "generate_partitions", "generate_multipartitions",
        "hook_lengths", "p_core_and_quotient", "reconstruct_from_core_quotient", "hat",
        "parse_partition", "parse_multipartition", "format_partition", "format_multipartition",
        "mn_value", "degree", "character_table_sn",
        "lr_coefficient", "iterated_lr", "restriction_expansion",
        "Cyclotomic", "root_of_unity",
        "k_coefficient", "induce_H_to_G", "restrict_G_to_H", "degree_G", "degree_H",
        "k_matrix", "gram_matrix", "basic_set", "block_partition",
        "base_group", "wreath_group", "conjugacy_classes", "parametrized_character",
        "inner_product", "oracle_restriction", "verify_mackey_multiplicities", "verify_suite",
        "GuardError",
    ]
    assert all(hasattr(wreathdec, name) for name in wreathdec.__all__)
