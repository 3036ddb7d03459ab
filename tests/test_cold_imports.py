"""The label-side commands import neither the oracle nor its cyclotomic field,
and the package still exposes every public name of both."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wreathdec

LAZY = ("wreathdec.oracle", "wreathdec.cyclotomic", "fractions")

OWNERS = {
    "partitions": (
        "Partition", "MultiPartition", "generate_partitions", "generate_multipartitions",
        "hook_lengths", "p_core_and_quotient", "reconstruct_from_core_quotient", "hat",
        "parse_partition", "parse_multipartition", "format_partition", "format_multipartition",
    ),
    "sn_char": ("mn_value", "degree", "character_table_sn"),
    "lr": ("lr_coefficient", "iterated_lr", "restriction_expansion"),
    "cyclotomic": ("Cyclotomic", "root_of_unity"),
    "decomp": (
        "k_coefficient", "induce_H_to_G", "restrict_G_to_H", "degree_G", "degree_H",
        "k_matrix", "gram_matrix", "basic_set", "block_partition",
    ),
    "oracle": (
        "base_group", "wreath_group", "conjugacy_classes", "parametrized_character",
        "inner_product", "oracle_restriction", "verify_mackey_multiplicities", "verify_suite",
        "GuardError",
    ),
}


def run_child(code: str) -> list[str]:
    """Run code in a fresh interpreter and return its stdout lines."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_label_side_commands_load_no_oracle_and_verify_does():
    code = f"""
import contextlib, io, sys
from wreathdec import cli

def loaded(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(list(argv)) == 0
    return [name for name in {LAZY!r} if name in sys.modules]

for argv in (("kmatrix", "--p", "3", "--w", "2"), ("gram", "--p", "5", "--w", "1"),
             ("blocks", "--p", "3", "--n", "5"), ("basicset", "--p", "3", "--n", "5")):
    for fmt in ("json", "csv"):
        print(*argv, fmt, loaded(*argv, "--format", fmt))
print("verify", loaded("verify", "--p", "3", "--w", "1"))
"""
    lines = run_child(code)
    assert len(lines) == 9
    assert all(line.endswith(" []") for line in lines[:8]), lines
    assert lines[8] == f"verify {list(LAZY)!r}"


def test_lazy_submodules_resolve_after_a_bare_import():
    lines = run_child("""
import sys
import wreathdec
print("wreathdec.oracle" in sys.modules, "wreathdec.cyclotomic" in sys.modules)
print(wreathdec.oracle is sys.modules["wreathdec.oracle"],
      wreathdec.cyclotomic is sys.modules["wreathdec.cyclotomic"])
""")
    assert lines == ["False False", "True True"]


def test_every_public_name_is_its_submodules_object():
    assert [name for names in OWNERS.values() for name in names] == wreathdec.__all__
    for module, names in OWNERS.items():
        owner = importlib.import_module(f"wreathdec.{module}")
        for name in names:
            assert getattr(wreathdec, name) is getattr(owner, name), name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from wreathdec import *", namespace)
    assert set(wreathdec.__all__) <= namespace.keys()
    assert all(namespace[name] is getattr(wreathdec, name) for name in wreathdec.__all__)


def test_dir_lists_the_lazy_names():
    assert set(wreathdec.__all__) | {"oracle", "cyclotomic"} <= set(dir(wreathdec))


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        wreathdec.no_such_name
    assert not hasattr(wreathdec, "no_such_name")
