"""Workloads and the cases they run.

A case is one invocation a user would make: a CLI subcommand, or a small
library-user program (``enumerate_classes.py``).  Each workload has two case
groups, A and B, named after the subcommand they time; the end-to-end
metrics ``cmd_a_s`` and ``cmd_b_s`` are the summed wall times of each group,
so every workload reports the same metric names.

Seed 0 runs the canonical case list.  Any other seed draws each case from a
pool of variants that change the input but not the cost: output format,
``--out`` instead of stdout, and the order of the cases in a pass.  Other
primes and sizes are not cost-neutral (kmatrix --p 11 --w 4 is 60 % cheaper
than --p 13, basicset --p 5 about 15 % cheaper than --p 7, and partitions of
38 number 30 % fewer than those of 40), so they are not in the pools.  Every variant in every pool has
a reference digest in ``digests.json``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

OUT_PLACEHOLDER = "OUT"


@dataclass(frozen=True)
class Case:
    """One child-process invocation.

    ``program`` is ``"cli"`` (``python -m wreathdec.cli *args``) or
    ``"enumerate"`` (``python enumerate_classes.py *args``).  ``to_file``
    adds ``--out`` so the output goes through a file instead of stdout.
    """

    metric: str
    program: str
    args: tuple[str, ...]
    to_file: bool = False

    @property
    def key(self) -> str:
        """Digest key: the command line with the output path abstracted."""
        words = ["enumerate" if self.program == "enumerate" else "wreathdec"]
        words += self.args
        if self.to_file:
            words += ["--out", OUT_PLACEHOLDER]
        return " ".join(words)

    @property
    def subcommand(self) -> str:
        return self.metric[: -len("_s")]

    def param(self, name: str) -> int:
        """Integer value of ``--name`` in the arguments (CLI cases only)."""
        return int(self.args[self.args.index(f"--{name}") + 1])


def cli(metric, *args, fmt="json", to_file=False) -> Case:
    words = tuple(str(a) for a in args)
    if fmt != "json":
        words += ("--format", fmt)
    return Case(metric, "cli", words, to_file)


def enumeration(p: int, w: int) -> Case:
    return Case("enumerate_s", "enumerate", (str(p), str(w)))


def _io_variants(metric, *args) -> tuple[Case, ...]:
    """The canonical JSON case, its CSV form, and the JSON case via --out."""
    return (cli(metric, *args), cli(metric, *args, fmt="csv"), cli(metric, *args, to_file=True))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    slots: tuple[str, str]  # case metrics summed into cmd_a_s and cmd_b_s
    pools: tuple[tuple[Case, ...], ...]  # pool[0] is the seed-0 case

    def cases(self, seed: int) -> list[Case]:
        if seed == 0:
            return [pool[0] for pool in self.pools]
        rng = random.Random(seed)
        picked = [rng.choice(pool) for pool in self.pools]
        rng.shuffle(picked)
        return picked

    def all_cases(self) -> list[Case]:
        return [case for pool in self.pools for case in pool]


# kmatrix --p 13 --w 4 and gram --p 5 --w 6 use lr in opposite ways (many
# rows over few shapes against few slots over deep shapes), and CSV costs
# 12-20 % more on both, so only the --out variant is cost-neutral there.
LABELS = Workload(
    "labels",
    "kmatrix --p 13 --w 4 (cmd_a_s, wide) and gram --p 5 --w 6 (cmd_b_s, deep): "
    "lr, decomp and cli serialisation do all the work; oracle and cyclotomic none",
    ("kmatrix_s", "gram_s"),
    (
        (cli("kmatrix_s", "kmatrix", "--p", 13, "--w", 4),
         cli("kmatrix_s", "kmatrix", "--p", 13, "--w", 4, to_file=True)),
        (cli("gram_s", "gram", "--p", 5, "--w", 6),
         cli("gram_s", "gram", "--p", 5, "--w", 6, to_file=True)),
    ),
)

ABACUS = Workload(
    "abacus",
    "blocks --p 3 --n 40 (cmd_a_s) and basicset --p 7 --n 40 (cmd_b_s): "
    "p_core_and_quotient over all 37,338 partitions of 40; lr, oracle and cyclotomic idle",
    ("blocks_s", "basicset_s"),
    (
        _io_variants("blocks_s", "blocks", "--p", 3, "--n", 40),
        _io_variants("basicset_s", "basicset", "--p", 7, "--n", 40),
    ),
)

ORACLE = Workload(
    "oracle",
    "verify --p 3 --w 3 and --p 5 --w 2 (cmd_a_s: induce, inner products, "
    "cyclotomics) and enumeration of G_4 at p=3 (cmd_b_s: group build and orbits)",
    ("verify_s", "enumerate_s"),
    (
        _io_variants("verify_s", "verify", "--p", 3, "--w", 3),
        _io_variants("verify_s", "verify", "--p", 5, "--w", 2),
        (enumeration(3, 4),),
    ),
)

WORKLOADS = {w.name: w for w in (LABELS, ABACUS, ORACLE)}

# Harness self-test: one small case per program, a few seconds in all.
TINY = Workload(
    "tiny",
    "self-test case list",
    ("kmatrix_s", "enumerate_s"),
    (
        (cli("kmatrix_s", "kmatrix", "--p", 3, "--w", 2),),
        (cli("blocks_s", "blocks", "--p", 3, "--n", 10),),
        (cli("verify_s", "verify", "--p", 3, "--w", 1),),
        (enumeration(3, 2),),
    ),
)
