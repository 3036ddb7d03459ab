"""The bead-count abacus and the iterative partition generator against frozen
copies of the references they replaced: the recursive generator, and
p_core_and_quotient built on the validating beta-set strip (one call per
quotient runner and one for the core).  blocks and basic_set are checked
against a block grouping built from the frozen abacus, several n and p in one
process, so a count-vector memo that outlived its call would show.  The
additive bead table behind them is checked field by field against _runners."""

import os
import subprocess
import sys
import textwrap
import tracemalloc
from functools import cache
from operator import getitem
from pathlib import Path

import pytest

from wreathdec import partitions
from wreathdec.decomp import basic_set, block_partition, blocks, r_slot
from wreathdec.partitions import _runners, generate_partitions, p_core_and_quotient


def frozen_partitions_bounded(n, largest):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in frozen_partitions_bounded(n - first, first):
            yield (first,) + rest


@cache
def frozen_generate_partitions(n):
    return tuple(frozen_partitions_bounded(n, n))


def frozen_beta_numbers(lam, length):
    padded = lam + (0,) * (length - len(lam))
    return [padded[i] + length - 1 - i for i in range(length)]


def frozen_partition_from_beta(beta):
    beta = sorted(beta, reverse=True)
    parts = [b - (len(beta) - 1 - i) for i, b in enumerate(beta)]
    if any(x < 0 for x in parts) or any(
        parts[i] < parts[i + 1] for i in range(len(parts) - 1)
    ):
        raise ValueError(f"not a valid beta-set: {beta}")
    return tuple(x for x in parts if x > 0)


def frozen_p_core_and_quotient(lam, p):
    length = len(lam) + (-len(lam)) % p
    runners = [[] for _ in range(p)]
    for b in frozen_beta_numbers(lam, length):
        runners[b % p].append(b // p)
    quotient = tuple(frozen_partition_from_beta(r) for r in runners)
    core_beta = [q + p * m for q, r in enumerate(runners) for m in range(len(r))]
    core = frozen_partition_from_beta(core_beta)
    weight = sum(sum(comp) for comp in quotient)
    assert sum(core) + p * weight == sum(lam)
    return core, quotient, weight


def frozen_blocks(n, p):
    out = {}
    for lam in frozen_generate_partitions(n):
        core, quotient, weight = frozen_p_core_and_quotient(lam, p)
        out.setdefault((core, weight), []).append((lam, not quotient[r_slot(p)]))
    return out


@pytest.mark.parametrize("n", range(41))
def test_generate_partitions_matches_frozen_recursion(n):
    assert generate_partitions(n) == frozen_generate_partitions(n)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17])
def test_core_and_quotient_match_frozen_abacus(p):
    for n in range(23):
        for lam in frozen_generate_partitions(n):
            assert p_core_and_quotient(lam, p) == frozen_p_core_and_quotient(lam, p), lam


def assert_blocks_match_frozen(n, p):
    expected = frozen_blocks(n, p)
    assert list(blocks(n, p).items()) == list(expected.items()), n
    assert list(block_partition(n, p).items()) == [
        (key, [lam for lam, _ in members]) for key, members in expected.items()
    ]
    flags = dict(lam_basic for members in expected.values() for lam_basic in members)
    assert basic_set(n, p) == [lam for lam in frozen_generate_partitions(n) if flags[lam]]


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_blocks_and_basic_set_match_frozen_abacus(p):
    for n in range(1, 31):
        assert_blocks_match_frozen(n, p)


@pytest.mark.parametrize("p", [13, 17, 19, 23, 29, 31, 37, 41])
def test_blocks_and_basic_set_match_frozen_abacus_across_the_first_hook(p):
    # _walk places no bead when p exceeds lam's first hook lam[0] + len(lam) - 1,
    # which is at most n: from n = p on, partitions lie on both sides of it
    for n in range(25):
        assert_blocks_match_frozen(n, p)


def test_blocks_at_large_p_allocate_no_runners(monkeypatch):
    # p > n builds neither a bead table nor runners; a table at p = 100003
    # would hold p + 1 fields per entry, several MB
    def refuse(*args):
        raise AssertionError(f"abacus built for {args}")

    monkeypatch.setattr(partitions, "_bead_table", refuse)
    monkeypatch.setattr(partitions, "_runners", refuse)
    assert list(blocks(40, 41).items()) == [
        ((lam, 0), [(lam, True)]) for lam in generate_partitions(40)]
    for build, n in [(blocks, 3), (basic_set, 3), (basic_set, 40)]:
        generate_partitions(n)
        tracemalloc.start()
        try:
            build(n, 100003)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, (build.__name__, n, peak)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_bead_table_matches_runners_and_quotient(p):
    # the table holds L0 = the least multiple of p >= n beads, _runners
    # L >= len(lam): (L0 - L) / p more on every runner
    mid = r_slot(p)
    for n in range(1, 31):
        steps, base, width = partitions._bead_table(n, p)
        mask, beads = (1 << width) - 1, n + (-n) % p
        for lam in generate_partitions(n):
            state = sum(map(getitem, steps, lam), base)
            counts = [state >> width * (q + 1) & mask for q in range(p)]
            runners = _runners(lam, p)
            shift = (beads - sum(map(len, runners))) // p
            assert counts == [len(run) + shift for run in runners], (n, lam)
            c = counts[mid]
            empty = p_core_and_quotient(lam, p).quotient[mid] == ()
            assert (state & mask == c * (c - 1) // 2) == empty, (n, lam)


@pytest.mark.parametrize("p", [3, 7])
def test_blocks_and_basic_set_match_frozen_abacus_at_the_benchmark_sizes(p):
    assert_blocks_match_frozen(40, p)


def corrupt_top_bead(steps):  # (n,) lands on the runner of n - 1 places up
    steps[0][-1] = steps[0][-2]


def shift_top_bead_level_sum(steps):  # (10,) at p = 3 is basic: S_r one too many
    steps[0][-1] += 1


@pytest.mark.parametrize("corrupt", [corrupt_top_bead, shift_top_bead_level_sum])
@pytest.mark.parametrize("build", [blocks, basic_set])
def test_a_wrong_bead_table_entry_fails_the_runner_check(build, corrupt, monkeypatch):
    table = partitions._bead_table

    def wrong(n, p):
        steps, base, width = table(n, p)
        corrupt(steps)
        return steps, base, width

    monkeypatch.setattr(partitions, "_bead_table", wrong)
    with pytest.raises(RuntimeError, match="disagrees with the abacus of"):
        build(10, 3)


def test_the_runner_check_survives_optimized_mode():
    code = textwrap.dedent(
        """
        from wreathdec import decomp, partitions
        if __debug__:
            raise SystemExit("not running under -O")
        table = partitions._bead_table

        def wrong(n, p):
            steps, base, width = table(n, p)
            steps[0][-1] += 1
            return steps, base, width

        partitions._bead_table = wrong
        for build in (decomp.blocks, decomp.basic_set):
            try:
                build(10, 3)
            except RuntimeError as exc:
                print(exc)
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "bead table disagrees with the abacus of (10,) at p=3\n" * 2


def test_blocks_alternating_p_and_n_match_frozen_abacus():
    # count vectors recur across n: (1,) and (4,) both have counts (2, 1, 0) at p = 3
    for n, p in [(4, 3), (1, 3), (7, 3), (4, 5), (12, 3), (9, 5), (12, 7), (4, 3)]:
        assert list(blocks(n, p).items()) == list(frozen_blocks(n, p).items()), (n, p)


def test_weight_zero_blocks_at_p_above_n():
    # every partition of n < p is a p-core: one block of weight 0 each
    got = blocks(12, 13)
    assert list(got) == [(lam, 0) for lam in generate_partitions(12)]
    assert list(got.items()) == list(frozen_blocks(12, 13).items())
