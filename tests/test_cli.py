import argparse
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from bareiss import determinant

from wreathdec import decomp, oracle
from wreathdec.cli import (
    GRAM_LABEL_GUARD,
    KMATRIX_LABEL_GUARD,
    _glabel_count,
    _require_block_args,
    _require_label_args,
    main,
)
from wreathdec.partitions import (
    format_multipartition,
    format_partition,
    generate_partitions,
    parse_multipartition,
    parse_partition,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    return json.loads(out)


def run_failing(*argv, **env):
    """Run the CLI as a user would and require one `error:` line, no output
    and the usage/guard exit code 2."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "wreathdec.cli", *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src, **env},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    return lines[0]


def dense_from_entries(payload):
    rows, cols = payload["rows"], payload["cols"]
    matrix = [[0] * len(cols) for _ in rows]
    for i, j, v in payload["entries"]:
        matrix[i][j] = v
    return matrix


def test_kmatrix_weight_zero(capsys):
    payload = run_json(capsys, "kmatrix", "--p", "3", "--w", "0")
    assert payload["rows"] == ["[[],[]]"]
    assert payload["cols"] == ["[[],[],[]]"]
    assert dense_from_entries(payload) == [[1]]


def test_kmatrix_row_degree_scaling(capsys):
    payload = run_json(capsys, "kmatrix", "--p", "3", "--w", "1")
    matrix = dense_from_entries(payload)
    rows = [parse_multipartition(t) for t in payload["rows"]]
    cols = [parse_multipartition(t) for t in payload["cols"]]
    for i, alpha in enumerate(rows):
        total = sum(
            v * decomp.degree_G(gamma, 3) for gamma, v in zip(cols, matrix[i])
        )
        assert total == 3 * decomp.degree_H(alpha, 3)


def test_kmatrix_kernel_columns_are_standard_basis(capsys):
    payload = run_json(capsys, "kmatrix", "--p", "3", "--w", "2")
    matrix = dense_from_entries(payload)
    cols = [parse_multipartition(t) for t in payload["cols"]]
    mid = decomp.r_slot(3)
    for j, gamma in enumerate(cols):
        if gamma[mid]:
            continue
        column = [matrix[i][j] for i in range(len(matrix))]
        assert sorted(column) == [0] * (len(column) - 1) + [1]


def test_gram_output(capsys):
    payload = run_json(capsys, "gram", "--p", "3", "--w", "1")
    matrix = dense_from_entries(payload)
    assert matrix == [[1, 1, 0], [1, 2, 1], [0, 1, 1]]
    assert payload["determinant"] == 0
    assert matrix == [list(col) for col in zip(*matrix)]


def test_gram_determinant_matches_elimination(capsys):
    for p, w_max in [(3, 4), (5, 3), (7, 2)]:
        for w in range(w_max + 1):
            payload = run_json(capsys, "gram", "--p", str(p), "--w", str(w))
            expected = determinant(decomp.gram_matrix(p, w))
            assert payload["determinant"] == expected == (1 if w == 0 else 0), (p, w)


def test_gram_matches_library(capsys):
    for p, w in [(3, 2), (5, 1)]:
        payload = run_json(capsys, "gram", "--p", str(p), "--w", str(w))
        assert dense_from_entries(payload) == decomp.gram_matrix(p, w)
        assert payload["rows"] == [
            format_multipartition(g) for g in decomp.glabels(p, w)
        ]


def test_output_is_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code = main(["kmatrix", "--p", "3", "--w", "2", "--out", str(path)])
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_json_round_trip(tmp_path):
    path = tmp_path / "k.json"
    main(["kmatrix", "--p", "3", "--w", "1", "--out", str(path)])
    payload = json.loads(path.read_text())
    assert json.dumps(payload, separators=(",", ":")) + "\n" == path.read_text()


def test_csv_kmatrix(capsys):
    code, out = run_cli(capsys, "kmatrix", "--p", "3", "--w", "1", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["row_label", "col_label", "value"]
    assert ["[[1],[]]", "[[1],[],[]]", "1"] in rows
    # every flattened entry is a nonzero coefficient
    for row_label, col_label, value in rows[1:]:
        alpha = parse_multipartition(row_label)
        gamma = parse_multipartition(col_label)
        assert decomp.k_coefficient(alpha, gamma, 3) == int(value)


def test_basicset_counts(capsys):
    payload = run_json(capsys, "basicset", "--p", "3", "--n", "2")
    assert payload["n"] == 2 and payload["p"] == 3
    assert all(rec["basic"] for rec in payload["partitions"])
    payload = run_json(capsys, "basicset", "--p", "3", "--n", "7")
    flags = [rec["basic"] for rec in payload["partitions"]]
    assert sum(flags) == len(decomp.basic_set(7, 3))


def test_blocks_output(capsys):
    payload = run_json(capsys, "blocks", "--p", "3", "--n", "4")
    sizes = [len(b["partitions"]) for b in payload["blocks"]]
    assert sum(sizes) == 5  # partitions of 4
    for block in payload["blocks"]:
        members = [parse_partition(text) for text in block["partitions"]]
        assert len(members) == len(set(members))


def test_blocks_csv(capsys):
    code, out = run_cli(capsys, "blocks", "--p", "3", "--n", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["core", "weight", "partition"]
    assert len(rows) == 4  # header + three partitions of 3


def test_verify_passes_and_is_fast(capsys):
    start = time.monotonic()
    code, out = run_cli(capsys, "verify", "--p", "3", "--w", "1", "--quiet")
    elapsed = time.monotonic() - start
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["failed"] == 0
    assert elapsed < 5.0


# sha256 of `verify` stdout, recorded before induction enumerated the
# inducing subgroup; any change to a claim, its order or a Cyclotomic repr
# shows here
VERIFY_DIGESTS = {
    ("3", "2", "json"): "d0de5d28804977576aeb3145a9072dbff4590cdebbf07724473263f0e5296445",
    ("3", "2", "csv"): "8638fc1cf03c755bcc8c07b7ddf9eb2511815a5eedd6a1b274fcb2e5fcbe45d3",
    ("3", "3", "json"): "d6eb5696477ab1a9f026e3006331dbc76172a9eb426e5a3a0a54593ad77b26b1",
    ("3", "3", "csv"): "1471c63361e2432dcb1ce6a65899b3a8191dbca8c4591f22cac0849db1cf1191",
    ("3", "4", "json"): "22dc16a7b7d9771d77ad4fc236aa22eac708341cb797e056a611089b6ee65261",
    ("3", "5", "json"): "7b6c23190d88567fe2d358e10d3c4284001a3f442b0c9de50f6332dd6be4d492",
    ("5", "2", "json"): "ab59181415ab8edaef1a9b340c41a8a73025b79f2a60336c7bfc4a93ee134170",
    ("5", "2", "csv"): "945a6c50294eb225e4fc682b90874114f29718efbb947ffbdc57c14c53d3d9c6",
    ("5", "3", "json"): "d30eb799e42a5516e8894140d169851c5538e4fe60d04cab2b54b21378ae1a1f",
    ("7", "1", "json"): "1f7c4ccb8f0c22e058ba0ec1b85bdb9794421bf7c46960436694c059deb700dc",
    ("7", "1", "csv"): "c89aad0b62c27515ccd32887a3e5b9b03c44b5889cc02839a8cc7151875f32c3",
    ("11", "2", "json"): "76e7f44b5f7e7118ad62a040ceb75c7e49d1fe22c520af304acb26f10f428274",
    # phi(p - 1) < p - 1: the values are reduced modulo Phi_(p-1)
    ("7", "2", "json"): "474742b89f40d47b4d3a355b9a1b5ff3966ec168aa6a8d2638a361dccf2c2eae",
    ("13", "1", "json"): "d3dbb3caf11dd1bc9906a62951a454029290494d8456e97bac95eb788a073c83",
    ("17", "1", "json"): "b1a32e466bf9ecbb35d9239c0cb5cb34d3a48ea21c5a07918edbac47644a0e67",
}


@pytest.mark.parametrize("p,w,fmt", list(VERIFY_DIGESTS))
def test_verify_output_bytes_are_pinned(p, w, fmt, capsys):
    code, out = run_cli(capsys, "verify", "--p", p, "--w", w, "--format", fmt, "--quiet")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[p, w, fmt]


# the first four agree with the blocks/basicset digests in benchmarks/digests.json
ABACUS_DIGESTS = {
    ("blocks", "3", "40", "json"): "290eef517a1d008cdb856f58756af71258fceb383b752ba81cd9fb6b19c84338",
    ("blocks", "3", "40", "csv"): "78e870693a24478dc905739d73bcf955b8cf25123fae061cf50dc656a9605f5b",
    ("basicset", "7", "40", "json"): "df857d5dbc4baede6d36932690db625d91cdcae915b83342736eb96e4b3c21e0",
    ("basicset", "7", "40", "csv"): "c4903aa85a6d0558a656cf0ae04e4a24b1803d6cd4e8f4729943d227e97e46af",
    ("basicset", "13", "20", "json"): "6929d5d209c50e82de278d0c1c10c3da3272d42b6f537e5dafda68852a6d68c5",
    ("basicset", "13", "20", "csv"): "9e10b2058e2b50a0776cce63b71e65022fd35552b8456d8fba064f140076e459",
    ("blocks", "5", "25", "json"): "4856296487483ce6d6cf5338585c87f23a3e55db3c90aa7cd849c9a2598be7a8",
    ("blocks", "5", "25", "csv"): "c0ac568d491e95e69c34e354e16caf0799088523ba8bd3d4fe7ad26386bf1f2e",
    # p above every hook of every partition of 40, and p = 37 on both sides of it
    ("blocks", "41", "40", "json"): "9e61014a2ad5893c6c586fffbe760d2ab897a212b48124c00482f7e5533a55d4",
    ("blocks", "41", "40", "csv"): "889c20b3d76b1d185bbbdfe4be2e9f9cd064020503179ad621e54694b0d59daf",
    ("basicset", "37", "40", "json"): "b85b626c582bbfb7886cdad03012d8bf1de9d4243e7210331e106067c2d9fe1a",
    ("basicset", "37", "40", "csv"): "bbf25fdb0184f1da607c493b31c9604ace4cfd776af9d0add9d76af5e764d9fb",
}


@pytest.mark.parametrize("command,p,n,fmt", list(ABACUS_DIGESTS))
def test_abacus_output_bytes_are_pinned(command, p, n, fmt, capsys):
    code, out = run_cli(capsys, command, "--p", p, "--n", n, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ABACUS_DIGESTS[command, p, n, fmt]


def test_verify_weight_two_all_claims_pass(capsys):
    code, out = run_cli(capsys, "verify", "--p", "3", "--w", "2", "--quiet")
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0 and payload["skipped"] == 0
    assert all(c["status"] == "pass" for c in payload["claims"])


def test_verify_skips_unsupported_p(capsys):
    for p in ("19", "1000000000000000003"):
        start = time.monotonic()
        code, out = run_cli(capsys, "verify", "--p", p, "--w", "1", "--quiet")
        assert time.monotonic() - start < 5.0
        assert code == 0
        payload = json.loads(out)
        assert payload["skipped"] == 1 and payload["failed"] == 0
        assert payload["claims"][0]["claim"] == "base_group_supported"


@pytest.mark.parametrize("p", ["2", "4", "1", "-3", "15"])
def test_verify_rejects_p_that_is_not_an_odd_prime(p):
    assert f"p must be an odd prime, got {p}" in run_failing("verify", "--p", p, "--w", "1")


def test_failing_claim_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(
        oracle, "base_group_claims", lambda p: [oracle._claim("forced", {"p": p}, 1, 2)]
    )
    code, out = run_cli(capsys, "verify", "--p", "3", "--w", "0", "--quiet")
    assert code == 1
    assert json.loads(out)["failed"] == 1


def test_verify_honors_guard_env(capsys, monkeypatch):
    monkeypatch.setenv("WREATH_GUARD_ELEMS", "10")
    code, out = run_cli(capsys, "verify", "--p", "3", "--w", "2", "--quiet")
    assert code == 0
    payload = json.loads(out)
    assert payload["skipped"] >= 1


def test_rejects_bad_parameters(capsys):
    with pytest.raises(SystemExit):
        main(["kmatrix", "--p", "4", "--w", "1"])
    with pytest.raises(SystemExit):
        main(["kmatrix", "--p", "3", "--w", "99"])
    with pytest.raises(SystemExit):
        main(["basicset", "--p", "3", "--n", "999"])


def test_out_into_missing_directory_is_an_error(tmp_path):
    target = tmp_path / "missing" / "k.json"
    line = run_failing("kmatrix", "--p", "3", "--w", "1", "--out", str(target))
    assert str(target) in line
    assert not target.parent.exists()


@pytest.mark.parametrize("value", ["abc", "-5", "1.5"])
def test_bad_guard_env_is_an_error(value):
    line = run_failing("verify", "--p", "3", "--w", "1", "--quiet", WREATH_GUARD_ELEMS=value)
    assert "WREATH_GUARD_ELEMS" in line


def test_guard_env_of_more_digits_than_int_converts_is_an_error():
    """int() refuses more than 4300 digits, which raised a ValueError."""
    line = run_failing("verify", "--p", "3", "--w", "1", "--quiet", WREATH_GUARD_ELEMS="9" * 5000)
    assert "WREATH_GUARD_ELEMS must have at most 4300 digits, got 5000" in line


def test_weight_far_beyond_the_guard_is_a_skip(capsys):
    """The order at w = 1250 has more digits than str() converts, which once
    ended `verify` in a traceback and exit code 1."""
    code, out = run_cli(capsys, "verify", "--p", "3", "--w", "1250", "--quiet")
    assert code == 0
    payload = json.loads(out)
    assert payload["skipped"] == 1 and payload["failed"] == 0
    assert payload["claims"][-1]["computed"] == (
        "G-wreath product for p=3, w=1250 exceeds the element guard of 1000000")


def test_verify_rejects_negative_weight():
    assert "w must be nonnegative" in run_failing("verify", "--p", "3", "--w", "-1")


@pytest.mark.parametrize("command,size", [
    ("kmatrix", "--w"), ("gram", "--w"), ("basicset", "--n"), ("blocks", "--n"),
])
def test_quiet_is_a_usage_error_outside_verify(command, size, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--p", "3", size, "1", "--quiet"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --quiet" in capsys.readouterr().err


def test_label_count_matches_enumeration():
    for p, w_max in [(3, 6), (5, 5), (7, 4), (13, 3)]:
        for w in range(w_max + 1):
            assert _glabel_count(p, w) == len(decomp.glabels(p, w)), (p, w)


@pytest.mark.parametrize("command,p,count", [
    ("gram", "13", 60697), ("kmatrix", "101", 2216463281),
])
def test_label_guard_rejects_before_any_work(command, p, count):
    line = run_failing(command, "--p", p, "--w", "6")
    assert f"has {count} G-labels, beyond the guard" in line


@pytest.mark.parametrize("argv,message", [
    (("--p", "449", "--w", "2"), "has 45561826 G-label components"),
    (("--p", "373", "--w", "2"), "has 26156252 G-label components"),
    (("--p", "5101", "--w", "1"), "has 26020201 G-label components"),
    (("--p", "1000000000000000003", "--w", "0"), "has 1000000000000000003 G-label components"),
    (("--p", "1000000000000000003", "--w", "1"), "has 1000000000000000003 G-labels, beyond"),
])
def test_size_guards_reject_before_the_primality_test(argv, message):
    start = time.monotonic()
    assert message in run_failing("kmatrix", *argv)
    assert time.monotonic() - start < 10.0


@pytest.mark.parametrize("p,w,guard", [
    (17, 6, KMATRIX_LABEL_GUARD), (199, 2, KMATRIX_LABEL_GUARD), (97, 2, GRAM_LABEL_GUARD),
    (367, 2, KMATRIX_LABEL_GUARD), (109, 3, KMATRIX_LABEL_GUARD), (5099, 1, KMATRIX_LABEL_GUARD),
    (25999949, 0, KMATRIX_LABEL_GUARD),
])
def test_guards_admit_the_largest_cases_that_finish(p, w, guard):
    """Each of these finishes within the 2.5 GB and 62 s of kmatrix --p 17 --w 6
    (measured on 2 vCPU; the README lists them)."""
    _require_label_args(argparse.Namespace(p=p, w=w), guard)


@pytest.mark.parametrize("argv,message", [
    (("blocks", "--p", "1000000000000000003", "--n", "40"), "below the guard of 1000000000000"),
    (("blocks", "--p", "1000000000000000003", "--n", "41"), "n must be in 1..40"),
    (("basicset", "--p", "1000000000039", "--n", "1"), "below the guard of 1000000000000"),
])
def test_abacus_guards_reject_before_the_primality_test(argv, message):
    start = time.monotonic()
    assert message in run_failing(*argv)
    assert time.monotonic() - start < 10.0


@pytest.mark.parametrize("p,n", [
    (3, 40), (7, 40), (13, 20),  # the abacus benchmark cases and --p 13 --n 20
    (107, 40), (709, 30), (6379, 20), (95233, 10), (1999993, 2), (3999971, 1),
    (999999999989, 40),  # the largest prime below the bound on p
])
def test_abacus_guard_admits_the_largest_cases_that_finish(p, n):
    """The abacus benchmark cases and large primes at n from 40 down to 1:
    n and the bound on p, not their product, limit the abacus work."""
    _require_block_args(argparse.Namespace(p=p, n=n))


def _assert_weight_zero_basic_blocks(capsys, p, n):
    """p exceeds every hook of every partition of n, so both commands finish
    quickly, with no abacus, and every partition is its own basic block of
    weight 0."""
    lams = [format_partition(lam) for lam in generate_partitions(n)]
    for command, field, records in [
        ("blocks", "blocks",
         [{"core": lam, "weight": 0, "partitions": [lam]} for lam in lams]),
        ("basicset", "partitions",
         [{"partition": lam, "core": lam, "weight": 0, "basic": True} for lam in lams]),
    ]:
        start = time.monotonic()
        payload = run_json(capsys, command, "--p", str(p), "--n", str(n))
        assert time.monotonic() - start < 10.0, (command, p, n)
        assert payload[field] == records, (command, p, n)


def test_primes_past_every_hook_give_weight_zero_basic_blocks(capsys):
    for p, n in [(109, 40), (719, 30), (4000037, 1)]:
        _assert_weight_zero_basic_blocks(capsys, p, n)


def test_p_1000003_n_40_gives_weight_zero_basic_blocks(capsys):
    _assert_weight_zero_basic_blocks(capsys, 1000003, 40)


def test_kmatrix_at_a_prime_beyond_the_recursion_limit(capsys):
    payload = run_json(capsys, "kmatrix", "--p", "499", "--w", "1")
    assert len(payload["rows"]) == 498 and len(payload["cols"]) == 499
