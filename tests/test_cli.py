import argparse
import csv
import errno
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

from wreathdec import cli, decomp, oracle
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
    # recorded before induction summed over the classes of K: three blocks
    # at m = 6
    ("7", "3", "json"): "1990103929275a0e77727342da95baf622e73215ede73fda54a53bae0585e5a3",
    ("13", "1", "json"): "d3dbb3caf11dd1bc9906a62951a454029290494d8456e97bac95eb788a073c83",
    ("17", "1", "json"): "b1a32e466bf9ecbb35d9239c0cb5cb34d3a48ea21c5a07918edbac47644a0e67",
    # recorded before every report was written chunk by chunk: the skip
    # reports of an unsupported p and of a group past the guard, and w = 0
    ("19", "1", "json"): "8d028e25c8268921e042134acf7055445fcba67e4481d6892af1951af6879689",
    ("19", "1", "csv"): "eafc0384a75d82744441748dec5bbc3d3383a7ae6cf9700263e7d0a0090c000d",
    ("3", "9", "json"): "c03d333031b2a35b2c86ae772a162b680a82eeae3a7a598d4d42b2e8ce639040",
    ("3", "9", "csv"): "78d1ad3e5c35beb33b9c44ef7510675398350d856b0c3a606d70a51d26bbf116",
    ("3", "0", "json"): "d567e55c8146cd1330e7bd2be3b3310bc8ddc36b780b818b8805e343651b953c",
    ("3", "0", "csv"): "5ae610c43c57fc69248dc2f26d006d972b907c9f7ea3729a7bb25aaa9c12941c",
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
    # the other command at each benchmark prime, recorded before the bead table
    ("blocks", "7", "40", "json"): "acdfe3f11d18d2e40fc99210e2747cd6ac9978224131c7896f6c20733709d89f",
    ("blocks", "7", "40", "csv"): "7251c2f8aded396539a258372ea236527da26eae9fe615ceae715db95037d5da",
    ("basicset", "3", "40", "json"): "ffdb12047278620ececf50ec7b88c65bf97818cbacbe8049486cc887504fc701",
    ("basicset", "3", "40", "csv"): "0638ac4156606ebe68b45f3a36d75103b0e2c9bf7521dd7f342959e3697ba177",
    ("basicset", "13", "20", "json"): "6929d5d209c50e82de278d0c1c10c3da3272d42b6f537e5dafda68852a6d68c5",
    ("basicset", "13", "20", "csv"): "9e10b2058e2b50a0776cce63b71e65022fd35552b8456d8fba064f140076e459",
    ("blocks", "5", "25", "json"): "4856296487483ce6d6cf5338585c87f23a3e55db3c90aa7cd849c9a2598be7a8",
    ("blocks", "5", "25", "csv"): "c0ac568d491e95e69c34e354e16caf0799088523ba8bd3d4fe7ad26386bf1f2e",
    # p above every hook of every partition of 40, and p = 37 on both sides of it
    ("blocks", "41", "40", "json"): "9e61014a2ad5893c6c586fffbe760d2ab897a212b48124c00482f7e5533a55d4",
    ("blocks", "41", "40", "csv"): "889c20b3d76b1d185bbbdfe4be2e9f9cd064020503179ad621e54694b0d59daf",
    ("basicset", "37", "40", "json"): "b85b626c582bbfb7886cdad03012d8bf1de9d4243e7210331e106067c2d9fe1a",
    ("basicset", "37", "40", "csv"): "bbf25fdb0184f1da607c493b31c9604ace4cfd776af9d0add9d76af5e764d9fb",
    # recorded before every report was written chunk by chunk: one block, and
    # p = 101 above every hook, each partition its own block
    ("blocks", "3", "1", "json"): "b1e5be0baab2717b75aa819c2c1d96b6091215a8bbf3100a66bcf9a04ef79a22",
    ("blocks", "3", "1", "csv"): "b6b1058e774302603efd2a668f57a674bfb88cbed7a2de4307ca9634ab9c9f7a",
    ("basicset", "3", "1", "json"): "0579cb5e500d171a66dc9617a939c525586d13d24b1eaeccf2cfeebba889656d",
    ("basicset", "3", "1", "csv"): "e3225550b5fc65243753e171305a223c259df6ce58f90baa0b4e24b6e19f3cbe",
    ("basicset", "101", "7", "json"): "e29db2fdfe1c5d42d7af4ee966958f0d37be7efcef9007b74679ec3f966eccfa",
    ("basicset", "101", "7", "csv"): "8377dc18e626aa5e4df0db7ac8d5ffe1dda38eb12f72ee3dd15653970504604c",
}


@pytest.mark.parametrize("command,p,n,fmt", list(ABACUS_DIGESTS))
def test_abacus_output_bytes_are_pinned(command, p, n, fmt, capsys):
    code, out = run_cli(capsys, command, "--p", p, "--n", n, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ABACUS_DIGESTS[command, p, n, fmt]


# sha256 of `kmatrix` and `gram` stdout, recorded before the matrices were
# written row by row; the last agrees with benchmarks/digests.json
LABEL_DIGESTS = {
    ("kmatrix", "3", "0", "json"): "cc18cdb1ca8128d87354583d17e1e39441e0cbce099b80127bce8e1690379f70",
    ("kmatrix", "3", "0", "csv"): "04bb30f855fb4c329a271e69743703fa177cfd6fde464fe956619a7cf8c43c56",
    ("gram", "3", "0", "json"): "f57c027c190646d7c42a6f3c9049063a9aa8d904bedac4ca46d25079e11ff3da",
    ("gram", "3", "0", "csv"): "a684a60575c8d8b23e5deb07b8cc5c4d9096b96e20a0458955e4d4e5b54799dd",
    ("kmatrix", "3", "1", "json"): "6efef4029648338025cd4e44505a845bebc84494864239783375171e9bcaf806",
    ("kmatrix", "3", "1", "csv"): "b362f17b2e109f6f358e46dd4ef084f59a38f2df0c78d886086d797d26a7f3ba",
    ("gram", "3", "1", "json"): "daabd0c13e4563981a9c0c201c97fc0a2ab99e082a53d2c64dbfe3f487ed5958",
    ("gram", "3", "1", "csv"): "0ce304b2a9248bab92070dbbba8b36a7f601cf9fdc8e52f91fe4afa9bec288c3",
    ("kmatrix", "3", "6", "json"): "f278232438803cb3b9f915beb4fb997a4cc12ec6122db577bb34b3bd9568fe9f",
    ("kmatrix", "3", "6", "csv"): "4a46367a765b0bd637db90040f289da5df802870e858804b78b17a7fb51e1b76",
    ("gram", "3", "6", "json"): "6039bb69e10dbc74644f689bdd15c1217f42cee1d51ff6cbaa22fe36ded24dd1",
    ("gram", "3", "6", "csv"): "b6b555dbe8f678cd1b42f5c55d538bd95e9e2b71b223de26641e48af9a3e249c",
    ("kmatrix", "5", "4", "json"): "9daa1c48b5b84dc5d889460316885f8cba80c010cafa8fce97fae8bac2462132",
    ("kmatrix", "5", "4", "csv"): "0809426a315b3d705d204571299bbce85591760a9979e5e600904f0913597ef3",
    ("gram", "5", "4", "json"): "9021e4ce425d9362ffe0e63a41d220d411234a350cb64aa69b346926d59f7d99",
    ("gram", "5", "4", "csv"): "78609c095389a63f7964f7625293821110a2a44ef650925a556e22355a13798c",
    ("kmatrix", "5", "6", "json"): "349bdbc3771e25021616af33e13d39fc76ab76d9589f4fa5d4b72902f773535a",
    ("kmatrix", "5", "6", "csv"): "3f913612718b111d532f1a605e83752a3839956c26631ecfc186598de06b12a4",
    ("gram", "5", "6", "json"): "833b653feac4872e7a58be066ca3b85f0e07c24bfab0f7e9e25f71b710b280b1",
    ("gram", "5", "6", "csv"): "2f5da261e0500a8ae1292adaf486f5e4a2110f544a15bb35f8c56624b6ade286",
    ("kmatrix", "7", "4", "json"): "54a5ee13cc99deddd823d9f3e13fa5b7d258a76625afd0282f2148fbf8ebd6e3",
    ("kmatrix", "7", "4", "csv"): "0123b8d639d5f1a5c0db5fb844fe8a9acff522c351acd7161091bc39dd5831b9",
    ("gram", "7", "4", "json"): "daedb92cdc8f7caf1b19b2cf47d4d3aaaaaf3e8a01bbeae9069866e3908795d6",
    ("gram", "7", "4", "csv"): "0aab8a42f43cd4f50ffb721c11dd62077ddb90696272bf90eaca98ebfa6b8f0a",
    ("kmatrix", "13", "2", "json"): "ae0855376a4b93b217aa379b32a0f8d01b6dc599cc6f17a1c5e283311d567995",
    ("kmatrix", "13", "2", "csv"): "dae9dccd17fd7454f63c56335810d5be1f9b807272791bf03dd03e1ab1c42a3f",
    ("gram", "13", "2", "json"): "cbfbf9e6d3dbea0e0ad1d6dec6de1ee48d79e04c3ef1d563c0320ff158d35e98",
    ("gram", "13", "2", "csv"): "d49a9c9d8261b204d289202364982fff7c8bc8b056ba4478d6bea16d88077bc7",
    ("kmatrix", "17", "2", "json"): "aae81846034dd8e8e450d5c613d3f21e57aaaac533f78666f754be7a4c2a6c3f",
    ("kmatrix", "17", "2", "csv"): "c26cf49e5c291b69ba04323f426adfc2233ac1baacb4681ae2df33c973a91b5b",
    ("gram", "17", "2", "json"): "bcde541c7fb2b5f0284ec67427a35bbfb71fcc6a4eb5a2158580f9b8a53021a7",
    ("gram", "17", "2", "csv"): "60903ff1248d39846451bab95ce168188accafa508c347cc986af27ebedbe3ad",
    ("kmatrix", "13", "4", "json"): "01143a8ca4795e52501774280df51d98ffc4b86515293358512d0cf98be2f1e4",
}


@pytest.mark.parametrize("command,p,w,fmt", list(LABEL_DIGESTS))
def test_label_output_bytes_are_pinned(command, p, w, fmt, capsys):
    code, out = run_cli(capsys, command, "--p", p, "--w", w, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LABEL_DIGESTS[command, p, w, fmt]


def csv_records(command, payload):
    """The CSV rows that carry the records of a JSON report, as text."""
    if command in ("kmatrix", "gram"):
        return [[payload["rows"][i], payload["cols"][j], str(v)] for i, j, v in payload["entries"]]
    if command == "blocks":
        return [[b["core"], str(b["weight"]), lam] for b in payload["blocks"]
                for lam in b["partitions"]]
    if command == "basicset":
        return [[r["partition"], r["core"], str(r["weight"]), str(r["basic"])]
                for r in payload["partitions"]]
    return [[c["claim"], " ".join(f"{k}={v}" for k, v in c["params"].items()),
             c["expected"], c["computed"], c["status"]] for c in payload["claims"]]


CSV_HEADERS = {
    "kmatrix": ["row_label", "col_label", "value"],
    "gram": ["row_label", "col_label", "value"],
    "blocks": ["core", "weight", "partition"],
    "basicset": ["partition", "core", "weight", "basic"],
    "verify": ["claim", "params", "expected", "computed", "status"],
}


FORMAT_CASES = [
    (command, p, w) for command in ("kmatrix", "gram") for p, w in (("3", "4"), ("5", "3"))
] + [("blocks", "3", "12"), ("basicset", "5", "12"), ("verify", "3", "2"), ("verify", "7", "1")]


@pytest.mark.parametrize("command,p,w", FORMAT_CASES, ids=[f"{p}-{w}-{c}" for c, p, w in FORMAT_CASES])
def test_matrix_formats_carry_the_same_entries(command, p, w, tmp_path, capsys):
    """Every report, not only the matrices: JSON on stdout equals JSON through
    --out, and CSV carries the same records (w is n for blocks and basicset)."""
    argv = [command, "--p", p, "--n" if command in ("blocks", "basicset") else "--w", w]
    payload = run_json(capsys, *argv)
    path = tmp_path / "m.json"
    assert main([*argv, "--out", str(path)]) == 0
    assert json.loads(path.read_text()) == payload
    code, out = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == CSV_HEADERS[command]
    assert rows[1:] == csv_records(command, payload)


@pytest.mark.parametrize("command", ["kmatrix", "gram"])
def test_matrix_labels_format_each_partition_once(command, monkeypatch, capsys):
    seen, formatter = [], cli._formatter

    def recording(n):
        fmt = formatter(n)
        return lambda lam: seen.append(lam) or fmt(lam)

    monkeypatch.setattr(cli, "_formatter", recording)
    payload = run_json(capsys, command, "--p", "5", "--w", "3")
    assert sorted(seen) == sorted(lam for n in range(4) for lam in generate_partitions(n))
    assert payload["cols"] == [format_multipartition(g) for g in decomp.glabels(5, 3)]


class FullStdout(io.StringIO):
    """A stdout on a full disk: every write, or only the final flush, fails."""

    def __init__(self, failing):
        super().__init__()
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(text)

    def flush(self):
        if self.failing == "flush":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("failing", ["write", "flush"])
@pytest.mark.parametrize("argv", [
    ("kmatrix", "--p", "3", "--w", "2"),
    ("gram", "--p", "5", "--w", "2", "--format", "csv"),
    ("verify", "--p", "3", "--w", "1", "--quiet"),
    ("blocks", "--p", "3", "--n", "5"),
])
def test_a_failed_write_to_stdout_is_an_error(argv, failing, monkeypatch, capsys):
    """It once ended in a traceback and exit code 1, the code of a failed claim."""
    monkeypatch.setattr(sys, "stdout", FullStdout(failing))
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: cannot write stdout: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [("kmatrix",), ("gram", "--format", "csv"), ("verify", "--quiet")])
def test_a_full_stdout_ends_with_one_error_line(argv):
    """Nothing is left in the stdout buffer for the interpreter to flush at exit
    (stdout is block-buffered, as it is by default on a file)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "wreathdec.cli", *argv, "--p", "3", "--w", "1"],
            stdout=full, stderr=subprocess.PIPE, text=True, timeout=60,
            env={**env, "PYTHONPATH": src},
        )
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write stdout: No space left on device\n"


class CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command,p,size", [("basicset", 7, 40), ("blocks", 3, 40), ("verify", 3, 3)])
def test_every_report_is_written_one_group_at_a_time(command, p, size, fmt, monkeypatch):
    """One write per block or claim, plus the JSON head and tail (the CSV header
    goes with the first group), where the whole report was once one write."""
    groups = len(oracle.verify_suite(p, size) if command == "verify" else decomp.blocks(size, p))
    stdout = CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    flag = "--w" if command == "verify" else "--n"
    assert main([command, "--p", str(p), flag, str(size), "--format", fmt]) == 0
    assert len(stdout.sizes) == groups + (2 if fmt == "json" else 0)


@pytest.mark.parametrize("argv", [
    ("kmatrix", "--p", "3", "--w", "4"),
    ("gram", "--p", "3", "--w", "4"),
    ("basicset", "--p", "7", "--n", "40"),
    ("blocks", "--p", "3", "--n", "40"),
    ("verify", "--p", "3", "--w", "4"),
])
def test_a_bad_out_fails_before_any_work(argv, tmp_path, monkeypatch, capsys):
    """verify --p 3 --w 4 once ran its whole suite, and basicset its abaci,
    before the --out path was found unwritable."""
    called = []

    def spy(name):
        def refuse(*args, **kwargs):
            called.append(name)
            raise AssertionError(f"{name} called")
        return refuse

    monkeypatch.setattr(oracle, "verify_suite", spy("verify_suite"))
    for name in ("blocks", "glabels", "hlabels"):
        monkeypatch.setattr(decomp, name, spy(name))
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "missing" / "x")])
    assert exc.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write "), lines
    assert called == []


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
