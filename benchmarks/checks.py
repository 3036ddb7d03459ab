"""Output checks for benchmark cases.

Every output must match the reference sha256 recorded for its case, which
enforces byte-identical CLI output.  On top of that, each subcommand has a
cheap invariant computed here from first principles (hook lengths and
partition counts), independent of the package's own lr and oracle code, so
a wrong reference digest cannot hide a wrong answer.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from functools import cache
from math import factorial, prod

from cases import Case


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@cache
def partition_count(n: int, avoid: int = 0) -> int:
    """Partitions of n, or those with no part divisible by `avoid` when it is set."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        if avoid and part % avoid == 0:
            continue
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def multipartition_count(w: int, t: int) -> int:
    """Number of t-tuples of partitions of total size w."""
    poly = [1] + [0] * w
    for _ in range(t):
        poly = [
            sum(poly[i] * partition_count(k - i) for i in range(k + 1))
            for k in range(w + 1)
        ]
    return poly[w]


@cache
def sn_degree(lam: tuple[int, ...]) -> int:
    """Hook length formula."""
    conj = [sum(1 for x in lam if x > j) for j in range(lam[0])] if lam else []
    hooks = prod(lam[i] - j + conj[j] - i - 1 for i in range(len(lam)) for j in range(lam[i]))
    return factorial(sum(lam)) // hooks


@cache
def label_degree(text: str, heavy_slot: int | None, heavy_degree: int) -> int:
    """Degree of a wreath-product irreducible from its label text: w! times,
    per slot, deg(component) / |component|!, times heavy_degree^|heavy slot|."""
    comps = [tuple(c) for c in json.loads(text)]
    w = sum(map(sum, comps))
    deg = factorial(w)
    for slot, comp in enumerate(comps):
        deg = deg // factorial(sum(comp)) * sn_degree(comp)
        if slot == heavy_slot:
            deg *= heavy_degree ** sum(comp)
    return deg


def _triples(case: Case, text: str):
    """(row_label, col_label, value) triples and the row labels of a matrix output."""
    if "--format" not in case.args:
        payload = json.loads(text)
        rows, cols = payload["rows"], payload["cols"]
        return [(rows[i], cols[j], v) for i, j, v in payload["entries"]], rows
    body = list(csv.reader(io.StringIO(text)))[1:]
    triples = [(r, c, int(v)) for r, c, v in body]
    return triples, sorted({r for r, _, _ in triples})


def _check_kmatrix(case: Case, text: str) -> str | None:
    # sum_gamma k(alpha, gamma) deg(gamma) = [G_w : H_w] deg(alpha) = p^w deg(alpha)
    p, w = case.param("p"), case.param("w")
    triples, rows = _triples(case, text)
    if len(rows) != multipartition_count(w, p - 1):
        return f"{len(rows)} rows, expected {multipartition_count(w, p - 1)}"
    sums = dict.fromkeys(rows, 0)
    for row, col, v in triples:
        sums[row] += v * label_degree(col, (p - 1) // 2, p - 1)
    for row, total in sums.items():
        if total != p**w * label_degree(row, None, 1):
            return f"row {row} violates the degree identity"
    return None


def _check_gram(case: Case, text: str) -> str | None:
    triples, _ = _triples(case, text)
    entries = {(r, c): v for r, c, v in triples}
    if any(entries.get((c, r)) != v for (r, c), v in entries.items()):
        return "gram matrix is not symmetric"
    return None


def _partition_records(case: Case, text: str):
    """One dict per partition of a basicset/blocks output."""
    if "--format" not in case.args:
        payload = json.loads(text)
        if case.subcommand == "blocks":
            return [
                {"partition": lam, "core": b["core"], "weight": b["weight"]}
                for b in payload["blocks"]
                for lam in b["partitions"]
            ]
        return payload["partitions"]
    return list(csv.DictReader(io.StringIO(text)))


def _check_partition_list(case: Case, text: str) -> str | None:
    p, n = case.param("p"), case.param("n")
    records = _partition_records(case, text)
    if len(records) != partition_count(n):
        return f"{len(records)} partitions, expected {partition_count(n)}"
    for rec in records:
        if sum(json.loads(rec["core"])) + p * int(rec["weight"]) != n:
            return f"{rec['partition']}: |core| + p * weight != n"
    if case.subcommand == "basicset":
        basic = sum(rec["basic"] in (True, "True") for rec in records)
        if basic != partition_count(n, avoid=p):
            return f"{basic} basic partitions, expected {partition_count(n, avoid=p)}"
    return None


def _check_verify(case: Case, text: str) -> str | None:
    if "--format" in case.args:
        statuses = [row["status"] for row in csv.DictReader(io.StringIO(text))]
        return "a claim failed" if "fail" in statuses else None
    payload = json.loads(text)
    if payload["passed"] is not True or payload["failed"] != 0:
        return f"report has passed={payload['passed']}, failed={payload['failed']}"
    return None


def _check_enumerate(case: Case, text: str) -> str | None:
    p, w = (int(a) for a in case.args)
    sizes = [size for _, size in json.loads(text)["classes"]]
    order = (p * (p - 1)) ** w * factorial(w)
    if sum(sizes) != order:
        return f"class sizes sum to {sum(sizes)}, expected {order}"
    if len(sizes) != multipartition_count(w, p):
        return f"{len(sizes)} classes, expected {multipartition_count(w, p)}"
    return None


INVARIANTS = {
    "kmatrix": _check_kmatrix,
    "gram": _check_gram,
    "blocks": _check_partition_list,
    "basicset": _check_partition_list,
    "verify": _check_verify,
    "enumerate": _check_enumerate,
}


def invariant_error(case: Case, data: bytes) -> str | None:
    """Why the output breaks its subcommand's invariant, or None."""
    try:
        return INVARIANTS[case.subcommand](case, data.decode())
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


def check(case: Case, data: bytes, digests: dict[str, str], seen: set) -> str | None:
    """Why the output of `case` is wrong, or None.  `seen` holds the digests
    whose invariants already passed in this run, so each distinct output is
    checked once."""
    got = digest(data)
    want = digests.get(case.key)
    if want is None:
        return "no reference digest"
    if got != want:
        return f"sha256 {got[:12]} differs from the reference {want[:12]}"
    if got not in seen:
        error = invariant_error(case, data)
        if error:
            return error
        seen.add(got)
    return None
