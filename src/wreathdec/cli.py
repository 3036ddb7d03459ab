"""Batch command-line front end.

Subcommands compute decomposition matrices, Gram matrices, basic sets and
block partitions, or run the brute-force verification suites.  Output is
JSON (canonical) or CSV, deterministic byte-for-byte for a fixed
configuration.  The environment variable WREATH_GUARD_ELEMS overrides the
oracle's element guard (verification may be slow above the default).  Exit
codes: 0 on success, 1 when a verify claim fails, 2 on a usage or guard error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from itertools import chain, repeat
from math import comb

from . import decomp
from .partitions import generate_partitions, is_odd_prime

BLOCKS_GUARD = 40
BLOCKS_PRIME_GUARD = 10**12  # bounds the trial division of the primality test
KMATRIX_GUARD = 6
KMATRIX_LABEL_GUARD = 250_000
GRAM_LABEL_GUARD = 30_000
LABEL_COMPONENT_GUARD = 26_000_000  # G-labels times p; measured in the README's Guards
GUARD_ENV_DIGITS = 4300  # the most digits int() converts by default


def _fail(message: str):
    """Usage and guard errors: one `error:` line on stderr, exit code 2."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _require(condition: bool, message: str) -> None:
    if not condition:
        _fail(message)


def _guard_from_env() -> int | None:
    raw = os.environ.get("WREATH_GUARD_ELEMS")
    if not raw:
        return None
    digits = raw.strip()
    _require(digits.isdecimal(),
             f"WREATH_GUARD_ELEMS must be a nonnegative integer, got {raw!r}")
    _require(len(digits) <= GUARD_ENV_DIGITS,
             f"WREATH_GUARD_ELEMS must have at most {GUARD_ENV_DIGITS} digits, got {len(digits)}")
    return int(digits)


def _emit(args, report) -> None:
    """Open --out, or take stdout, then write the text chunks of report() and
    flush.  report builds its records inside the stream, so a bad --out fails
    before any work.  A failed open, write or flush is a usage error: one
    `error:` line, exit code 2."""
    try:
        if args.out:
            with open(args.out, "w") as fh:
                fh.writelines(report())
        else:
            sys.stdout.writelines(report())
            sys.stdout.flush()
    except OSError as exc:
        if not args.out:  # so that the exit does not flush what stdout still holds
            try:
                sys.stdout.close()
            except OSError:
                pass
        _fail(f"cannot write {args.out or 'stdout'}: {exc.strerror}")


def _json(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _chunks(args, header, head, groups, text, rows, **tail):
    """A report as one chunk of text per group of records (there is at least
    one group, and none is empty), so that none is held whole.  CSV: the header
    and rows(group) of each group.  JSON: the object head, whose last field is
    an empty list, up to that list's bracket, then text(group), the group's
    items as JSON text, then the tail fields, as _json writes the whole object."""
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for group in groups:
            writer.writerows(rows(group))
            yield buf.getvalue()
            buf.seek(0)
            buf.truncate()
        return
    yield _json(head)[:-2]
    for i, group in enumerate(groups):
        yield ("," if i else "") + text(group)
    yield "]" + "".join(f',"{key}":{_json(value)}' for key, value in tail.items()) + "}\n"


def _glabel_count(p: int, w: int) -> int:
    """Number of G-labels, p-tuples of partitions of total size w, without
    enumerating them: sum over k of C(p, k) times the number of k-tuples of
    nonempty partitions of total size w, convolved once per nonempty slot."""
    parts = [0] + [len(generate_partitions(n)) for n in range(1, w + 1)]
    tuples, count = [1] + [0] * w, 0
    for k in range(w + 1):
        count += comb(p, k) * tuples[w]
        tuples = [sum(tuples[i] * parts[n - i] for i in range(n)) for n in range(w + 1)]
    return count


def _require_label_args(args, label_guard: int) -> None:
    """The size guards run before the primality test, a trial division up to
    sqrt(p); p >= 3 comes first, since comb() rejects a negative p."""
    _require(args.p >= 3, f"p must be an odd prime, got {args.p}")
    _require(0 <= args.w <= KMATRIX_GUARD, f"w must be in 0..{KMATRIX_GUARD}")
    count = _glabel_count(args.p, args.w)
    _require(count <= label_guard,
             f"p={args.p}, w={args.w} has {count} G-labels, beyond the guard of {label_guard}")
    _require(count * args.p <= LABEL_COMPONENT_GUARD,
             f"p={args.p}, w={args.w} has {count * args.p} G-label components, "
             f"beyond the guard of {LABEL_COMPONENT_GUARD}")
    _require(is_odd_prime(args.p), f"p must be an odd prime, got {args.p}")


def _formatter(n: int):
    """format_partition, unchecked, for parts up to n: one table of part texts."""
    digits = list(map(str, range(n + 1)))
    return lambda lam: "[" + ",".join(map(digits.__getitem__, lam)) + "]"


def _matrix_report(args, hlabels, matrix, **tail):
    """A matrix report, G-label columns and rows hlabels (the G-labels when None),
    one group per row of (col, value) pairs, every row nonempty (as is each K-row,
    and each Gram row at its diagonal): JSON [row, col, value] entries, one %
    format per row, or CSV label triples."""
    fmt = _formatter(args.w)
    parts = {lam: fmt(lam) for n in range(args.w + 1) for lam in generate_partitions(n)}

    def label_text(label):  # format_multipartition, each partition formatted once
        return "[" + ",".join([parts[c] for c in label]) + "]"

    def entries(row):
        i, pairs = row
        return ",".join([f"[{i},%d,%d]"] * len(pairs)) % tuple(chain.from_iterable(pairs))

    cols = list(map(label_text, decomp.glabels(args.p, args.w)))
    rows = cols if hlabels is None else list(map(label_text, hlabels))
    return _chunks(args, ["row_label", "col_label", "value"],
                   {"p": args.p, "w": args.w, "rows": rows, "cols": cols, "entries": []},
                   enumerate(matrix), entries,
                   lambda row: [[rows[row[0]], cols[j], v] for j, v in row[1]], **tail)


def cmd_kmatrix(args) -> int:
    _require_label_args(args, KMATRIX_LABEL_GUARD)
    _emit(args, lambda: _matrix_report(
        args, decomp.hlabels(args.p, args.w), decomp.k_rows(args.p, args.w)))
    return 0


def cmd_gram(args) -> int:
    _require_label_args(args, GRAM_LABEL_GUARD)
    _emit(args, lambda: _matrix_report(args, None, decomp.gram_rows(args.p, args.w),
                                       determinant=decomp.gram_determinant(args.p, args.w)))
    return 0


def _require_block_args(args) -> None:
    """A p above every hook of a partition of n leaves it its own weight-0
    basic block, found without an abacus, so the abacus work is bounded by n
    alone.  The primality test, a trial division up to sqrt(p), is then the
    only cost that grows with p, so a bound on p runs before it."""
    _require(1 <= args.n <= BLOCKS_GUARD, f"n must be in 1..{BLOCKS_GUARD}")
    _require(args.p < BLOCKS_PRIME_GUARD,
             f"p must be below the guard of {BLOCKS_PRIME_GUARD}, got {args.p}")
    _require(is_odd_prime(args.p), f"p must be an odd prime, got {args.p}")


def _block_groups(args):
    """One group per block of decomp._blocks: its core's text, its weight, and
    its members' texts and basic flags from the walk; cores are the only
    partitions formatted here."""
    fmt = _formatter(args.n)
    for (core, weight), (_, texts, flags) in decomp._blocks(args.n, args.p).items():
        yield fmt(core), weight, texts, flags


def cmd_basicset(args) -> int:
    _require_block_args(args)

    def text(block):  # one % template per block: a text and a flag per record
        core, weight, texts, flags = block
        record = '{"partition":"%%s","core":"%s","weight":%d,"basic":%%s}' % (core, weight)
        return ",".join([record] * len(texts)) % tuple(
            chain.from_iterable(zip(texts, map(("false", "true").__getitem__, flags))))

    _emit(args, lambda: _chunks(
        args, ["partition", "core", "weight", "basic"], {"n": args.n, "p": args.p, "partitions": []},
        _block_groups(args), text,
        lambda block: zip(block[2], repeat(block[0]), repeat(block[1]), block[3])))
    return 0


def cmd_blocks(args) -> int:
    _require_block_args(args)
    _emit(args, lambda: _chunks(
        args, ["core", "weight", "partition"], {"n": args.n, "p": args.p, "blocks": []},
        _block_groups(args),
        lambda block: '{"core":"%s","weight":%d,"partitions":["%s"]}' % (
            block[0], block[1], '","'.join(block[2])),
        lambda block: zip(repeat(block[0]), repeat(block[1]), block[2])))
    return 0


def cmd_verify(args) -> int:
    from . import oracle  # the only subcommand that loads the oracle
    _require(args.w >= 0, f"w must be nonnegative, got {args.w}")
    # a p above MAX_PRIME gets a skip record from verify_suite
    _require(args.p > oracle.MAX_PRIME or oracle.supported_p(args.p),
             f"p must be an odd prime, got {args.p}")
    guard, claims, tally = _guard_from_env(), [], {}

    def params(c):
        return " ".join(f"{k}={v}" for k, v in c.params.items())

    def report():  # the per-claim lines reach stderr before the report starts
        claims.extend(oracle.verify_suite(args.p, args.w, guard=guard))
        if not args.quiet:
            for c in claims:
                print(f"[{c.status.upper():4}] {c.claim} {params(c)}", file=sys.stderr)
        tally.update(failed=sum(c.status == "fail" for c in claims),
                     skipped=sum(c.status == "skip" for c in claims))
        return _chunks(
            args, ["claim", "params", "expected", "computed", "status"],
            {"p": args.p, "w": args.w, "claims": []}, claims,
            lambda c: _json({"claim": c.claim, "params": {k: str(v) for k, v in c.params.items()},
                             "expected": c.expected, "computed": c.computed, "status": c.status}),
            lambda c: [[c.claim, params(c), c.expected, c.computed, c.status]],
            **tally, passed=not tally["failed"])

    _emit(args, report)
    if not args.quiet:
        passed = len(claims) - tally["failed"] - tally["skipped"]
        print(f"{passed}/{len(claims)} claims passed"
              + (f", {tally['skipped']} skipped" if tally["skipped"] else ""), file=sys.stderr)
    return 1 if tally["failed"] else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wreathdec",
        description="Exact wreath-product restriction decompositions and their verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, with_w=False, with_n=False):
        sp.add_argument("--p", type=int, required=True, help="odd prime")
        if with_w:
            sp.add_argument("--w", type=int, required=True, help="wreath weight")
        if with_n:
            sp.add_argument("--n", type=int, required=True, help="partition size")
        sp.add_argument("--format", choices=["json", "csv"], default="json")
        sp.add_argument("--out", help="output path (default: stdout)")

    sp = sub.add_parser("kmatrix", help="decomposition coefficient matrix")
    common(sp, with_w=True)
    sp.set_defaults(func=cmd_kmatrix)

    sp = sub.add_parser("gram", help="Gram matrix of restricted characters")
    common(sp, with_w=True)
    sp.set_defaults(func=cmd_gram)

    sp = sub.add_parser("basicset", help="basic-set membership for partitions of n")
    common(sp, with_n=True)
    sp.set_defaults(func=cmd_basicset)

    sp = sub.add_parser("blocks", help="block partition keyed by (core, weight)")
    common(sp, with_n=True)
    sp.set_defaults(func=cmd_blocks)

    sp = sub.add_parser("verify", help="run the brute-force verification suites")
    common(sp, with_w=True)
    sp.add_argument("--quiet", action="store_true", help="suppress progress lines")
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
