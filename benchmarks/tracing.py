"""Layer tracing of wreathdec from outside the package.

`Tracer.installed()` wraps the public functions of each wreathdec module in
place, in the module that defines them and in every module that imported
them by name, and restores them on exit.  Nothing under src/ changes.

Three kinds of wrapper keep the cost proportional to what is needed:

* timed: call count, self time (span time minus the time of wrapped calls
  inside it) and the total of the outermost calls of its group.  Coarse
  functions (a few calls per case) also record a span: id, name, start,
  end, parent span and run id.
* counted: a call counter only, for hot leaves such as ``mn_value``.
* cyclotomic: a counter per operation and the time spent inside the
  outermost ``Cyclotomic`` operation, which is the layer's self time since
  it calls no other traced layer.

The functools caches stay unwrapped: their ``cache_info()`` after a cleared
start gives the calls and misses of ``lr_coefficient`` (4.7 M calls on one
case) and ``sn_char._mn`` for free.  The enumeration caches are re-created
around a timed inner function, so only misses pay for the timer.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

perf = time.perf_counter

MODULES = ("partitions", "sn_char", "lr", "cyclotomic", "decomp", "oracle", "cli")

# (module, function, span): timed, named "<module>.<function>", grouped
# with itself unless GROUPS says otherwise.
TIMED = [
    ("lr", "iterated_lr", False),
    ("decomp", "induce_H_to_G", False),
    ("decomp", "restrict_G_to_H", False),
    ("decomp", "k_matrix", True),
    ("decomp", "gram_matrix", True),
    ("decomp", "determinant", True),
    ("decomp", "block_partition", True),
    ("decomp", "basic_set", True),
    ("partitions", "p_core_and_quotient", False),
    ("partitions", "format_partition", False),
    ("partitions", "format_multipartition", False),
    ("cli", "cmd_kmatrix", True),
    ("cli", "cmd_gram", True),
    ("cli", "cmd_basicset", True),
    ("cli", "cmd_blocks", True),
    ("cli", "cmd_verify", True),
    ("cli", "_block_records", True),
    ("cli", "_emit", True),
    ("cli", "_json_text", True),
    ("cli", "_csv_text", True),
    ("oracle", "parametrized_character", False),
    ("oracle", "induce", False),
    ("oracle", "inner_product", False),
    ("oracle", "verify_suite", True),
]
SUITES = (
    "base_group", "class_structure", "character", "tilde_restriction",
    "restriction", "mackey", "reconstruction",
)
TIMED += [("oracle", f"{suite}_claims", True) for suite in SUITES]

GROUPS = {
    "partitions.format_partition": "partitions.format",
    "partitions.format_multipartition": "partitions.format",
    "cli._emit": "cli.emit",
    "cli._json_text": "cli.emit",
    "cli._csv_text": "cli.emit",
    "partitions.generate_partitions": "partitions.generate",
    "partitions.generate_multipartitions": "partitions.generate",
}

RECACHED = [("partitions", "generate_partitions"), ("partitions", "generate_multipartitions")]
COUNTED = [("sn_char", "mn_value"), ("sn_char", "degree")]
CYCLOTOMIC_OPS = {"__init__": "new", "__add__": "add", "__radd__": "add",
                  "__mul__": "mul", "__rmul__": "mul"}

# Cleared before every in-process case, so each starts as cold as a fresh
# process and its counts repeat exactly.
CLEARED = [
    ("lr", "lr_coefficient"),
    ("partitions", "generate_partitions"),
    ("partitions", "generate_multipartitions"),
    ("sn_char", "_mn"),
    ("cyclotomic", "cyclotomic_polynomial"),
    ("oracle", "_wreath_cached"),
    ("oracle", "base_group"),
    ("oracle", "_inv_perm"),
    ("oracle", "perm_cycles"),
]


def package_modules():
    mods = {name: importlib.import_module(f"wreathdec.{name}") for name in MODULES}
    mods["wreathdec"] = importlib.import_module("wreathdec")
    return mods


def clear_caches() -> None:
    mods = package_modules()
    for module, name in CLEARED:
        fn = getattr(mods[module], name, None)
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.group_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.cache_calls: Counter = Counter()
        self.cache_misses: Counter = Counter()
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._frames: list[list] = []  # [child time, span id] per open timed call
        self._group_depth: Counter = Counter()
        self._cyclo_depth = 0
        self._spans_opened = 0
        self._run = None
        self._patches: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def timed(self, name, fn, span=False, after=None):
        group = GROUPS.get(name, name)
        frames, depth = self._frames, self._group_depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span:
                parent = next((f[1] for f in reversed(frames) if f[1] is not None), None)
                self._spans_opened += 1
                frame = [0.0, self._spans_opened]
            else:
                frame = [0.0, None]
            frames.append(frame)
            depth[group] += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                frames.pop()
                depth[group] -= 1
                elapsed = end - start
                self.calls[name] += 1
                self.self_s[name] += elapsed - frame[0]
                if not depth[group]:
                    self.group_s[group] += elapsed
                if frames:
                    frames[-1][0] += elapsed
                if span:
                    self.spans.append((frame[1], name, start, end, parent, self._run))
            if after:
                after(args, result)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def cyclotomic(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if self._cyclo_depth:
                self._cyclo_depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._cyclo_depth -= 1
            self._cyclo_depth = 1
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self._cyclo_depth = 0
                self.group_s["cyclotomic"] += perf() - start

        return wrapper

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace(self, mods, original, replacement) -> None:
        """Point every package-level reference to `original` at `replacement`."""
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def _lookup(self, owner, name, label):
        """`owner`'s own attribute `name`, or None (recorded as not traced)."""
        fn = vars(owner).get(name) if owner is not None else None
        if fn is None:
            self.missing.append(label)
        return fn

    @contextmanager
    def installed(self):
        mods = package_modules()
        try:
            for module, name, span in TIMED:
                label = f"{module}.{name}"
                if fn := self._lookup(mods[module], name, label):
                    after = {"oracle.verify_suite": self._count_claims}.get(label)
                    self._replace(mods, fn, self.timed(label, fn, span, after))
            for module, name in RECACHED:
                label = f"{module}.{name}"
                if fn := self._lookup(mods[module], name, label):
                    self._replace(mods, fn, functools.cache(self.timed(label, fn.__wrapped__)))
            for module, name in COUNTED:
                label = f"{module}.{name}"
                if fn := self._lookup(mods[module], name, label):
                    self._replace(mods, fn, self.counted(label, fn))
            cyclo = vars(mods["cyclotomic"]).get("Cyclotomic")
            for op, counter in CYCLOTOMIC_OPS.items():
                if fn := self._lookup(cyclo, op, f"cyclotomic.Cyclotomic.{op}"):
                    self._set(cyclo, op, self.cyclotomic(f"cyclotomic.{counter}", fn))
            group = vars(mods["oracle"]).get("WreathGroup")
            if fn := self._lookup(group, "__init__", "oracle.WreathGroup.__init__"):
                self._set(group, "__init__", self.timed(
                    "oracle.enumerate", fn, span=True, after=self._count_group
                ))
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def _count_group(self, args, _result) -> None:
        group = args[0]
        self.counts["oracle.elements"] += len(group.elements)
        self.counts["oracle.classes"] += len(group.class_reps)
        self.counts["oracle.conj_row_cells"] += len(group.class_reps) * len(group.elements)

    def _count_claims(self, _args, claims) -> None:
        self.counts["oracle.claims"] += len(claims)
        self.counts["oracle.claims_failed"] += sum(c.status == "fail" for c in claims)
        self.counts["oracle.claims_skipped"] += sum(c.status == "skip" for c in claims)

    # -- runs -------------------------------------------------------------

    @contextmanager
    def run(self, run_id: str):
        """One case: clears the caches, records a root span, and collects
        the hit and miss counts of the unwrapped caches."""
        clear_caches()
        self._run = run_id
        self._spans_opened += 1
        frame = [0.0, self._spans_opened]
        self._frames.append(frame)
        start = perf()
        try:
            yield
        finally:
            end = perf()
            self._frames.pop()
            self.spans.append((frame[1], "case", start, end, None, run_id))
            mods = package_modules()
            for module, name in (("lr", "lr_coefficient"), ("sn_char", "_mn")):
                fn = getattr(mods[module], name, None)
                if hasattr(fn, "cache_info"):
                    info = fn.cache_info()
                    self.cache_calls[f"{module}.{name}"] += info.hits + info.misses
                    self.cache_misses[f"{module}.{name}"] += info.misses
            self._run = None


# Per-layer metric name -> (unit, better); every traced run reports all of
# them, 0 where the workload does not reach the layer.
LAYER_METRICS = {
    "lr.iterated_lr_calls": ("count", "lower"),
    "lr.iterated_lr_s": ("s", "lower"),
    "lr.lr_coefficient_calls": ("count", "lower"),
    "lr.lr_coefficient_misses": ("count", "lower"),
    "lr.lr_coefficient_hit_ratio": ("ratio", "higher"),
    "decomp.induce_calls": ("count", "lower"),
    "decomp.induce_s": ("s", "lower"),
    "decomp.k_matrix_s": ("s", "lower"),
    "decomp.gram_s": ("s", "lower"),
    "decomp.determinant_s": ("s", "lower"),
    "decomp.restrict_calls": ("count", "lower"),
    "decomp.restrict_s": ("s", "lower"),
    "decomp.block_partition_s": ("s", "lower"),
    "partitions.p_core_and_quotient_calls": ("count", "lower"),
    "partitions.p_core_and_quotient_s": ("s", "lower"),
    "partitions.generate_partitions_misses": ("count", "lower"),
    "partitions.generate_multipartitions_misses": ("count", "lower"),
    "partitions.generate_s": ("s", "lower"),
    "partitions.format_s": ("s", "lower"),
    "cli.records_s": ("s", "lower"),
    "cli.emit_s": ("s", "lower"),
    "cli.out_bytes": ("bytes", "lower"),
    "oracle.enumerate_s": ("s", "lower"),
    "oracle.elements": ("count", "lower"),
    "oracle.classes": ("count", "lower"),
    "oracle.conj_row_cells": ("count", "lower"),
    "oracle.characters": ("count", "lower"),
    "oracle.character_s": ("s", "lower"),
    "oracle.induce_calls": ("count", "lower"),
    "oracle.induce_s": ("s", "lower"),
    "oracle.inner_product_calls": ("count", "lower"),
    "oracle.inner_product_s": ("s", "lower"),
    **{f"oracle.suite.{suite}_s": ("s", "lower") for suite in SUITES},
    "oracle.claims": ("count", "higher"),
    "oracle.claims_failed": ("count", "lower"),
    "oracle.claims_skipped": ("count", "lower"),
    "cyclotomic.new_count": ("count", "lower"),
    "cyclotomic.add_count": ("count", "lower"),
    "cyclotomic.mul_count": ("count", "lower"),
    "cyclotomic.self_s": ("s", "lower"),
    "sn_char.mn_calls": ("count", "lower"),
    "sn_char.mn_misses": ("count", "lower"),
    "sn_char.degree_calls": ("count", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_values(t: Tracer, out_bytes: int) -> dict[str, float]:
    """Per-layer metric values from a finished traced run, without the
    trace.* entries, which the caller measures."""
    calls, self_s, group_s, counts = t.calls, t.self_s, t.group_s, t.counts
    lr_calls = t.cache_calls["lr.lr_coefficient"]
    values = {
        "lr.iterated_lr_calls": calls["lr.iterated_lr"],
        "lr.iterated_lr_s": group_s["lr.iterated_lr"],
        "lr.lr_coefficient_calls": lr_calls,
        "lr.lr_coefficient_misses": t.cache_misses["lr.lr_coefficient"],
        "lr.lr_coefficient_hit_ratio":
            (lr_calls - t.cache_misses["lr.lr_coefficient"]) / lr_calls if lr_calls else 0.0,
        "decomp.induce_calls": calls["decomp.induce_H_to_G"],
        "decomp.induce_s": group_s["decomp.induce_H_to_G"],
        "decomp.k_matrix_s": self_s["decomp.k_matrix"],
        "decomp.gram_s": self_s["decomp.gram_matrix"],
        "decomp.determinant_s": group_s["decomp.determinant"],
        "decomp.restrict_calls": calls["decomp.restrict_G_to_H"],
        "decomp.restrict_s": group_s["decomp.restrict_G_to_H"],
        "decomp.block_partition_s": group_s["decomp.block_partition"],
        "partitions.p_core_and_quotient_calls": calls["partitions.p_core_and_quotient"],
        "partitions.p_core_and_quotient_s": group_s["partitions.p_core_and_quotient"],
        "partitions.generate_partitions_misses": calls["partitions.generate_partitions"],
        "partitions.generate_multipartitions_misses": calls["partitions.generate_multipartitions"],
        "partitions.generate_s": group_s["partitions.generate"],
        "partitions.format_s": group_s["partitions.format"],
        "cli.records_s": group_s["cli._block_records"],
        "cli.emit_s": group_s["cli.emit"],
        "cli.out_bytes": out_bytes,
        "oracle.enumerate_s": group_s["oracle.enumerate"],
        "oracle.elements": counts["oracle.elements"],
        "oracle.classes": counts["oracle.classes"],
        "oracle.conj_row_cells": counts["oracle.conj_row_cells"],
        "oracle.characters": calls["oracle.parametrized_character"],
        "oracle.character_s": group_s["oracle.parametrized_character"],
        "oracle.induce_calls": calls["oracle.induce"],
        "oracle.induce_s": group_s["oracle.induce"],
        "oracle.inner_product_calls": calls["oracle.inner_product"],
        "oracle.inner_product_s": group_s["oracle.inner_product"],
        **{f"oracle.suite.{s}_s": group_s[f"oracle.{s}_claims"] for s in SUITES},
        "oracle.claims": counts["oracle.claims"],
        "oracle.claims_failed": counts["oracle.claims_failed"],
        "oracle.claims_skipped": counts["oracle.claims_skipped"],
        "cyclotomic.new_count": counts["cyclotomic.new"],
        "cyclotomic.add_count": counts["cyclotomic.add"],
        "cyclotomic.mul_count": counts["cyclotomic.mul"],
        "cyclotomic.self_s": group_s["cyclotomic"],
        "sn_char.mn_calls": counts["sn_char.mn_value"],
        "sn_char.mn_misses": t.cache_misses["sn_char._mn"],
        "sn_char.degree_calls": counts["sn_char.degree"],
    }
    return values
