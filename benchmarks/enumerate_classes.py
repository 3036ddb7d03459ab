"""Library-user case: enumerate the big wreath product and list its classes.

Prints one JSON object with the label and size of every conjugacy class of
``wreath_group(p, w, "G")``.

    PYTHONPATH=src python3 benchmarks/enumerate_classes.py 3 4
"""

from __future__ import annotations

import json
import sys

import wreathdec


def main(argv) -> int:
    p, w = (int(a) for a in argv)
    group = wreathdec.wreath_group(p, w, "G")
    classes = [
        [wreathdec.format_multipartition(c.label), c.size]
        for c in wreathdec.conjugacy_classes(group)
    ]
    sys.stdout.write(json.dumps({"p": p, "w": w, "classes": classes}, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
