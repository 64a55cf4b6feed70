"""Rewrite pinned.json: the stdout digest of every default-seed query.

    python3 perfbench/pin.py

Run it only when an output change is intended, and review the diff of
pinned.json with the change that caused it.
"""

from __future__ import annotations

import json
import sys

from run import DEFAULT_SEED, HERE, load_checkout


def main() -> int:
    if not load_checkout():
        return 2
    from harness import call, digest
    from workloads import WORKLOADS, generate

    pinned = {w: [digest(call(q).stdout) for q in generate(w, DEFAULT_SEED)] for w in WORKLOADS}
    (HERE / "pinned.json").write_text(json.dumps({"seed": DEFAULT_SEED, "workloads": pinned},
                                                 indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
