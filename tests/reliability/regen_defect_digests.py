"""Regenerate the pinned defect-map digests (deliberate
changes only).

Run from the repo root::

    PYTHONPATH=src python tests/reliability/regen_defect_digests.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from defect_digest_cases import compute_digests  # noqa: E402

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "defect_digests.json")


def main() -> None:
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump(compute_digests(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
