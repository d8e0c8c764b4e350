"""The correctness gate: every path must produce the same points.

Points are compared as their ``point_to_dict`` form, cell by cell,
where a cell is ``(curve label, offered load)``.  The fingerprint of a
workload and seed is the sha256 of the canonical JSON of every cell's
point, in curve and load order; ``fingerprints.json`` records it for
the default seed and a second one.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"

#: Cell -> point dict.
Cells = dict[tuple[str, float], dict]


class GateError(AssertionError):
    """A correctness check failed; the run must print no numbers."""


def fingerprint(cells: Cells) -> str:
    """sha256 over the canonical JSON of every cell's point."""
    rows = [[label, rho, cells[(label, rho)]]
            for label, rho in sorted(cells)]
    canonical = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def compare(name: str, cells: Cells, reference: Cells,
            reference_name: str) -> int:
    """Check that both paths produced the same cells, all equal.

    Returns the number of cells compared; raises :class:`GateError` when
    the cell sets differ or on the first point that differs.
    """
    if set(cells) != set(reference):
        missing = sorted(set(reference) - set(cells))[:3]
        extra = sorted(set(cells) - set(reference))[:3]
        raise GateError(f"{name} and {reference_name} cover different "
                        f"cells (missing {missing}, extra {extra})")
    for cell in sorted(cells):
        if cells[cell] != reference[cell]:
            raise GateError(
                f"{name} differs from {reference_name} at {cell}: "
                f"{cells[cell]} != {reference[cell]}")
    return len(cells)


def load_fingerprints(path: Path = FINGERPRINTS) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_fingerprint(table: dict, workload: str, seed: int,
                      cells: Cells) -> str:
    """Compare ``cells`` with the recorded fingerprint.

    Seeds nobody recorded are checked only across paths, never here.
    Returns ``"match"`` or ``"unrecorded"``.
    """
    actual = fingerprint(cells)
    expected = table.get("fingerprints", {}).get(workload, {}).get(str(seed))
    if expected is None:
        return "unrecorded"
    if expected != actual:
        raise GateError(f"fingerprint of {workload} seed {seed} is "
                        f"{actual}, recorded {expected}")
    return "match"
