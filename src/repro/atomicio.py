"""The one persistence primitive: atomic JSON file writes.

Every on-disk JSON artifact — result-cache entries, campaign manifests
and ledgers, run manifests — is written through
:func:`atomic_write_json`.  The payload goes to a staging file in the
target directory and is then renamed over the target, so readers see
either the old file or the new one, never a torn write.

The staging name carries the writer's process and thread id.  A thread
writes one file at a time, so no two live writers ever share a staging
file: any number of threads and processes may write the same path at
once, and the last rename wins.  Staging names are
``.<name>.<pid>-<thread>.tmp``, which match none of the ``*.json``
scans over cache and ``sweeps/`` directories.  (``tempfile.mkstemp``
gives the same guarantee, but its extra syscalls measurably slowed the
service's cold campaigns.)
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Union

__all__ = ["atomic_write_json"]


def atomic_write_json(path: Union[str, Path], payload: Any) -> Path:
    """Write ``payload`` to ``path`` as JSON, atomically.

    The bytes are ``json.dump(payload, indent=1, sort_keys=True)``.
    Parent directories are created as needed; the staging file is
    removed if anything fails before the rename.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    staging = path.with_name(
        f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(staging, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
        os.replace(staging, path)
    except BaseException:
        try:
            os.unlink(staging)
        except FileNotFoundError:
            pass
        raise
    return path
