"""All-or-nothing artifact writes.

A write goes to a hidden temporary file in the target's directory and is
renamed over the target only once it completed, so a failed or interrupted
run leaves either the earlier file or the new one, never a truncated mix.
The rename is atomic on POSIX and Windows when both names share a
filesystem, which the shared directory guarantees. Nothing is fsync'ed:
this protects against the process dying, not against power loss.
"""

from __future__ import annotations

import json
import os
import secrets
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path):
    """Yield a UTF-8 text handle (newline="", so line endings are written
    as given) whose content replaces `path` when the block exits normally.
    On an exception the temporary file is removed and `path` is untouched.
    path's directory is created if missing, so an output directory first
    exists at its first write."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(6)}.tmp")
    # mode "x" creates the file under the process umask, like a plain open
    fh = open(tmp, "x", newline="", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_json(path, doc, sort_keys: bool = False) -> None:
    """Write doc as JSON indented by 2 with a final newline."""
    with atomic_open(path) as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=sort_keys) + "\n")
