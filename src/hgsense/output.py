"""The one output path: atomic file writes and the number format of text cells."""

from __future__ import annotations

import os
import tempfile


def write_atomic(path, *parts):
    """Write the parts in order through a temp sibling and os.replace, so that
    a failure leaves an existing target untouched and no temp file behind.
    Text goes out as UTF-8, untranslated; bytes-like parts (arrays) uncopied."""
    directory = os.path.dirname(os.fspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            for part in parts:
                handle.write(part.encode() if isinstance(part, str) else part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def format_cell(value) -> str:
    """Floats with 12 significant digits, reproducible byte for byte; else str."""
    return format(value, ".12g") if isinstance(value, float) else str(value)
