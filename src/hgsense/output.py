"""The one output path: atomic file writes and the text-row formatters."""

from __future__ import annotations

import contextlib
import os
import tempfile
from itertools import chain

from .errors import ConfigError


def check_writable(path, suffixes=("",)):
    """Refuse, naming it, an output path that is empty, whose directory is
    missing, is not a directory or is not writable, or that with one of the
    suffixes its writes append is a directory, so a run can fail before it
    computes."""
    path = os.fspath(path)
    if not path:
        raise ConfigError("cannot write '': the path is empty")
    directory = os.path.dirname(path) or "."
    if not os.path.exists(directory):
        problem = "does not exist"
    elif not os.path.isdir(directory):
        problem = "is not a directory"
    elif not os.access(directory, os.W_OK | os.X_OK):
        problem = "is not writable"
    else:
        for target in (path + suffix for suffix in suffixes):
            if os.path.isdir(target):
                raise ConfigError(f"cannot write {target}: it is a directory")
        return
    raise ConfigError(f"cannot write {path}: directory {directory} {problem}")


@contextlib.contextmanager
def staged(path):
    """A temp sibling of path to write into: renamed onto path when the block
    completes and removed when it raises, so a failure leaves an existing
    target untouched and no temp file behind."""
    directory = os.path.dirname(os.fspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.close(fd)
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_atomic(path, *parts):
    """Write the parts in order to a staged temp sibling, then os.replace.
    Text goes out as UTF-8, untranslated; bytes-like parts (arrays) uncopied."""
    with staged(path) as tmp, open(tmp, "wb") as handle:
        for part in parts:
            handle.write(part.encode() if isinstance(part, str) else part)


# the float cell of every text row: 12 significant digits
FLOAT_CELL = "%.12g"


def format_rows(rows, sep: str) -> list[str]:
    """Each row's cells joined by sep, one line per row: floats (numpy's too)
    as FLOAT_CELL, anything else by str. Rows of one sequence of cell types
    share one %-format, so a row costs one %-operation."""
    formats = {}
    lines = []
    for row in rows:
        types = tuple(map(type, row))
        if types not in formats:
            formats[types] = sep.join([FLOAT_CELL if isinstance(v, float)
                                       else "%s" for v in row])
        lines.append(formats[types] % tuple(row))
    return lines


def format_indexed(prefix: str, values, sep: str) -> str:
    """One line per float in values, each ending in a newline:
    <prefix><k:04d><sep><value> with k counting from 0 and the value a
    FLOAT_CELL, so a line has the bytes format_rows gives the row
    (f"{prefix}{k:04d}", value). The whole run is one %-operation on one
    template. Pass a numpy array as tolist(): Python floats format faster.

    At 10**5 values (experiment.MAX_TRIALS) the traced peak is about 12.7 MB,
    the floats tolist makes included: the template (1.6 MB), one flat tuple
    of the indices and values with their int and float objects (about 7 MB)
    and the text (2.5 MB), under montecarlo_lockin's own peak at that size
    (about 17 MB)."""
    count = len(values)
    cells = tuple(chain.from_iterable(zip(range(count), values)))
    line = "%s%%04d%s%s\n" % (prefix.replace("%", "%%"),
                               sep.replace("%", "%%"), FLOAT_CELL)
    return (line * count) % cells
