"""The one output path: atomic file writes and the text-row formatters.

format_rows writes a row with one %-operation. format_indexed writes the
Monte Carlo trial rows, most of a run's text, with an array kernel: a value
v != 0 with e = floor(log10|v|) in [-4, 11] is scaled by the exact power
p = 10**(11 - e) into [1e11, 1e12) and rounded to its 12 significant digits
M. Its 16 digit slots hold M + 9 * (M // p) * p, which is M with a 0 after
the units digit, or for e < 0 M behind its leading zeros; the 0 in slot
e + 4 becomes the ".". Table lookups fill the slots, and one XOR a row turns
them into the bytes of its FLOAT_CELL text. The one multiplication is
correctly rounded and round-to-nearest is monotone, and every half-integer
below 2**40 is a float64. So the scaled value lies on the same side of each
half-integer as the exact product, or on it, and only a scaled value exactly
one half from an integer can round otherwise than FLOAT_CELL does. Such a
value, one whose scaled value leaves [1e11 + 1, 1e12 - 1], and 0, NaN, inf,
subnormals and the exponent form are written by FLOAT_CELL % v itself. So
every row has the bytes of the %-operation, for every float64. The last ulp
of np.log10 follows numpy's CPU dispatch and can move e by one, which moves
the scaled value out of that range: it decides only which values take the
%-operation.
"""

from __future__ import annotations

import contextlib
import functools
import os
import tempfile

import numpy as np

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


# format_indexed's kernel. A row of a block is built in fixed byte slots:
# the prefix, the label's 4-digit words (uint32), the separator, "-", "0",
# the 16 digit slots (4 words) and the newline. Every slot the row's text
# skips holds 0xFF, a byte UTF-8 never uses, and bytes.translate drops them.
_BLOCK = 4096  # values a kernel pass takes at once


@functools.cache
def _tables():
    """The kernel's tables, built on its first call:
    - "0000" to "9999" as uint32 words of 4 ASCII digits, for the labels
      and the number's 16 digit slots alike;
    - per group g of the last three digit words, least significant first,
      the slot of g's last nonzero digit, or 0 for g = 0: their maximum,
      end, is the slot of a number's last nonzero digit;
    - 10**(15 - dot) per dot = e + 4, the slot of the inserted 0;
    - per (sign * 16 + dot) * 16 + end, the XOR that turns the 5 words of
      slots -4 to 15, "-" at -2, "0" at -1 and the digits from 0, into the
      row's text. That keeps "-" if v < 0; "0." and -e - 1 zeros if e < 0;
      the digits through the last nonzero one and the units digit; the "."
      if a digit follows that. Each slot it drops or makes "." holds "-" or
      "0", so a constant XOR sets it: to 0xFF if dropped."""
    quads = np.indices((10,) * 4, np.int8).reshape(4, -1)  # 0000 to 9999
    places = (np.arange(12, 0, -4, dtype=np.int8)[:, None, None]
              + np.arange(4, dtype=np.int8)[:, None])  # digit i of group j
    last = np.max(places * (quads > 0), axis=1)
    sign, dot, end, slot = np.ix_(np.arange(2), np.arange(16), np.arange(16),
                                  np.arange(-4, 16))
    kept = ((slot < -2) | (slot == -2) & (sign == 1)
            | (np.minimum(dot - 1, 3) <= slot)
            & (slot <= np.maximum(end, dot - 1)))
    xors = np.where(kept, (slot == dot) * (ord(".") ^ ord("0")),
                    np.where(slot == -2, ord("-"), ord("0")) ^ 0xFF)
    words = (quads.T + ord("0")).astype(np.uint8, order="C").view(np.uint32)
    powers = (10 ** np.arange(15, -1, -1)).astype(np.float64)  # each exact
    return (words.ravel(), last, powers,
            xors.astype(np.uint8).reshape(512, 20).view(np.uint32))


def _write_labels(first, slots):
    """The labels first, first + 1, ... into their rows of label words
    (uint32), most significant first: the digits of k, at least 4, as %04d
    writes them, a leading zero past those as 0xFF."""
    table = _tables()[0]
    k = np.arange(first, first + len(slots))
    words = slots.shape[1]
    for j in range(words):  # one word holds every label below 10 000 as is
        slots[:, j] = table.take(
            k if words == 1 else k // 10 ** (4 * (words - 1 - j)) % 10000)
    if words > 1:
        digits = 4 + sum(k >= 10 ** j for j in range(4, 4 * words))
        text = slots.view(np.uint8)
        text[np.arange(4 * words) < 4 * words - digits[:, None]] = 0xFF


def _write_numbers(v, area, xors):
    """The FLOAT_CELL text of each value of v into its row's 5 words of
    slots -4 to 15 (see _tables), given the XOR table with the row's bytes
    in it; returns the indices of the values the kernel leaves to the
    %-operation."""
    table, last, powers, _ = _tables()
    # |v| clamped to [1e-4, 1e12], NaN to 1e-4: a value outside scales to
    # 1e11 or 1e12, which the range test refuses
    a = np.fmin(np.fmax(np.abs(v), 1e-4), 1e12)
    e = np.log10(a)
    dot = np.clip(np.floor(e, out=e), -4, 11, out=e).astype(np.intp) + 4
    p = powers.take(dot)
    scaled = a * p
    digits = np.rint(scaled)
    fast = ((np.abs(scaled - digits) < 0.5)
            & (scaled >= 1e11 + 1) & (scaled <= 1e12 - 1))
    digits += 9 * np.floor(digits / p) * p  # the 0 after the units digit
    digits = digits.astype(np.int64)  # exact: an integer below 2**53
    groups = []  # its 4-digit groups, the least significant first
    for _ in range(3):
        high = digits // 10000
        groups.append(digits - high * 10000)
        digits = high
    groups.append(digits)
    end = np.max([t.take(g) for t, g in zip(last, groups)], axis=0)
    area[:] = xors.take((np.signbit(v) * 16 + dot) * 16 + end, axis=0)
    for j, group in enumerate(groups):
        area[:, 4 - j] ^= table.take(group)
    return np.flatnonzero(~fast)


def format_indexed(prefix: str, values, sep: str) -> str:
    """One line per float in values, each ending in a newline:
    <prefix><k:04d><sep><value> with k counting from 0 and the value a
    FLOAT_CELL, so a line has the bytes format_rows gives the row
    (f"{prefix}{k:04d}", value). The kernel the module docstring describes
    writes the rows in blocks of _BLOCK values, at every length; a value it
    leaves to FLOAT_CELL % v (about 0.005% of Monte Carlo SNR samples, and
    every value outside [1e-4, 1e12)) has that text, right-aligned on the
    newline, put in the 20 slots that end there. The prefix and the
    separator are kept as their UTF-8 bytes, whatever characters they hold.

    At 10**5 values (experiment.MAX_TRIALS) the traced peak is about
    5.2 MB: the blocks' text (2.5 MB) and its join (2.5 MB), beside one
    block's slots, their copies and temporaries (under 0.6 MB), under
    montecarlo_lockin's own peak at that size (about 17 MB)."""
    values = np.asarray(values, dtype=np.float64)
    count = len(values)
    head, tail = prefix.encode(), sep.encode()
    words = -(-len(str(max(count - 1, 0))) // 4)  # 4-digit label words
    label = -(-len(head) // 4) * 4  # the prefix ends where the label starts
    end = label + 4 * words + len(tail)
    number = -(-(end + 3) // 4) * 4  # the digits, 3 slots or more past end
    row = bytearray(b"\xff" * (number + 20))
    row[label - len(head):label] = head
    row[end - len(tail):end] = tail
    row[number - 2:number + 17] = b"-0" + bytes(16) + b"\n"
    row = np.frombuffer(row, np.uint8)
    area = slice(number // 4 - 1, number // 4 + 4)
    xors = _tables()[3] ^ row.view(np.uint32)[area]
    slots = np.repeat(row[None], min(count, _BLOCK), axis=0)
    labels = slots.view(np.uint32)[:, label // 4:label // 4 + words]
    numbers = slots.view(np.uint32)[:, area]
    blocks = []
    for start in range(0, count, _BLOCK):
        v = values[start:start + _BLOCK]
        n = len(v)
        _write_labels(start, labels[:n])
        rest = _write_numbers(v, numbers[:n], xors)
        if len(rest):  # on the newline; the next block rewrites the rest
            cells = b"".join((FLOAT_CELL % x + "\n").encode().rjust(
                20, b"\xff") for x in v[rest].tolist())
            slots[rest, number - 3:number + 17] = np.frombuffer(
                cells, np.uint8).reshape(-1, 20)
        blocks.append(str(slots[:n].tobytes().translate(None, b"\xff"),
                          "utf-8"))  # a block holds whole rows
    return "".join(blocks)
