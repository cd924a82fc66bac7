"""The one output path: atomic file writes and the text-row formatters.

format_rows writes a row with one %-operation. format_indexed writes the
Monte Carlo trial rows, most of a run's text, with an array kernel: a value
v != 0 with e = floor(log10|v|) in [-4, 11] is scaled by the exact power
10**(11 - e) into [1e11, 1e12) and rounded to its 12 significant digits,
which table lookups turn into the bytes of its FLOAT_CELL text. The one
multiplication is correctly rounded, so below 1e12 the scaled value is off
by at most 2**-13; a value whose scaled value leaves [1e11 + 1, 1e12 - 1],
or whose fraction lies within _TIE_MARGIN of one half, is written by
FLOAT_CELL % v itself, as are 0, NaN, inf, subnormals and the exponent form.
So every row has the bytes of the %-operation, for every float64.
"""

from __future__ import annotations

import contextlib
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


# format_indexed's kernel. Each row of a block is built in fixed byte slots:
# the prefix, the label's 4-digit words (uint32), the separator, then the
# number's 32 slots (4 uint64 words): "-0.000" and two unused, and each of
# the 12 digits followed by a "." slot, the last slot holding the newline.
# A keep-mask per row, looked up by (sign, e, significant digits) for the
# number, selects the row's text from the slots (np.compress).
_BLOCK = 4096  # values a kernel pass takes at once
_TIE_MARGIN = 2.0 ** -10  # eight times the scaled value's error bound
_POW10 = (10 ** np.arange(16)).astype(np.float64)  # float64 holds each exactly


def _quad_digits():
    """"0000" to "9999", 4 ASCII digits a row."""
    digits = np.empty((10,) * 4 + (4,), np.uint8)
    ascii_digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for place in range(4):
        digits[..., place] = ascii_digits.reshape((10,) + (1,) * (3 - place))
    return digits.reshape(10000, 4)


def _digit_words(quads):
    """Per 4-digit group, its digits each followed by a "." slot (uint64);
    the second row has the newline in its last slot, for the last group."""
    words = np.full((2, 10000, 8), ord("."), np.uint8)
    words[:, :, ::2] = quads
    words[1, :, 7] = ord("\n")
    return words.view(np.uint64)[..., 0]


def _significant_digits():
    """Per group position j and group g, 4 j plus g's digits through its
    last nonzero one, or 0 for g = 0: the maximum over a mantissa's groups
    is its count of significant digits."""
    through = np.full((10,) * 4, 4, np.int8)
    for zeros in range(1, 5):  # groups ending in that many zeros
        through[(Ellipsis,) + (0,) * zeros] = 4 - zeros
    table = through.reshape(-1) + np.arange(0, 12, 4, dtype=np.int8)[:, None]
    table[:, 0] = 0
    return table


def _number_masks():
    """The keep-mask of the 32 number slots, per sign * 208 + (e + 4) * 13
    + significant digits (4 uint64 words a row): "-" if negative; "0." and
    -e - 1 zeros if e < 0; the digits through the last significant one and
    the units digit; the "." after the units digit if a digit follows it;
    the newline."""
    sign, e, sig, slot = np.ix_(np.arange(2), np.arange(-4, 12),
                                np.arange(13), np.arange(32))
    digit = (slot - 8) // 2
    kept = np.maximum(sig, e + 1)
    mask = ((slot == 0) & (sign == 1)
            | (slot >= 1) & (slot <= 5) & (e < 0) & (slot <= 1 - e)
            | (slot >= 8) & (slot % 2 == 0) & (digit < kept)
            | (slot >= 8) & (slot % 2 == 1) & (digit == e) & (sig > e + 1)
            | (slot == 31))
    return mask.reshape(-1, 32).view(np.uint64)


_QUADS = _quad_digits()
_LABEL_WORDS = _QUADS.view(np.uint32).ravel()
_DIGIT_WORDS = _digit_words(_QUADS)
_SIGNIFICANT = _significant_digits()
_NUMBER_MASKS = _number_masks()
_NUMBER_HEAD = np.frombuffer(b"-0.000\0\0", np.uint64)[0]


def _write_labels(first, slots, keep):
    """The labels first, first + 1, ... into their rows of label words
    (uint32), most significant first, and their keep-mask (bytes): the
    digits of k, at least 4, as %04d writes them."""
    k = np.arange(first, first + len(slots))
    words = slots.shape[1]
    for j in range(words):
        slots[:, j] = np.take(_LABEL_WORDS,
                              k // 10 ** (4 * (words - 1 - j)) % 10000)
    if words > 1:
        digits = 4 + sum(k >= 10 ** j for j in range(4, 4 * words))
        keep[:] = np.arange(4 * words) >= 4 * words - digits[:, None]


def _write_numbers(v, slots, keep):
    """The FLOAT_CELL text of each value of v into its row of number slots
    (4 uint64 words) and their keep-mask (4 uint64 words); returns the
    indices of the values the kernel leaves to the %-operation."""
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e12)  # NaN fails too
    np.copyto(a, 1.0, where=~fast)
    e = np.log10(a)
    e = np.clip(np.floor(e, out=e), -4, 11, out=e).astype(np.intp)
    scaled = a * np.take(_POW10, 11 - e)
    mantissa = np.rint(scaled)
    fast &= ((np.abs(scaled - mantissa) <= 0.5 - _TIE_MARGIN)
             & (scaled >= 1e11 + 1) & (scaled <= 1e12 - 1))
    mantissa = mantissa.astype(np.int64)
    top = mantissa // 10 ** 8  # past 9999 only for a value left to %
    mantissa -= top * 10 ** 8
    mid = mantissa // 10 ** 4
    low = mantissa - mid * 10 ** 4
    significant = np.maximum(np.maximum(
        np.take(_SIGNIFICANT[0], top, mode="clip"),
        np.take(_SIGNIFICANT[1], mid)), np.take(_SIGNIFICANT[2], low))
    slots[:, 0] = _NUMBER_HEAD
    slots[:, 1] = np.take(_DIGIT_WORDS[0], top, mode="clip")
    slots[:, 2] = np.take(_DIGIT_WORDS[0], mid)
    slots[:, 3] = np.take(_DIGIT_WORDS[1], low)
    keep[:] = np.take(_NUMBER_MASKS, np.signbit(v) * 208 + (e + 4) * 13
                      + significant, axis=0)
    return np.flatnonzero(~fast)


def format_indexed(prefix: str, values, sep: str) -> str:
    """One line per float in values, each ending in a newline:
    <prefix><k:04d><sep><value> with k counting from 0 and the value a
    FLOAT_CELL, so a line has the bytes format_rows gives the row
    (f"{prefix}{k:04d}", value). The kernel the module docstring describes
    writes the rows in blocks of _BLOCK values, at every length; a value it
    leaves to FLOAT_CELL % v (about 0.2% of Monte Carlo SNR samples, and
    every value outside [1e-4, 1e12)) has that text put in its number
    slots. The prefix and the separator are kept as their UTF-8 bytes,
    whatever characters they hold.

    At 10**5 values (experiment.MAX_TRIALS) the traced peak is about
    5.6 MB: the blocks' text (2.5 MB) and its join (2.5 MB), beside one
    block's slots, masks and temporaries (about 0.6 MB), under
    montecarlo_lockin's own peak at that size (about 17 MB)."""
    values = np.asarray(values, dtype=np.float64)
    count = len(values)
    head, tail = prefix.encode(), sep.encode()
    words = -(-len(str(max(count - 1, 0))) // 4)  # 4-digit label words
    label = -(-len(head) // 4) * 4  # the prefix ends where the label starts
    end = label + 4 * words + len(tail)
    number = -(-end // 8) * 8
    slots = np.empty((min(count, _BLOCK), number + 32), np.uint8)
    keep = np.zeros(slots.shape, bool)
    slots[:, label - len(head):label] = np.frombuffer(head, np.uint8)
    slots[:, end - len(tail):end] = np.frombuffer(tail, np.uint8)
    keep[:, label - len(head):end] = True
    labels = slots.view(np.uint32)[:, label // 4:label // 4 + words]
    numbers = slots.view(np.uint64)[:, number // 8:]
    number_keep = keep.view(np.uint64)[:, number // 8:]
    blocks = []
    for start in range(0, count, _BLOCK):
        v = values[start:start + _BLOCK]
        n = len(v)
        _write_labels(start, labels[:n], keep[:n, label:label + 4 * words])
        rest = _write_numbers(v, numbers[:n], number_keep[:n])
        if len(rest):  # the %-operation's text, NUL-padded, in their slots
            cells = np.array([FLOAT_CELL % x + "\n" for x in v[rest].tolist()],
                             "S32").view(np.uint8).reshape(-1, 32)
            slots[rest, number:] = cells
            keep[rest, number:] = cells != 0
        blocks.append(str(np.compress(keep[:n].ravel(), slots[:n].ravel()),
                          "utf-8"))  # a block holds whole rows
    return "".join(blocks)
