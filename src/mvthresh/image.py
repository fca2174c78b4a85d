"""8-bit grayscale rasters, intensity histograms, and PGM (P2/P5) file I/O.

Images are immutable value objects backed by read-only numpy arrays. All
statistics downstream are computed from the 256-bin histogram, never by
rescanning pixels.

The two passes over the pixels, the histogram and the lookup-table mapping,
read the raster as native uint16 byte pairs through 65536-entry tables, in
blocks, which halves their per-pixel work and bounds their temporaries. The
mapping does so at every size; the histogram of a raster with fewer pairs than
its table has entries is tallied byte by byte, where filling the table costs more.
A buffer from outside the package is copied once, into the dtype kept (uint8
pixels, int64 bins); an array the package just made, a decoded or mapped
raster or the bins ``compute_histogram`` counted, is frozen in place. A P5
raster decoded from ``bytes``, which cannot change, is a frozen view into
them; ``read_pgm`` copies any other buffer (``bytearray``, ``memoryview``,
``mmap``) once. ``write_pgm`` copies the raster once; writing the header and
then the pixels to a file, as ``segment`` does, copies nothing.
An ASCII P2 raster is decoded by uint8 byte arithmetic in fixed 32 KiB windows.
A ``#`` comment, up to the next ``\\n`` or ``\\r`` as in netpbm, still open at a
window's cut ends the window at its ``#`` and is skipped whole; comments inside
a window are cut by the header's pattern. Any other window is widened to the
end of the token it splits, or ended before one that runs more than a window
on, which is read on its own.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

LEVELS = 256
MAX_INTENSITY = 255


class PgmError(ValueError):
    """Base class for PGM decoding failures."""


class PgmFormatError(PgmError):
    """Malformed magic number or header."""


class PgmDepthError(PgmError):
    """Sample depth other than maxval 255."""


class PgmLengthError(PgmError):
    """Pixel payload shorter than width*height."""


def _integer(value, what: str) -> int:
    """``value`` as an int through ``operator.index``: a float or a str is a ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Single-channel 8-bit raster, row-major with top-left origin."""

    width: int
    height: int
    pixels: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("width", "height"):
            object.__setattr__(self, name, _integer(getattr(self, name), f"image {name}"))
        if self.width < 1 or self.height < 1:
            raise ValueError(f"image dimensions must be positive, got {self.width}x{self.height}")
        raw = np.asarray(self.pixels)
        # a (height, width) array is narrowed before it is flattened, so a transpose copies once
        if raw.shape not in ((self.width * self.height,), (self.height, self.width)):
            raise ValueError(
                f"pixel buffer has {raw.size} samples, expected {self.width * self.height}"
            )
        if raw.dtype != np.uint8:
            if raw.dtype.kind not in "iu":
                raise ValueError(f"intensities must be integers, got dtype {raw.dtype}")
            if raw.min() < 0 or raw.max() > MAX_INTENSITY:
                raise ValueError("intensities must lie in [0, 255]")
        pixels = np.array(raw, dtype=np.uint8, order="C").reshape(-1)
        pixels.flags.writeable = False
        object.__setattr__(self, "pixels", pixels)

    @classmethod
    def _owning(cls, width: int, height: int, pixels: np.ndarray) -> "GrayImage":
        """Image over a uint8 raster of ``width * height`` samples that no caller holds.

        The array is frozen in place instead of copied; the package calls
        this only on arrays it has just allocated or on views into ``bytes``.
        """
        pixels.flags.writeable = False
        image = object.__new__(cls)
        object.__setattr__(image, "width", width)
        object.__setattr__(image, "height", height)
        object.__setattr__(image, "pixels", pixels)
        return image

    @classmethod
    def from_array(cls, arr) -> "GrayImage":
        """Build from a 2-D (height, width) array-like of intensities."""
        a = np.asarray(arr)
        if a.ndim != 2:
            raise ValueError(f"expected a 2-D array, got ndim={a.ndim}")
        return cls(width=a.shape[1], height=a.shape[0], pixels=a)

    def as_array(self) -> np.ndarray:
        """Read-only (height, width) view of the raster."""
        return self.pixels.reshape(self.height, self.width)

    def __eq__(self, other):
        if not isinstance(other, GrayImage):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and np.array_equal(self.pixels, other.pixels)
        )


# v^0, v^1 and v^2 for every intensity v: the weights of the three moments
_POWERS = np.arange(LEVELS, dtype=np.int64) ** np.arange(3, dtype=np.int64)[:, None]


@dataclass(frozen=True, eq=False)
class Histogram:
    """256-bin intensity counts; ``total`` is the source pixel count."""

    bins: np.ndarray = field(repr=False)
    total: int = field(init=False)

    def __post_init__(self):
        raw = np.asarray(self.bins)
        if raw.shape != (LEVELS,):
            raise ValueError(f"histogram needs exactly {LEVELS} bins, got shape {raw.shape}")
        counts = raw.ravel().tolist()  # exact, where an int64 cast wraps a count of 2^63 or more
        total = sum(counts) if raw.dtype.kind in "iu" or all(type(c) is int for c in counts) else 0
        too_large = total * MAX_INTENSITY**2 > np.iinfo(np.int64).max  # a moment would wrap
        # a list holding a count of 2^64 or more is an object array, rejected as too large
        if raw.dtype.kind not in "iu" and not too_large:
            raise ValueError(f"histogram counts must be integers, got dtype {raw.dtype}")
        if min(counts) < 0:
            raise ValueError("histogram counts must be non-negative")
        if too_large:
            raise ValueError(f"histogram of {total} pixels is too large for int64 moments")
        bins = np.array(raw, dtype=np.int64)
        bins.flags.writeable = False
        object.__setattr__(self, "bins", bins)
        object.__setattr__(self, "total", total)

    @classmethod
    def _owning(cls, bins: np.ndarray, total: int) -> "Histogram":
        """Histogram over non-negative int64 ``bins`` that sum to ``total`` and no caller holds.

        The array is frozen in place instead of checked and copied; the
        package calls this only on bins it has just counted.
        """
        bins.flags.writeable = False
        hist = object.__new__(cls)
        object.__setattr__(hist, "bins", bins)
        object.__setattr__(hist, "total", total)
        return hist

    @cached_property
    def moments(self) -> tuple[list[int], list[int], list[int]]:
        """Cumulative count, intensity sum and squared-intensity sum.

        Each column holds 257 exact integers; entry i sums bins [0, i), so
        the moments of [lo, hi] are entry hi+1 minus entry lo. Built on
        first use and shared by every later query on this histogram.
        """
        table = np.zeros((3, LEVELS + 1), dtype=np.int64)
        np.cumsum(self.bins * _POWERS, axis=1, out=table[:, 1:])
        return tuple(table.tolist())

    def __eq__(self, other):
        if not isinstance(other, Histogram):
            return NotImplemented
        return np.array_equal(self.bins, other.bins)


# Byte pairs per block: bounds the intp temporaries of bincount and take.
# Measured best of 2^14-2^19: larger blocks gain at most 0.5 ms on the
# 2048x2048 histogram but make the 512x512 mapping about three times slower.
_PAIR_BLOCK = 1 << 16


def _pair_blocks(pixels: np.ndarray):
    """Native uint16 views of the raster's byte pairs, ``_PAIR_BLOCK`` at a time.

    An odd last pixel is in no pair; a raster with no pair yields one empty block.
    """
    pairs = pixels[: pixels.size & ~1].view(np.uint16)
    for start in range(0, max(pairs.size, 1), _PAIR_BLOCK):
        yield pairs[start : start + _PAIR_BLOCK]


def compute_histogram(image: GrayImage) -> Histogram:
    """Tally pixels per intensity; bins[v] counts pixels of value v."""
    pixels = image.pixels
    if pixels.size < 2 * LEVELS * LEVELS:  # fewer pairs than the pair table has entries
        return Histogram._owning(np.bincount(pixels, minlength=LEVELS).astype(np.int64), pixels.size)
    blocks = _pair_blocks(pixels)
    # the first block's count is the table, not added into a zero-filled one
    table = np.bincount(next(blocks), minlength=LEVELS * LEVELS)
    for block in blocks:
        table += np.bincount(block, minlength=LEVELS * LEVELS)
    # a pair holds one pixel in its high byte and one in its low byte, so
    # the row and column sums count every paired pixel in either byte order;
    # they are summed into int64 because bincount counts in intp, 32 bits on some platforms
    table = table.reshape(LEVELS, LEVELS)
    bins = table.sum(0, dtype=np.int64) + table.sum(1, dtype=np.int64)
    if pixels.size % 2:
        bins[pixels[-1]] += 1
    return Histogram._owning(bins, pixels.size)


def _pair_table(lut: np.ndarray) -> np.ndarray:
    """``lut`` applied to both bytes of every uint16.

    Entry ``(h << 8) | l`` is ``(lut[h] << 8) | lut[l]``: each byte keeps its
    half, so the table is right in either byte order.
    """
    wide = lut.astype(np.uint16)
    return ((wide[:, None] << 8) | wide).ravel()


def _map_pixels(pixels: np.ndarray, lut: np.ndarray) -> np.ndarray:
    """``lut[pixels]`` as a new array."""
    table = _pair_table(lut)
    out = np.empty_like(pixels)
    for src, dst in zip(_pair_blocks(pixels), _pair_blocks(out)):
        # every uint16 indexes the table, so clipping never moves one; it
        # only spares take the buffered output that mode="raise" needs
        np.take(table, src, out=dst, mode="clip")
    if pixels.size % 2:
        out[-1] = lut[pixels[-1]]
    return out


# --- PGM codec ------------------------------------------------------------

# PGM text syntax: tokens between whitespace runs and "#" comments, which end at \n or \r
_SPACE_RUN = re.compile(rb"[ \t\n\r\x0b\x0c]*")
_TOKEN_RUN = re.compile(rb"[^ \t\n\r\x0b\x0c#]*")
_COMMENT = re.compile(rb"#[^\n\r]*")


# bytes of a bad token, or digits of a long number, that its error message
# quotes: a longer one is cut, so that any input's message stays one short line
_ECHO = 32

# digits a number may have after its leading zeros, checked before int() runs,
# so reading one is linear on every Python: no file holds a raster with a
# 17-digit side, and two 16-digit sides multiply to at most _ECHO digits, so
# every number a message quotes prints in full
_DIGITS = _ECHO // 2


def _header_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    """The number after the whitespace and comments at ``data[pos]``, and the index past it."""
    pos = _SPACE_RUN.match(data, pos).end()
    while comment := _COMMENT.match(data, pos):
        pos = _SPACE_RUN.match(data, comment.end()).end()
    if pos >= len(data):
        raise PgmFormatError("unexpected end of header")
    end = _TOKEN_RUN.match(data, pos).end()
    token = data[pos:end]
    if not token.isdigit():
        shown = repr(token) if len(token) <= _ECHO else f"{token[:_ECHO]!r}... ({len(token)} bytes)"
        raise PgmFormatError(f"bad {what} field: {shown}")
    digits = token.lstrip(b"0")
    if len(digits) > _DIGITS:
        shown = digits.decode() if len(digits) <= _ECHO else f"{digits[:_ECHO].decode()}..."
        raise PgmFormatError(f"{what} field too long: {shown} ({len(digits)} digits)")
    return int(digits or b"0"), end


def _sample(data: bytes, pos: int) -> int:
    """The sample token at ``data[pos]``, at most 255 (the one maxval), read on its own."""
    value, _ = _header_int(data, pos, "sample")
    if value > MAX_INTENSITY:
        raise PgmFormatError(f"sample {value} exceeds maxval {MAX_INTENSITY}")
    return value


# ASCII raster bytes decoded at a time, which bounds the decoder's temporaries
_P2_BLOCK = 1 << 15


def _p2_block_samples(window: bytes, wanted: int) -> np.ndarray:
    """Values of the first ``wanted`` tokens in ``window``, in which every comment is closed.

    Comments are cut by the header's pattern. Tokens of one to three digits
    after any leading zeros are decoded with array operations. An odd token
    (longer, holding a non-digit byte, or over 255, the one maxval) is
    malformed: the first one in stream order is re-read on its own through
    ``_sample``, which names it with the message the header reader gives.
    """
    if b"#" in window:
        window = _COMMENT.sub(b" ", window)
    body = np.frombuffer(window, dtype=np.uint8)
    digit = body - np.uint8(ord("0"))  # wraps, so below 10 exactly on digits
    space = body - np.uint8(9) < 5  # tab, newline, vertical tab, form feed, return
    space |= body == ord(" ")
    in_token = np.zeros(body.size + 2, dtype=bool)
    np.logical_not(space, out=in_token[1:-1])
    edges = np.flatnonzero(in_token[1:] != in_token[:-1])  # alternating token start, token end
    starts, ends = edges[0 : 2 * wanted : 2], edges[1 : 2 * wanted : 2]
    widths = ends - starts
    last = ends - 1
    if (widths > 3).any():
        # a zero-padded token is read from its first byte that is no "0", or its last byte
        lead = np.flatnonzero(digit)
        widths = ends - np.minimum(np.append(lead, body.size)[np.searchsorted(lead, starts)], last)
    values = digit.take(last).astype(np.uint16)  # widened before scaling: uint8 * 100 wraps
    for place, scale in ((1, 10), (2, 100)):
        digits = digit.take(last - place, mode="clip").astype(np.uint16)  # masked if short
        values += digits * scale * (widths > place)
    odd = (widths > 3) | (values > MAX_INTENSITY)
    # a token byte that is no digit; reduceat is slow, so it runs only if there is one
    other = (digit >= 10) & in_token[1:-1]
    if ends.size and other[: ends[-1]].any():
        odd |= np.logical_or.reduceat(other[: ends[-1]], starts)
    if odd.any():  # read on its own, an odd token raises
        _sample(window, int(starts[odd.argmax()]))
    return values


def _decode_p2_raster(data: bytes, pos: int, count: int) -> np.ndarray:
    """The first ``count`` ASCII samples after ``data[pos]``, block by block.

    Raises for the first malformed sample in stream order, with the message
    a token-by-token read gives, and ``PgmLengthError`` when the data ends
    before ``count`` samples.
    """
    pixels = np.empty(count, dtype=np.uint8)
    done, start = 0, pos
    while done < count:
        if start == len(data):
            raise PgmLengthError(f"raster holds {done} samples, expected {count}")
        cut = min(start + _P2_BLOCK, len(data))
        # a "#" after the last line end before the cut opens a comment still open
        # at the cut: the window ends at its "#", and the comment is skipped whole
        line = max(data.rfind(b"\n", start, cut), data.rfind(b"\r", start, cut), start)
        comment = data.find(b"#", line, cut)
        if comment >= 0:
            end, stop = comment, _COMMENT.match(data, comment).end()
        else:  # a window widened to the end of the token it splits
            stop = end = _TOKEN_RUN.match(data, cut).end()
            if stop - cut > _P2_BLOCK:  # or ended where that token begins, to read it on its own
                end = cut - _TOKEN_RUN.match(data[start:cut][::-1]).end()
        values = _p2_block_samples(data[start:end], count - done)
        pixels[done : done + values.size] = values
        done += values.size
        if end < stop and done < count and comment < 0:
            pixels[done] = _sample(data, end)
            done += 1
        start = stop
    return pixels


def read_pgm(data) -> GrayImage:
    """Decode a PGM (binary P5 or ASCII P2, maxval 255) from any bytes-like object.

    Header tokens may be separated by any whitespace run; ``#`` comments
    end at the next ``\\n`` or ``\\r``. Trailing bytes beyond width*height
    samples are ignored. A ``str`` or an ``int`` is no buffer and raises ``TypeError``.
    """
    if not isinstance(data, bytes):
        data = memoryview(data).tobytes()
    magic = data[:2]
    if magic not in (b"P5", b"P2"):
        raise PgmFormatError(f"not a supported PGM (magic {magic!r})")
    width, pos = _header_int(data, 2, "width")
    height, pos = _header_int(data, pos, "height")
    maxval, pos = _header_int(data, pos, "maxval")
    if width < 1 or height < 1:
        raise PgmFormatError(f"bad dimensions {width}x{height}")
    if maxval != MAX_INTENSITY:
        raise PgmDepthError(f"only maxval 255 supported, got {maxval}")
    count = width * height

    if magic == b"P5":
        # exactly one whitespace byte separates maxval from the raster
        if _SPACE_RUN.match(data, pos, pos + 1).end() == pos:
            raise PgmFormatError("missing separator before binary raster")
        pos += 1
        if len(data) - pos < count:
            raise PgmLengthError(f"raster holds {len(data) - pos} bytes, expected {count}")
        pixels = np.frombuffer(data, dtype=np.uint8, count=count, offset=pos)
    else:
        # every sample takes a digit and all but the last a separator, so a
        # short payload is rejected before a header-sized allocation
        available = len(data) - pos
        if available < 2 * count - 1:
            raise PgmLengthError(f"raster of {available} bytes cannot hold {count} samples")
        pixels = _decode_p2_raster(data, pos, count)

    return GrayImage._owning(width, height, pixels)


def _p5_header(image: GrayImage) -> bytes:
    """The header ``write_pgm`` puts before the raster."""
    return f"P5\n{image.width} {image.height}\n{MAX_INTENSITY}\n".encode("ascii")


def write_pgm(image: GrayImage) -> bytes:
    """Encode as binary P5 with the canonical ``P5\\n<w> <h>\\n255\\n`` header."""
    return b"".join((_p5_header(image), image.pixels))
