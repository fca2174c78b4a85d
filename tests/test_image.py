import ast
import re
import sys
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mvthresh.image as image_module
from mvthresh.image import (
    GrayImage,
    Histogram,
    PgmDepthError,
    PgmError,
    PgmFormatError,
    PgmLengthError,
    compute_histogram,
    read_pgm,
    write_pgm,
)
from mvthresh.synthetic import GENERATORS

from conftest import gray_images, histograms, pgm_bytes
from oracles import moments, pixel_tally, reference_p2_raster

_P2_SEPARATORS = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"\r\n", b"#c\n", b"#c\r", b"#"]
_P2_ODD_FIELDS = [
    b"0", b"255", b"256", b"300", b"007", b"0000000012", b"0000", b"00000000256",
    b"x", b"1a", b"-1", b"\xff",
]


@st.composite
def p2_files(draw):
    """(header, raster, sample count) of a small P2 file whose bytes are ``header + raster``.

    The raster is fields between runs of separators. Half the files use
    only valid fields and non-empty gaps; the rest mix in odd fields and
    empty gaps, which glue neighbouring fields into one. Up to three
    fields more than the image holds give trailing junk, fewer give short
    streams.
    """
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    count = width * height
    sample = st.integers(0, 255).map(b"%d".__mod__)
    if draw(st.booleans()):
        field = st.one_of(sample, st.sampled_from([b"007", b"0000000012", b"0000"]))
        min_gap = 1
    else:
        field = st.one_of(sample, st.sampled_from(_P2_ODD_FIELDS))
        min_gap = 0
    gap = st.lists(st.sampled_from(_P2_SEPARATORS), min_size=min_gap, max_size=2).map(b"".join)
    pieces = draw(st.lists(st.tuples(field, gap), max_size=count + 3))
    # the separator after maxval ends the header's last token
    raster = draw(st.sampled_from(_P2_SEPARATORS)) + b"".join(f + g for f, g in pieces)
    return b"P2 %d %d 255" % (width, height), raster, count


def quoted_as_read(message):
    """The reference decoder's ``message`` as ``read_pgm`` words it.

    The reference quotes a bad field in full; ``read_pgm`` quotes the first
    32 bytes of a longer one and its length. Fields glued from several odd
    fields by empty gaps reach that length.
    """
    prefix = "bad sample field: "
    if message.startswith(prefix):
        field = ast.literal_eval(message[len(prefix) :])
        if len(field) > 32:
            return f"{prefix}{field[:32]!r}... ({len(field)} bytes)"
    return message


def p2_noisy_file(side, rng):
    """A ``side``-squared P2 file with comments, mixed separators and CR-LF wrapping."""
    pixels = rng.integers(0, 256, size=side * side, dtype=np.uint8)
    header = f"P2\n# plain PGM\r\n{side}\t {side}\n# maxval next\n255\n"
    choices = np.array([" ", "  ", "\t", " \t", "\n", "\r\n", "# row # 2\n"])
    seps = choices[rng.integers(0, choices.size, size=pixels.size)]
    body = "".join(f"{v}{s}" for v, s in zip(pixels.tolist(), seps.tolist()))
    return (header + body).encode("ascii"), pixels


def p2_padded_file(side, rng):
    """A ``side``-squared P2 file with every sample zero-padded to four digits."""
    pixels = rng.integers(0, 256, size=side * side, dtype=np.uint8)
    body = "\n".join(" ".join("%04d" % v for v in row) for row in pixels.reshape(side, -1).tolist())
    return f"P2\n{side} {side}\n255\n{body}\n".encode("ascii"), pixels


def _fixture_files():
    """Every synthetic image at 16x16, as P5 and as P2 rows under a comment."""
    files = []
    for generate in GENERATORS.values():
        img = generate(size=16)
        rows = "\n".join(" ".join(map(str, row)) for row in img.as_array().tolist())
        files += [write_pgm(img), f"P2\n# fixture\n16 16\n255\n{rows}\n".encode("ascii")]
    return files


_FIXTURE_FILES = _fixture_files()
_TOKEN = re.compile(rb"[^ \t\n\r\x0b\x0c#]+")


@st.composite
def mutated_files(draw):
    """A fixture file truncated, spliced with another, given an inserted run or a widened token.

    Runs and widenings reach 32 P2 windows (1 MiB), so some cross a window
    edge or run more than a window past the cut, and classifying one would
    take more than the memory bound.
    """
    data = draw(st.sampled_from(_FIXTURE_FILES))
    at = draw(st.integers(0, len(data)))
    window = image_module._P2_BLOCK
    size = draw(st.one_of(st.integers(1, 40), st.integers(window - 40, 32 * window)))
    kind = draw(st.sampled_from(["truncate", "splice", "insert", "widen"]))
    if kind == "truncate":
        return data[:at]
    if kind == "splice":
        other = draw(st.sampled_from(_FIXTURE_FILES))
        return data[:at] + other[draw(st.integers(0, len(other))) :]
    if kind == "insert":
        unit = draw(st.sampled_from([b" ", b"0", b"9876543210", b"#", b"\r"]))
        return data[:at] + (unit * size)[:size] + data[at:]
    # the header's numbers (tokens 1 to 3) and the first sample are drawn more often
    tokens = list(_TOKEN.finditer(data))
    token = tokens[draw(st.one_of(st.integers(1, 4), st.integers(0, len(tokens) - 1)))]
    fill = draw(st.sampled_from([b"0", token[0][:1]]))
    return data[: token.start()] + fill * size + data[token.start() :]


@contextmanager
def int_cap_lifted():
    """Python's int() digit cap switched off, as Python 3.10 has none."""
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(cap)


class TestReadPgm:
    def test_minimal_binary(self):
        img = read_pgm(b"P5 1 1 255\n" + bytes([0]))
        assert (img.width, img.height) == (1, 1)
        assert list(img.pixels) == [0]

    def test_ascii_variant(self):
        img = read_pgm(b"P2 2 1 255\n0 255\n")
        assert (img.width, img.height) == (2, 1)
        assert list(img.pixels) == [0, 255]

    def test_comments_and_whitespace(self):
        data = b"P5\n# made by hand\n  2 # width\n\t1\n255\n" + bytes([9, 200])
        img = read_pgm(data)
        assert (img.width, img.height) == (2, 1)
        assert list(img.pixels) == [9, 200]

    @pytest.mark.parametrize(
        "data", [b"P2\r# c\r2 1\r255\r1 2\r", b"P2 2 1 255\r# c\r1 2\r"], ids=["header", "raster"]
    )
    def test_comment_ends_at_carriage_return(self, data):
        assert list(read_pgm(data).pixels) == [1, 2]

    def test_payload_length_matches_header(self):
        # 512x512 header must come with exactly width*height raster bytes
        raster = np.zeros(512 * 512, dtype=np.uint8)
        data = write_pgm(GrayImage(512, 512, raster))
        assert len(data) == len(b"P5\n512 512\n255\n") + 512 * 512
        assert read_pgm(data).pixels.size == 262144

    def test_bad_magic(self):
        with pytest.raises(PgmFormatError):
            read_pgm(b"P6 1 1 255\n\x00\x00\x00")

    def test_not_a_pgm(self):
        with pytest.raises(PgmFormatError):
            read_pgm(b"\x89PNG....")

    def test_unsupported_maxval(self):
        with pytest.raises(PgmDepthError):
            read_pgm(b"P5 1 1 65535\n\x00\x00")

    def test_truncated_binary_raster(self):
        with pytest.raises(PgmLengthError):
            read_pgm(b"P5 2 2 255\n" + bytes([1, 2, 3]))

    def test_truncated_ascii_raster(self):
        with pytest.raises(PgmLengthError):
            read_pgm(b"P2 2 2 255\n1 2 3")

    def test_garbage_header_field(self):
        with pytest.raises(PgmFormatError):
            read_pgm(b"P5 one 1 255\n\x00")

    def test_zero_dimensions(self):
        with pytest.raises(PgmFormatError):
            read_pgm(b"P5 0 1 255\n")

    def test_ascii_sample_above_maxval_rejected(self):
        with pytest.raises(PgmFormatError):
            read_pgm(b"P2 1 1 255\n300\n")

    def test_oversized_ascii_header_rejected_before_allocation(self):
        # declares 4e10 samples in 27 bytes; allocating first would need 37 GiB
        data = b"P2\n200000 200000\n255\n0 0 0\n"
        assert len(data) == 27
        with pytest.raises(PgmLengthError):
            read_pgm(data)

    def test_shortest_ascii_payload_accepted(self):
        img = read_pgm(b"P2 3 1 255\n1 2 3")
        assert list(img.pixels) == [1, 2, 3]

    def test_trailing_bytes_tolerated(self):
        img = read_pgm(b"P5 1 1 255\n" + bytes([42]) + b"\n")
        assert list(img.pixels) == [42]

    @pytest.mark.parametrize("data", [b"P5 1 1 255#\x07", b"P5 1 1 255"], ids=["comment", "end"])
    def test_binary_raster_needs_one_separator(self, data):
        with pytest.raises(PgmFormatError, match="^missing separator before binary raster$"):
            read_pgm(data)

    def test_binary_raster_outlives_a_mutable_buffer(self):
        data = bytearray(b"P5 3 2 255\n" + bytes(range(6)) + b"trailing")
        img = read_pgm(data)
        data[:] = bytes(len(data))
        assert list(img.pixels) == list(range(6))
        assert not img.pixels.flags.writeable

    @pytest.mark.parametrize("data", ["P5 1 1 255\n\x07", 5], ids=["str", "int"])
    def test_non_buffer_raises_type_error(self, data):
        with pytest.raises(TypeError):
            read_pgm(data)

    @pytest.mark.parametrize("raster", [b"", bytes([1, 2, 3])])
    def test_short_binary_raster_names_its_length(self, raster):
        with pytest.raises(PgmLengthError, match=rf"^raster holds {len(raster)} bytes, expected 4$"):
            read_pgm(b"P5 2 2 255\n" + raster)

    def test_binary_codec_copies_the_raster_once_each_way(self):
        img = GrayImage(1024, 1024, np.random.default_rng(2).integers(0, 256, 1 << 20))
        data = write_pgm(img)
        for call, arg in ((read_pgm, data), (write_pgm, img)):
            tracemalloc.start()
            try:
                call(arg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.5 * img.pixels.size, call.__name__

    def test_binary_raster_from_bytes_is_not_copied(self):
        """Immutable ``bytes`` cannot change, so the image is a view into them."""
        raster = np.random.default_rng(3).integers(0, 256, 1 << 20, dtype=np.uint8)
        data = b"P5\n1024 1024\n255\n" + raster.tobytes()
        tracemalloc.start()
        try:
            img = read_pgm(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * raster.size
        assert np.shares_memory(img.pixels, np.frombuffer(data, dtype=np.uint8))
        assert np.array_equal(img.pixels, raster)


class TestAsciiRaster:
    @settings(max_examples=500)
    @given(p2_files())
    @example((b"P2 2 1 255", b"\n0012 #c\n7", 2))
    @example((b"P2 2 1 255", b"#c\n1#c\n2 x", 2))
    @example((b"P2 2 2 255", b"\n1 2 x 300", 4))
    @example((b"P2 2 2 255", b"\n1\t#c\n\n\n\n\n2", 4))
    @example((b"P2 1 1 255", b" 00000000120000000025600000000256x", 1))
    @example((b"P2 1 1 255", b" 0000000012" + b"00000000256" * 3, 1))
    @example((b"P2 2 1 255", b"\n1 #c\n2", 2))  # a "#" exactly at the 3-byte cut
    @example((b"P2 2 1 255", b"\n1#c\n2", 2))  # at the 2-byte cut, just before the 3-byte one
    @example((b"P2 2 1 255", b"\n12#c\r3", 2))
    @example((b"P2 2 1 255", b"\n1 #" + b"c" * (image_module._P2_BLOCK + 8) + b"\n2", 2))
    @pytest.mark.parametrize("block", [image_module._P2_BLOCK, 3, 2, 1])
    def test_matches_reference_decoder(self, block, case):
        # blocks of 1 to 3 bytes split the raster at nearly every byte, so
        # nearly every example has a comment or token longer than a window
        header, raster, count = case
        with mock.patch.object(image_module, "_P2_BLOCK", block):
            try:
                want = reference_p2_raster(raster, count, 255)
            except PgmError as exc:
                with pytest.raises(PgmError) as info:
                    read_pgm(header + raster)
                assert (type(info.value), str(info.value)) == (type(exc), quoted_as_read(str(exc)))
            else:
                assert list(read_pgm(header + raster).pixels) == want

    def test_long_sample_field_matches_reference(self):
        # more than 16 digits after its leading zeros, on every Python
        raster = b"\n" + b"9" * 5000
        with pytest.raises(PgmFormatError) as want:
            reference_p2_raster(raster, 1, 255)
        with pytest.raises(PgmFormatError) as got:
            read_pgm(b"P2 1 1 255" + raster)
        assert str(got.value) == str(want.value)

    def test_one_digit_last_block(self):
        # one byte longer than a block, so the last block holds only the "5"
        k = image_module._P2_BLOCK // 2 - 1
        raster = b"\n\n" + b"1\n" * k + b"5"
        assert len(raster) == image_module._P2_BLOCK + 1
        img = read_pgm(b"P2 %d 1 255" % (k + 1) + raster)
        assert list(img.pixels) == [1] * k + [5]

    def test_no_per_sample_python_calls(self, monkeypatch):
        """Only width, height and maxval go through the token reader, zero-padded samples too."""
        calls = []
        real = image_module._header_int
        monkeypatch.setattr(
            image_module, "_header_int", lambda *args: calls.append(args[2]) or real(*args)
        )
        for data, pixels in (
            p2_noisy_file(256, np.random.default_rng(5)),
            p2_padded_file(256, np.random.default_rng(7)),
        ):
            calls.clear()
            img = read_pgm(data)
            assert calls == ["width", "height", "maxval"]
            assert np.array_equal(img.pixels, pixels)

    def test_temporaries_do_not_grow_with_the_file(self):
        """The raster is decoded in blocks, so a 1.4 MB file needs under 2 MiB of working memory."""
        data, pixels = p2_noisy_file(512, np.random.default_rng(6))
        tracemalloc.start()
        try:
            read_pgm(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # besides the decoded raster, which the image keeps without a copy
        assert peak - pixels.size < 2 << 20

    def test_temporaries_do_not_grow_on_one_line(self):
        """A raster with no newline is cut in fixed windows, so a 1 MB line needs under 2 MiB too.

        So does one with ``\r`` line ends and comments, which end at ``\r``.
        """
        rng = np.random.default_rng(6)
        pixels = rng.integers(0, 256, size=512 * 512, dtype=np.uint8)
        for choices in ([" ", "  ", "\t", "\r", " \t"], [" ", "\t", "\r", "# c\r", " \t"]):
            seps = np.array(choices)[rng.integers(0, 5, size=pixels.size)]
            body = "".join(f"{v}{s}" for v, s in zip(pixels.tolist(), seps.tolist()))
            data = ("P2 512 512 255 " + body).encode("ascii")
            assert b"\n" not in data
            tracemalloc.start()
            try:
                img = read_pgm(data)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - pixels.size < 2 << 20, choices
            assert np.array_equal(img.pixels, pixels), choices

    @pytest.mark.parametrize(
        "count, raster",
        [
            (2, b" " + b"a" * 4_000_000),
            (2, b" " + b"1" * 4_000_000),
            (2, b" 1 " + b"x" * 4_000_000),
            (1, b" 7 " + b"a" * 4_000_000),  # trailing garbage after the last sample
            (2, b" #" + b"a" * 4_000_000 + b"\n3 4"),
        ],
        ids=["letters", "digits", "after-a-sample", "trailing", "comment"],
    )
    def test_overlong_token_is_never_classified(self, count, raster):
        """A token running more than a window past the cut is read on its own, or skipped
        in a comment, so it costs no per-byte temporaries: under 2 MiB beyond the file."""
        data = b"P2 %d 1 255" % count + raster
        tracemalloc.start()
        try:
            try:
                got = list(read_pgm(data).pixels)
            except PgmError as exc:
                got = (type(exc), str(exc))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(data) + (2 << 20)
        try:
            want = reference_p2_raster(raster, count, 255)
        except PgmError as exc:
            want = (type(exc), quoted_as_read(str(exc)))
        assert got == want

    @pytest.mark.parametrize("bad", [None, b"256", b"300", b"999", b"0256", b"1a", b"a1"])
    @pytest.mark.parametrize("block", [image_module._P2_BLOCK, 3])
    def test_every_sample_spelling(self, block, bad):
        """Every value in every zero-padded spelling up to four characters, then one bad token."""
        tokens = [b"%0*d" % (width, v) for v in range(256) for width in range(len(str(v)), 5)]
        tokens += [bad] if bad else []
        # a newline after every seventh token, so that blocks are cut at both
        raster = b"".join(t + (b"\n" if i % 7 == 6 else b" ") for i, t in enumerate(tokens))
        header = b"P2 %d 1 255\n" % len(tokens)
        with mock.patch.object(image_module, "_P2_BLOCK", block):
            try:
                want = reference_p2_raster(raster, len(tokens), 255)
            except PgmError as exc:
                with pytest.raises(PgmError) as info:
                    read_pgm(header + raster)
                assert (type(info.value), str(info.value)) == (type(exc), str(exc))
            else:
                assert list(read_pgm(header + raster).pixels) == want

    @pytest.mark.parametrize("last", [b"1a", b"256", b"0012"])
    def test_one_odd_token_is_read_on_its_own(self, monkeypatch, last):
        """An odd last sample of a many-block file costs one token read, not one per sample."""
        rows = np.random.default_rng(8).integers(0, 256, (256, 256)).tolist()
        text = "P2 256 256 255\n" + "\n".join(" ".join(map(str, row)) for row in rows)
        data = text[: text.rindex(" ") + 1].encode("ascii") + last
        assert len(data) > 2 * image_module._P2_BLOCK
        calls = []
        real = image_module._header_int
        monkeypatch.setattr(
            image_module, "_header_int", lambda *args: calls.append(args[2]) or real(*args)
        )
        try:
            want = reference_p2_raster(data[len(b"P2 256 256 255") :], 256 * 256, 255)
        except PgmError as exc:
            with pytest.raises(PgmError) as info:
                read_pgm(data)
            assert (type(info.value), str(info.value)) == (type(exc), str(exc))
        else:
            assert list(read_pgm(data).pixels) == want
        # a zero-padded sample stays on the array path; a bad one is read on its own
        assert calls == ["width", "height", "maxval"] + ["sample"] * (last != b"0012")


class TestWritePgm:
    def test_single_pixel(self):
        assert write_pgm(GrayImage(1, 1, [7])) == b"P5\n1 1\n255\n" + bytes([7])

    def test_payload_is_width_times_height(self):
        data = write_pgm(GrayImage(2, 2, [0, 255, 10, 10]))
        header = b"P5\n2 2\n255\n"
        assert data.startswith(header)
        assert len(data) - len(header) == 4

    @given(gray_images())
    @example(GrayImage(np.int64(2), True, [1, 2]))  # dimensions stored as the ints they stand for
    def test_round_trip_identity(self, img):
        assert read_pgm(write_pgm(img)) == img


class TestGrayImage:
    def test_rejects_wrong_pixel_count(self):
        with pytest.raises(ValueError):
            GrayImage(2, 2, [1, 2, 3])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            GrayImage(1, 2, [0, 300])

    @pytest.mark.parametrize("width, pixels", [(0, []), (2.0, [1, 2])], ids=["zero", "float"])
    def test_rejects_zero_width(self, width, pixels):
        with pytest.raises(ValueError):
            GrayImage(width, 1, pixels)

    def test_rejects_float_intensities(self):
        with pytest.raises(ValueError, match="^intensities must be integers, got dtype float64$"):
            GrayImage(2, 1, np.array([1.0, 2.0]))

    def test_from_array_rejects_one_dimension(self):
        with pytest.raises(ValueError, match="^expected a 2-D array, got ndim=1$"):
            GrayImage.from_array(np.arange(6))

    def test_from_array_round_trip(self):
        arr = np.arange(6, dtype=np.uint8).reshape(2, 3)
        img = GrayImage.from_array(arr)
        assert (img.width, img.height) == (3, 2)
        assert np.array_equal(img.as_array(), arr)

    def test_pixels_read_only(self):
        img = GrayImage(1, 2, [1, 2])
        with pytest.raises(ValueError):
            img.pixels[0] = 9

    @pytest.mark.parametrize(
        "build",
        [
            lambda: read_pgm(b"P5 2 1 255\n\x01\x02"),
            lambda: read_pgm(bytearray(b"P5 2 1 255\n\x01\x02")),
            lambda: read_pgm(memoryview(b"P5 2 1 255\n\x01\x02")),
            lambda: read_pgm(b"P2 2 1 255\n1 2"),
            lambda: read_pgm(bytearray(b"P2 2 1 255\n1 2")),
            lambda: read_pgm(memoryview(b"P2 2 1 255\n1 2")),
            lambda: GrayImage(2, 1, np.array([1, 2], dtype=np.uint8)),
            lambda: GrayImage.from_array(np.array([[1, 2]], dtype=np.int64)),
        ],
        ids=[
            "p5-bytes", "p5-bytearray", "p5-memoryview", "p2", "p2-bytearray", "p2-memoryview",
            "uint8", "from-array",
        ],
    )
    def test_pixels_read_only_on_every_path(self, build):
        img = build()
        assert list(img.pixels) == [1, 2]
        assert not img.pixels.flags.writeable
        with pytest.raises(ValueError):
            img.pixels[0] = 9

    def test_does_not_alias_caller_buffer(self):
        source = np.array([1, 2, 3, 4], dtype=np.uint8)
        img = GrayImage(2, 2, source)
        source[0] = 99  # caller's array stays writable and detached
        assert img.pixels[0] == 1

    def test_int_array_is_copied_once(self):
        """An int64 raster is narrowed straight into the image's own uint8 array."""
        arr = np.random.default_rng(4).integers(0, 256, (1024, 1024))
        tracemalloc.start()
        try:
            img = GrayImage.from_array(arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * img.pixels.size
        assert np.array_equal(img.as_array(), arr)

    @pytest.mark.parametrize("view", [lambda a: a.T, lambda a: a[:, :512]], ids=["T", "crop"])
    def test_strided_int_array_is_copied_once(self, view):
        """A transpose or a crop is narrowed before it is flattened, not copied wide first."""
        arr = view(np.random.default_rng(4).integers(0, 256, (1024, 1024)))
        tracemalloc.start()
        try:
            img = GrayImage.from_array(arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * img.pixels.size
        assert np.array_equal(img.as_array(), arr)


class TestHistogram:
    def test_direct_count(self):
        hist = compute_histogram(GrayImage(2, 2, [0, 0, 255, 10]))
        assert hist.bins[0] == 2
        assert hist.bins[10] == 1
        assert hist.bins[255] == 1
        assert hist.total == 4
        assert int(hist.bins.sum()) == 4

    def test_constant_image(self):
        hist = compute_histogram(GrayImage(8, 8, np.full(64, 100)))
        assert hist.bins[100] == 64
        assert hist.total == 64

    def test_matches_pixel_tally_oracle(self):
        rng = np.random.default_rng(42)
        img = GrayImage(64, 64, rng.integers(0, 256, size=64 * 64, dtype=np.uint8))
        hist = compute_histogram(img)
        assert list(hist.bins) == pixel_tally(img.pixels)

    @pytest.mark.parametrize(
        "source",
        [
            lambda: np.ones(256, dtype=np.int32),
            lambda: np.ones(256, dtype=np.int64),
            lambda: [1] * 256,
        ],
        ids=["int32", "int64", "list"],
    )
    def test_bins_are_a_read_only_int64_copy(self, source):
        source = source()
        hist = Histogram(source)
        source[0] = 99  # the caller's bins stay writable and detached
        assert hist.bins.dtype == np.int64
        assert not hist.bins.flags.writeable
        assert (hist.bins[0], hist.total) == (1, 256)

    @pytest.mark.parametrize(
        "mass", [{0: 2**62, 1: 2**62}, {0: 2**50, 255: 2**50}], ids=["total", "moment"]
    )
    def test_counts_whose_moments_overflow_int64_are_rejected(self, mass):
        """A total that would wrap, or moments that would: S2 reaches total * 255^2."""
        bins = np.zeros(256, dtype=np.int64)
        for value, count in mass.items():
            bins[value] = count
        with pytest.raises(ValueError, match=f"^histogram of {sum(mass.values())} pixels "):
            Histogram(bins)

    @pytest.mark.parametrize(
        "bins, total",
        [
            (np.array([2**63] + [0] * 255, dtype=np.uint64), 2**63),
            (np.array([0] * 255 + [2**64 - 1], dtype=np.uint64), 2**64 - 1),
            ([2**64] + [1] * 255, 2**64 + 255),
        ],
        ids=["uint64-2^63", "uint64-max", "list-2^64"],
    )
    def test_counts_past_int64_are_rejected_for_their_total(self, bins, total):
        """The checks read the exact counts, not an int64 cast that wraps them negative."""
        with pytest.raises(
            ValueError, match=f"^histogram of {total} pixels is too large for int64 moments$"
        ):
            Histogram(bins)

    def test_largest_total_keeps_exact_moments(self):
        bins = np.zeros(256, dtype=np.int64)
        bins[255] = (2**63 - 1) // 255**2
        hist = Histogram(bins)
        assert hist.moments[2][-1] == hist.total * 255**2
        bins[0] = 1
        with pytest.raises(ValueError):
            Histogram(bins)

    @pytest.mark.parametrize("width,height", [(1, 1), (3, 5), (1025, 3)])
    def test_counted_bins_are_frozen_in_place(self, monkeypatch, width, height):
        """One pixel, an odd count, and an odd count over two pair blocks."""
        img = GrayImage(width, height, np.random.default_rng(width).integers(0, 256, width * height))
        monkeypatch.setattr(Histogram, "__post_init__", lambda self: pytest.fail("bins re-checked"))
        hist = compute_histogram(img)
        assert hist.bins.dtype == np.int64
        assert not hist.bins.flags.writeable
        assert type(hist.total) is int and hist.total == width * height
        assert list(hist.bins) == pixel_tally(img.pixels)

    def test_counted_bins_are_int64_where_bincount_counts_in_int32(self, monkeypatch):
        """``np.bincount`` counts in intp, which is 32 bits on some platforms."""
        real = np.bincount
        monkeypatch.setattr(np, "bincount", lambda *a, **k: real(*a, **k).astype(np.int32))
        img = GrayImage(5, 5, np.arange(25))
        hist = compute_histogram(img)
        assert hist.bins.dtype == np.int64
        assert list(hist.bins) == pixel_tally(img.pixels)

    def test_rejects_wrong_bin_count(self):
        with pytest.raises(ValueError):
            Histogram(np.zeros(255, dtype=np.int64))

    def test_wrong_shape_is_rejected_before_its_counts_are_read(self):
        """Reading a million counts into Python ints would trace tens of MiB."""
        bins = np.arange(10**6)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="needs exactly 256 bins"):
                Histogram(bins)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "bins", [np.full(256, 1.7), np.ones(256, dtype=bool)], ids=["float", "bool"]
    )
    def test_rejects_non_integer_bins(self, bins):
        with pytest.raises(ValueError, match="must be integers"):
            Histogram(bins)

    def test_rejects_negative_counts(self):
        bins = np.zeros(256, dtype=np.int64)
        bins[3] = -1
        with pytest.raises(ValueError):
            Histogram(bins)

    @given(gray_images())
    def test_total_conservation(self, img):
        hist = compute_histogram(img)
        assert hist.total == img.width * img.height
        assert int(hist.bins.sum()) == hist.total

    @given(gray_images(), st.randoms(use_true_random=False))
    def test_permutation_invariance(self, img, rnd):
        pixels = list(img.pixels)
        rnd.shuffle(pixels)
        shuffled = GrayImage(img.width, img.height, np.array(pixels, dtype=np.uint8))
        assert compute_histogram(shuffled) == compute_histogram(img)

    def test_temporaries_do_not_grow_with_the_raster(self):
        """The pair table and one block's temporaries: under 2 MiB for a 4 MiB raster."""
        img = GrayImage(2048, 2048, np.random.default_rng(3).integers(0, 256, 1 << 22))
        tracemalloc.start()
        try:
            compute_histogram(img)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    @given(histograms())
    def test_moment_table_matches_oracle(self, hist):
        c0, c1, c2 = hist.moments
        assert len(c0) == len(c1) == len(c2) == 257
        for end in (0, 1, 128, 256):
            assert (c0[end], c1[end], c2[end]) == moments(hist.bins, 0, end - 1)
        assert c0[256] == hist.total


class TestHostileInput:
    def test_long_digit_header_field(self):
        # more than 16 digits is rejected before int() reads them, on every Python
        with pytest.raises(PgmError):
            read_pgm(b"P5\n" + b"9" * 5000 + b" 1\n255\n" + bytes(4))

    @pytest.mark.parametrize("size", [1, 3, 32, 33, 3000])
    def test_bad_token_quoted_in_full_up_to_32_bytes(self, size):
        token = b"w" * size
        with pytest.raises(PgmFormatError) as info:
            read_pgm(b"P5\n" + token + b" 1\n255\n\x00")
        if size <= 32:
            assert str(info.value) == f"bad width field: {token!r}"
        else:
            assert str(info.value) == f"bad width field: {token[:32]!r}... ({size} bytes)"

    @pytest.mark.parametrize(
        "data",
        [b"P5\n" + b"\xff" * 3000 + b" 1\n255\n\x00", b"P2 1 1 255\n" + b"a" * 4_000_000],
        ids=["width", "sample"],
    )
    def test_long_bad_token_gives_a_short_message(self, data):
        with pytest.raises(PgmFormatError) as info:
            read_pgm(data)
        message = str(info.value)
        assert "\n" not in message and len(message) <= 200
        assert message.endswith(" bytes)")

    @given(pgm_bytes())
    def test_arbitrary_bytes_decode_or_raise_pgm_error(self, data):
        try:
            image = read_pgm(data)
        except PgmError:
            return
        assert isinstance(image, GrayImage)

    @settings(max_examples=300)
    @given(mutated_files())
    @example(b"P2 16 16 255\n" + b"0" * 4301 + b"12" + b" 7" * 255)
    @example(b"P5 " + b"0" * 70_000 + b"1 1 255\n\x00")
    def test_mutated_file_decodes_or_gives_one_short_line(self, data):
        """Bounded memory and one short message on any mutation of a fixture file."""
        tracemalloc.start()
        try:
            try:
                result = read_pgm(data)
            except PgmError as exc:
                result = str(exc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(data) + (2 << 20)
        if isinstance(result, str):
            assert result.splitlines() == [result] and len(result) <= 200
        else:
            assert isinstance(result, GrayImage)

    @pytest.mark.parametrize("zeros", [0, 5000])
    def test_sixteen_digits_after_the_leading_zeros(self, zeros):
        pad = b"0" * zeros
        with pytest.raises(PgmLengthError, match=r"^raster holds 1 bytes, expected 9{16}$"):
            read_pgm(b"P5 " + pad + b"9" * 16 + b" 1 255\n\x00")
        with pytest.raises(PgmFormatError, match=r"^width field too long: 1{17} \(17 digits\)$"):
            read_pgm(b"P5 " + pad + b"1" * 17 + b" 1 255\n\x00")


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="Python 3.10 has no int() digit cap"
)
class TestIntCapLifted:
    """With int()'s digit cap lifted, every number reads as with it on, in linear time."""

    @pytest.mark.parametrize("zeros", [4301, 70_000, 800_000])
    def test_zero_padded_sample(self, zeros):
        # 70,000 zeros run more than a window past the cut, so the sample is read on its own
        raster = b"\n" + b"0" * zeros + b"12\n"
        for cap in (nullcontext(), int_cap_lifted()):
            with cap:
                assert list(read_pgm(b"P2 1 1 255" + raster).pixels) == [12]
                assert reference_p2_raster(raster, 1, 255) == [12]

    @pytest.mark.parametrize(
        "data",
        [b"P5 " + b"9" * 800_000 + b" 1 255\n\x00", b"P2 1 1 255\n" + b"9" * 800_000],
        ids=["width", "sample"],
    )
    def test_long_number_rejected_in_linear_time(self, data):
        with pytest.raises(PgmFormatError) as capped:
            read_pgm(data)
        with int_cap_lifted():
            began = time.perf_counter()
            with pytest.raises(PgmFormatError) as lifted:
                read_pgm(data)
            elapsed = time.perf_counter() - began
        assert str(lifted.value) == str(capped.value)
        assert str(capped.value).endswith("... (800000 digits)")
        assert elapsed < 1.0
