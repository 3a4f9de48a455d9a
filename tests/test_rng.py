import sys
import threading
import tracemalloc

import numpy as np
import pytest

from sdsvm import rng
from sdsvm.cli import main
from sdsvm.rng import _NORMAL_BLOCK, Stream, derive_key

from oracles import shuffled_one_at_a_time, stream_normals_reference, stream_uniforms_reference

SIZES = [1, 2, 7, 8, 25_000, 600_001]


class TestStreamMatchesReference:
    """The in-place stream gives the bytes of the fresh-array formulas."""

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("n", SIZES)
    def test_normals(self, seed, n):
        key = derive_key(seed, "rng-test")
        z = Stream(key).normals(n)
        assert z.shape == (n,)
        assert z.tobytes() == stream_normals_reference(key, 0, n).tobytes()

    @pytest.mark.parametrize("n", SIZES)
    def test_uniforms(self, n):
        key = derive_key(5, "rng-test")
        assert Stream(key).uniforms(n).tobytes() == stream_uniforms_reference(key, 0, n).tobytes()

    def test_continued_stream(self):
        # An odd n consumes a whole pair, so the next draw starts past it.
        key = derive_key(11, "rng-test")
        stream = Stream(key)
        counter = 0
        draws = [
            ("normals", 7), ("normals", 8), ("uniforms", 3), ("normals", 1), ("integers", 5),
            ("normals", 25_001),
        ]
        for kind, n in draws:
            if kind == "normals":
                got = stream.normals(n)
                expected = stream_normals_reference(key, counter, n)
                counter += n + n % 2
            elif kind == "uniforms":
                got = stream.uniforms(n)
                expected = stream_uniforms_reference(key, counter, n)
                counter += n
            else:
                got = stream.integers(n, 10)
                expected = np.minimum(
                    (stream_uniforms_reference(key, counter, n) * 10).astype(np.int64), 9
                )
                counter += n
            assert got.tobytes() == expected.tobytes(), (kind, n)


class TestNormalBlocks:
    """Box-Muller block by block gives the bytes of one pass, and the stream
    continues past the last pair."""

    @pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
    @pytest.mark.parametrize(
        "n", [2 * _NORMAL_BLOCK + k for k in (-3, -2, -1, 0, 1, 2)] + [4 * _NORMAL_BLOCK + 1]
    )
    def test_across_block_boundaries(self, seed, n):
        key = derive_key(seed, "rng-test")
        stream = Stream(key)
        assert stream.normals(n).tobytes() == stream_normals_reference(key, 0, n).tobytes()
        counter = n + n % 2
        assert stream.uniforms(3).tobytes() == stream_uniforms_reference(key, counter, 3).tobytes()


class TestShuffledMatchesOneDrawPerPosition:
    """One uniforms call gives the swaps of one integers draw per position."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 29, 1001])
    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_same_order_and_stream_continues_alike(self, n, seed):
        key = derive_key(seed, "rng-test")
        fast, slow = Stream(key), Stream(key)
        items = [f"item{i}" for i in range(n)]
        assert fast.shuffled(items) == shuffled_one_at_a_time(slow, items)
        assert fast.shuffled(items[::-1]) == shuffled_one_at_a_time(slow, items[::-1])
        assert fast.uniforms(3).tobytes() == slow.uniforms(3).tobytes()


# The counts about the first one of two blocks (2 * _NORMAL_BLOCK + 2, one
# pair more than a block) and about four blocks, and an odd count over
# several blocks.
OUT_SIZES = (
    SIZES
    + [2 * _NORMAL_BLOCK + k for k in (-1, 0, 1, 2, 3)]
    + [4 * _NORMAL_BLOCK + k for k in (-2, -1, 0, 1, 2)]
    + [5 * _NORMAL_BLOCK + 7]
)


class TestNormalsInPlace:
    """normals(n, out=a) fills a with the reference bytes, block by block in
    a's own memory."""

    @pytest.mark.parametrize("n", OUT_SIZES)
    def test_fills_and_returns_out(self, n):
        key = derive_key(3, "rng-test")
        out = np.full(n, np.nan)
        assert Stream(key).normals(n, out=out) is out
        assert out.tobytes() == stream_normals_reference(key, 0, n).tobytes()

    def test_fills_rows_of_a_matrix(self):
        key = derive_key(4, "rng-test")
        x = np.zeros((7, 2 * _NORMAL_BLOCK + 1))
        Stream(key).normals(5 * x.shape[1], out=x[1:6])
        assert x[1:6].tobytes() == stream_normals_reference(key, 0, x[1:6].size).tobytes()
        assert not x[0].any() and not x[6].any()

    def test_continued_stream_after_out(self):
        key = derive_key(12, "rng-test")
        stream = Stream(key)
        n = 3 * _NORMAL_BLOCK + 5  # an odd count consumes its whole last pair
        out = np.empty(n)
        stream.normals(n, out=out)
        assert out.tobytes() == stream_normals_reference(key, 0, n).tobytes()
        assert stream.normals(9).tobytes() == stream_normals_reference(key, n + 1, 9).tobytes()
        assert stream.uniforms(2).tobytes() == stream_uniforms_reference(key, n + 11, 2).tobytes()

    @pytest.mark.parametrize(
        "out",
        [np.empty(5, dtype=np.float32), np.empty(4), np.empty(10)[::2], np.empty((5, 2))[:, 0]],
    )
    def test_out_must_be_contiguous_float64_of_n_values(self, out):
        with pytest.raises(ValueError, match="out must be"):
            Stream(1).normals(5, out=out)

    @pytest.mark.parametrize("bound", [0, -3])
    def test_integers_need_a_positive_bound(self, bound):
        with pytest.raises(ValueError, match="bound must be positive"):
            Stream(1).integers(4, bound)

    @pytest.mark.parametrize("n", [1, 2, 2 * _NORMAL_BLOCK, 600, 25_000])
    def test_one_block_starts_no_thread(self, monkeypatch, n):
        def refuse(*args, **kwargs):
            raise AssertionError("a call of one block started a thread")

        monkeypatch.setattr(threading, "Thread", refuse)
        key = derive_key(7, "rng-test")
        assert Stream(key).normals(n).tobytes() == stream_normals_reference(key, 0, n).tobytes()

    def test_block_error_reaches_the_caller(self, monkeypatch):
        # An error in the third block propagates from the call itself.
        fill, calls = rng._box_muller, []

        def fails_on_the_third_block(*args):
            calls.append(None)
            if len(calls) == 3:
                raise MemoryError("block")
            fill(*args)

        monkeypatch.setattr(rng, "_box_muller", fails_on_the_third_block)
        with pytest.raises(MemoryError, match="block"):
            Stream(1).normals(8 * _NORMAL_BLOCK)
        assert len(calls) == 3

    @pytest.mark.parametrize("blocks", [2, 8, 32])
    def test_peak_memory_is_one_blocks_scratch(self, blocks):
        # One steps table and one scratch set of a block's pairs: 16 B of
        # steps, 16 B of shifted and 8 B of trig per pair, whatever the
        # number of blocks; 64 KiB covers the small objects of the call.
        n = 2 * _NORMAL_BLOCK * blocks
        out = np.empty(n)
        tracemalloc.start()
        try:
            Stream(derive_key(8, "rng-test")).normals(n, out=out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 40 * _NORMAL_BLOCK + 64 * 1024

    def test_simulate_over_several_blocks_starts_no_thread(self, monkeypatch, capsys):
        # The byte manifest's sim-odd-blocks: its test-plus draw of 301 * 333
        # normals is 50,116 pairs over four blocks and an odd last value.
        # Its output under reference normals is the expected one.
        argv = ["simulate", "--runs", "1", "--d", "333", "--test-size", "601", "--seed", "2"]

        def reference(stream, n, out=None):
            z = stream_normals_reference(stream.key, stream._counter, n)
            stream._counter += n + n % 2
            if out is None:
                return z
            out.reshape(-1)[:] = z
            return out

        with monkeypatch.context() as patch:
            patch.setattr(Stream, "normals", reference)
            assert main(argv) == 0
        expected = capsys.readouterr()

        def refuse(thread):
            raise AssertionError("a normals call started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert main(argv) == 0
        assert capsys.readouterr() == expected

    def test_concurrent_calls_under_fast_switching(self):
        # Four callers share two or fewer cores and switch every
        # microsecond; a stream state or scratch shared between calls would
        # change the bytes.
        n = 6 * _NORMAL_BLOCK + 3
        keys = [derive_key(seed, "rng-stress") for seed in range(4)]
        got = {}

        def draw(key):
            got[key] = Stream(key).normals(n)

        callers = [threading.Thread(target=draw, args=(key,)) for key in keys]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for key in keys:
            assert got[key].tobytes() == stream_normals_reference(key, 0, n).tobytes()
