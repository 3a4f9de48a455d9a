import numpy as np
import pytest

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
