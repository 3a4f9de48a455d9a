import numpy as np
import pytest

from sdsvm.rng import Stream, derive_key

from oracles import stream_normals_reference, stream_uniforms_reference

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
