"""The vectorised `%.17g` kernel against Python's own conversion, value by value."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from roughlub import _g17


def kernel_texts(values) -> list[bytes]:
    values = np.asarray(values, dtype=np.float64)
    slots = np.empty((values.size, _g17.WIDTH + 1), np.uint8)
    slots[:, -1] = ord("\n")
    _g17.g17(values, slots[:, :-1])
    return slots.tobytes().translate(None, b"\0").split(b"\n")[:-1]


def python_texts(values) -> list[bytes]:
    return [b"%.17g" % v for v in np.asarray(values, dtype=np.float64).tolist()]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_matches_python_on_any_floats(values):
    # nan, inf, -0.0 and subnormals included
    assert kernel_texts(values) == python_texts(values)


def adversarial_sets(n: int = 50000) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(17)
    powers = 10.0 ** np.arange(-323, 309)
    ties = rng.integers(10 ** 15, 2 * 10 ** 15, n) + rng.choice([0.25, 0.75], n)
    return {
        # nan payloads, infinities, subnormals and both ends of the range
        "bit patterns": rng.integers(-2 ** 63, 2 ** 63 - 1, n, dtype=np.int64).view(np.float64),
        "normals over 60 decades": rng.normal(size=n) * 10.0 ** rng.integers(-30, 31, n),
        "uniforms": rng.uniform(size=n),
        # where the decimal exponent changes, the 17th digit rounds up to a
        # power of ten, and the fixed layouts end (1e-5, 1e-4, 1e16, 1e17)
        "powers of ten and their neighbours": np.concatenate(
            [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), -powers]),
        # an 18th significant digit of exactly 5, which rounds half to even,
        # and the doubles next to each tie
        "ties": np.concatenate([ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf)]),
        "special": np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                             2.2250738585072014e-308, 1.7976931348623157e308, 1e-280,
                             9.9999999999999996e-281, 1e280, 9.9999999999999993e279,
                             99999999999999999.0, 9999999999999999.0, 0.00009999999999999999,
                             1000000000000000.25, 1.0, -1.0, 0.1, 123.0, 1200.0]),
    }


def test_matches_python_on_adversarial_sets():
    for name, values in adversarial_sets().items():
        got, want = kernel_texts(values), python_texts(values)
        bad = [(w, g) for w, g in zip(want, got) if w != g]
        assert not bad, f"{name}: {len(bad)} mismatches, first {bad[:3]}"
