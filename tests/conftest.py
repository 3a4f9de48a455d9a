import numpy as np
from hypothesis import HealthCheck, settings, strategies as st

# Acceptance demands >= 200 cases per property; deadline off because single
# examples legitimately spend tens of ms inside the dual solver.
settings.register_profile(
    "sdsvm",
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    derandomize=True,
)
settings.load_profile("sdsvm")


def make_vectors(rows):
    """Vector samples as one (n, d) float64 array."""
    return np.asarray(rows, dtype=np.float64)


def write_csv(dataset, path):
    """Write a vector dataset as load_csv reads it: x's cells, then the label."""
    lines = [
        ",".join([*map(repr, row.tolist()), str(int(label))])
        for row, label in zip(dataset.x, dataset.labels)
    ]
    path.write_text("\n".join(lines) + "\n")


# Tokens that parse as numbers, or nearly do: spliced into a valid document
# they reach the value checks behind a parser instead of the syntax checks
# in front of it.
NUMBER_TOKENS = (
    "nan", "inf", "-inf", "-1", "0", "3", "0.5", "1e308", "1_0", "yes", "true", " ",
    "-0.0", "+1", "1.", "\u0661", "false", "",
)


def replace_token(text, index, token):
    """text with its index-th field (counted cyclically) replaced by token;
    fields are the runs of characters other than whitespace and commas."""
    spans = []
    start = None
    for pos, ch in enumerate(text + "\n"):
        if ch.isspace() or ch == ",":
            if start is not None:
                spans.append((start, pos))
                start = None
        elif start is None:
            start = pos
    if not spans:
        return text + token
    lo, hi = spans[index % len(spans)]
    return text[:lo] + token + text[hi:]


def with_number_tokens(text):
    """text with one to three of its fields replaced by NUMBER_TOKENS."""
    swaps = st.lists(
        st.tuples(st.integers(0, 10**6), st.sampled_from(NUMBER_TOKENS)), min_size=1, max_size=3
    )

    def apply(pairs):
        out = text
        for index, token in pairs:
            out = replace_token(out, index, token)
        return out

    return swaps.map(apply)
