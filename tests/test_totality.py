"""Every parser is total: any text either parses or raises SdsvmError.

Inputs are arbitrary text, valid documents with one random splice, which
reaches the checks behind the headers that random text rarely passes, and
valid documents with number-like tokens in place of some fields, which
reach the value checks behind the syntax.
"""

import re

import pytest
from hypothesis import given, strategies as st

from sdsvm import fit_from_text, fit_sdsvm, fit_to_text, gen_toy, load_csv, load_fasta
from sdsvm.errors import SdsvmError
from sdsvm.kernels import KernelSpec
from sdsvm.outliermap import map_to_csv, map_to_svg

from conftest import with_number_tokens
from oracles import parse_csv

CSV_LAST = "1.0,2.0,1\n0.5,-1.0,-1\n3,4e-3,1\n-2,0,-1\n"
CSV_FIRST = "1,1.0,2.0\n-1,0.5,-1.0\n1,3,4e-3\n-1,-2,0\n"
FASTA = ">a first\nACGT\nAC\n>b\nGGATT\n>c\nTTGA\n"
FASTA_LABELS = "a 1\nb -1\nc -1\n"
_FIT = fit_sdsvm(gen_toy(seed=1), KernelSpec())
FIT_TEXT = fit_to_text(_FIT)
_FIT_LINES = FIT_TEXT.splitlines()
_MODEL_AT = next(i for i, line in enumerate(_FIT_LINES) if line.startswith("model "))
_MODEL_END = _MODEL_AT + 1 + int(_FIT_LINES[_MODEL_AT].split()[1])
MODEL_TEXT = "\n".join(_FIT_LINES[_MODEL_AT + 1 : _MODEL_END]) + "\n"
MAP_CSV = map_to_csv(_FIT)


def text_like(valid):
    """Arbitrary text, or `valid` with one span replaced by arbitrary text."""
    spliced = st.tuples(
        st.integers(0, len(valid)), st.integers(0, 12), st.text(max_size=12)
    ).map(lambda t: valid[: t[0]] + t[2] + valid[t[0] + t[1] :])
    return st.one_of(st.text(), spliced)


def number_like(valid):
    """text_like(valid), or valid with number-like tokens in some fields."""
    return st.one_of(text_like(valid), with_number_tokens(valid))


def parses_or_raises_sdsvm_error(parse, *args, **kwargs):
    try:
        parse(*args, **kwargs)
    except SdsvmError:
        pass


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("totality")


def write(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


@given(number_like(CSV_LAST))
def test_load_csv_label_last(workdir, text):
    parses_or_raises_sdsvm_error(load_csv, write(workdir / "last.csv", text))


@given(number_like(CSV_FIRST))
def test_load_csv_label_first(workdir, text):
    parses_or_raises_sdsvm_error(load_csv, write(workdir / "first.csv", text), label_col="first")


@given(text_like(FASTA), text_like(FASTA_LABELS))
def test_load_fasta(workdir, fasta, labels):
    parses_or_raises_sdsvm_error(
        load_fasta, write(workdir / "seq.fa", fasta), write(workdir / "labels.txt", labels)
    )


def drawn(fit):
    """The SVG of a fit's outlier map; a nan coordinate fails the test."""
    svg = map_to_svg(fit)
    assert not re.search(r'[" ]-?nan[" ]', svg), svg
    return svg


@given(number_like(MAP_CSV))
def test_parse_csv(text):
    # A map CSV that parses must also render.
    parses_or_raises_sdsvm_error(lambda: drawn(parse_csv(text)))


def rendered_from_text(text):
    """The outlier map of a fit report, drawn as the CLI's map --fit does."""
    return drawn(fit_from_text(text))


@given(number_like(FIT_TEXT))
def test_fit_from_text(text):
    # A report that parses must also map and render.
    parses_or_raises_sdsvm_error(rendered_from_text, text)


def with_model_block(block):
    """FIT_TEXT with block in place of its model block, its lines counted."""
    lines = block.splitlines()
    return "\n".join(
        _FIT_LINES[:_MODEL_AT] + [f"model {len(lines)}"] + lines + _FIT_LINES[_MODEL_END:]
    )


@given(number_like(MODEL_TEXT))
def test_model_block_in_fit_from_text(text):
    parses_or_raises_sdsvm_error(rendered_from_text, with_model_block(text))
