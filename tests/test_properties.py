"""Property tests: type text round-trips, any text gets a documented exit code,
and z-class counts multiply over products of small factors."""

import contextlib
import io
import json
import math

from conftest import PROPERTY_SETTINGS
from hypothesis import given
from hypothesis import strategies as st

from zclass.cli import main
from zclass.closed_form import parse_coxeter_type

# small factors: every family counts by formula or table
SMALL_FACTORS = st.one_of(
    st.builds("A{}".format, st.integers(1, 30)),
    st.builds("B{}".format, st.integers(1, 30)),
    st.builds("C{}".format, st.integers(1, 30)),
    st.builds("D{}".format, st.integers(2, 30)),
    st.builds("I2({})".format, st.integers(3, 10**6)),
    st.sampled_from(["F4", "E6", "E7", "E8", "H3", "H4"]),
)
# factors of large orders, counted past the order cap or refused past the rank cap
LARGE_FACTORS = st.one_of(
    st.builds("A{}".format, st.integers(5, 12)),
    st.builds("{}{}".format, st.sampled_from("ABCD"), st.integers(5001, 10**9)),
)


@st.composite
def spelled(draw, factor):
    """`factor` in random case with random blanks where the grammar allows them."""
    blank = st.text(" \t", max_size=2)
    text = "".join(c.lower() if draw(st.booleans()) else c for c in factor)
    if text[:2].upper() == "I2":
        inner = text[3:-1]
        text = f"{text[:2]}{draw(blank)}({draw(blank)}{inner}{draw(blank)})"
    return text


@st.composite
def type_texts(draw, factor=SMALL_FACTORS, max_factors=4):
    factors = draw(st.lists(factor, min_size=1, max_size=max_factors))
    parts = [draw(spelled(f)) for f in factors]
    blanks = st.text(" \t", max_size=2)
    text = draw(blanks)
    for i, part in enumerate(parts):
        if i:
            text += draw(blanks) + draw(st.sampled_from("xX")) + draw(blanks)
        text += part
    return text + draw(blanks)


def run(*argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, out.getvalue()


@PROPERTY_SETTINGS
@given(type_texts())
def test_type_text_round_trips(text):
    t = parse_coxeter_type(text)
    assert parse_coxeter_type(str(t)) == t
    assert str(parse_coxeter_type(str(t))) == str(t)


@PROPERTY_SETTINGS
@given(
    st.one_of(
        st.text(max_size=30),
        type_texts(st.one_of(SMALL_FACTORS, LARGE_FACTORS), max_factors=2),
    )
)
def test_count_exits_with_a_documented_code(text):
    code, _ = run("count", text)
    assert code in (0, 2, 3)


@PROPERTY_SETTINGS
@given(st.lists(SMALL_FACTORS, min_size=2, max_size=4))
def test_counts_multiply_over_factors(factors):
    code, out = run("count", " x ".join(factors), "--format", "json")
    assert code == 0
    record = json.loads(out)
    alone = [json.loads(run("count", f, "--format", "json")[1]) for f in factors]
    assert record["z_class_count"] == math.prod(r["z_class_count"] for r in alone)
    assert record["conjugacy_class_count"] == math.prod(
        r["conjugacy_class_count"] for r in alone
    )
