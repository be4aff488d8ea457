"""The ring's meta codec against ``repr`` and ``ast.literal_eval``.

``encode_meta`` must keep writing ``repr(tuple(meta))`` byte for byte
(its length sets arena offsets and fill cycles).  ``decode_meta`` must
return what ``ast.literal_eval`` returns on those bytes, and must never
return a value for text ``literal_eval`` rejects.
"""

import ast

import pytest
from hypothesis import given, settings, strategies as st

from repro.aio.ring import decode_meta, encode_meta

#: Characters that end, escape or split a literal, plus non-ASCII and
#: control characters that ``repr`` escapes (U+2028 is a line break to
#: Unicode but not to Python's tokenizer).
HAZARDS = "'\"\\,() \n\r\t\x00\x7fé€😀\u2028"

texts = st.text(alphabet=st.sampled_from(HAZARDS) | st.characters(),
                 max_size=12)
blobs = st.binary(max_size=12) | st.lists(
    st.sampled_from([c.encode() for c in "'\"\\,() \n"] + [b"\x00", b"\xff"]),
    max_size=8).map(b"".join)
leaves = (texts | blobs
          | st.integers(min_value=-2**70, max_value=2**70)
          | st.booleans() | st.none()
          | st.floats(allow_nan=False, allow_infinity=False))
values = st.recursive(leaves, lambda inner: st.lists(inner, max_size=4)
                      .map(tuple), max_leaves=16)
metas = st.lists(values, max_size=5).map(tuple)


def literal(text: str) -> tuple:
    return tuple(ast.literal_eval(text))


def assert_rejected(data: bytes) -> None:
    with pytest.raises((ValueError, SyntaxError)):
        decode_meta(data)


@settings(max_examples=200, deadline=None)
@given(metas)
def test_roundtrip_matches_repr_and_literal_eval(meta):
    data = encode_meta(meta)
    assert data == repr(tuple(meta)).encode()
    decoded = decode_meta(data)
    expected = literal(data.decode())
    assert decoded == expected
    # repr tells True from 1 and -0.0 from 0.0, which == does not.
    assert repr(decoded) == repr(expected) == repr(meta)


@settings(max_examples=100, deadline=None)
@given(metas, st.data())
def test_truncated_input_is_rejected(meta, data):
    encoded = encode_meta(meta)
    cut = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
    assert_rejected(encoded[:cut])


@settings(max_examples=100, deadline=None)
@given(metas, st.sampled_from(["x", ")", "(", ",", "1", "'", "()", "#",
                               "(1,)", "b''", "None", ", 2"]))
def test_trailing_input_is_rejected(meta, tail):
    assert_rejected(encode_meta(meta) + tail.encode())


# A mutated escape such as '\8' is invalid; both decoders warn about it.
@pytest.mark.filterwarnings("ignore:invalid escape sequence:DeprecationWarning")
@settings(max_examples=300, deadline=None)
@given(metas, st.data())
def test_mutated_input_is_never_misread(meta, data):
    """Insert, delete or replace one character: whatever decode_meta
    still accepts, literal_eval must read as the same value."""
    text = encode_meta(meta).decode()
    pos = data.draw(st.integers(min_value=0, max_value=len(text)))
    char = data.draw(st.sampled_from("'\"\\,() 0123456789.-+eExbjTFN_\n"))
    mutated = data.draw(st.sampled_from([
        text[:pos] + char + text[pos:],
        text[:pos] + text[pos + 1:],
        text[:pos] + char + text[pos + 1:],
    ]))
    try:
        decoded = decode_meta(mutated.encode())
    except (ValueError, SyntaxError):
        return
    assert repr(decoded) == repr(literal(mutated))


@pytest.mark.parametrize("text", [
    "(inf,)", "(-inf,)", "(nan,)", "(1e999, nan)",
    "", "(", ")", "(,)", "(1 2)", "(1,,)", "((1,)", "(1,))",
    "(007,)", "(--1,)", "('a\nb',)", "(b'\xe9',)", "(True1,)",
    "(Truex,)", "(x,)", "('a',)x",
])
def test_text_literal_eval_rejects_is_rejected(text):
    with pytest.raises((ValueError, SyntaxError)):
        ast.literal_eval(text)
    assert_rejected(text.encode())


@pytest.mark.parametrize("text", [
    # literal_eval reads these, but encode_meta never writes them.
    "(0x10,)", "(1_000,)", "(+1,)", "(u'a',)", "(r'a',)", "('a' 'b',)",
    "('\\\r',)", "(1j,)", "(1, 2) ", " (1, 2)", "( 1, 2)", "(1 ,2)",
    # Not a tuple at the top level.
    "1", "(1)", "'ab'", "[1]", "{1: 2}", "1, 2",
])
def test_spellings_outside_the_repr_grammar_are_rejected(text):
    assert_rejected(text.encode())


def test_invalid_utf8_is_rejected():
    assert_rejected(b"('\xff',)")


@pytest.mark.parametrize("text", [
    "()", "(1,)", "(1, )", "(1,2)", "(1, 2,)", "((1, 2),)", "((1),)",
    "(((),),)", "(-0.0, 1., .5, 1e5, 1E-5, 00, -0)",
    "('\\x00\\n\\'', \"'\", b'\\x00\\\\', '\\N{BULLET}', '\\101')",
])
def test_other_literal_spellings_read_like_literal_eval(text):
    assert repr(decode_meta(text.encode())) == repr(literal(text))


def test_nesting_limit_matches_the_python_parser():
    deepest = "(" * 200 + ")" * 200
    assert decode_meta(deepest.encode()) == literal(deepest)
    too_deep = "(" * 201 + ")" * 201
    with pytest.raises(SyntaxError):
        literal(too_deep)
    assert_rejected(too_deep.encode())
