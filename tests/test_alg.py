import ast
import random
import re
from importlib import resources

import pytest

from qslab.alg import (
    ParseError,
    parse_model,
    parse_word_list_fragment,
)
from qslab.builtin import G32_27_SPEC
from qslab.groups import build_group

MINIMAL = """
group c2 {
  normal rank 1;
  quotient rank 0;
  gen a = (1|);
}
structure S on c2 = [a, a];
"""


def packaged_text():
    return resources.files("qslab.data").joinpath("g32_27.alg").read_text()


def test_minimal_model_parses():
    model = parse_model(MINIMAL)
    spec = model.group_spec("c2")
    assert spec.n_rank == 1 and spec.q_rank == 0
    assert build_group(spec).order == 2
    assert model.structure("S").words == (("a",), ("a",))


def test_comments_and_whitespace():
    text = "# leading comment\n" + MINIMAL.replace(
        "quotient rank 0;", "quotient rank 0;  # trailing comment"
    )
    assert build_group(parse_model(text).group_spec("c2")).order == 2


# -- diagnostics --------------------------------------------------------


def fails_with(text, message):
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert message in str(err.value)
    return err.value


def test_error_positions():
    err = fails_with("group broken on", "expected '{'")
    assert "line 1, col 14" in str(err)
    assert err.line == 1 and err.col == 14


def test_unknown_group_in_declaration():
    fails_with(
        MINIMAL + "subgroup X on zzz = [a];",
        "unknown group 'zzz'",
    )


def test_duplicate_names():
    fails_with(MINIMAL + MINIMAL, "duplicate name 'c2'")
    fails_with(
        MINIMAL + "subgroup S on c2 = [a];",
        "duplicate name 'S'",
    )


def test_unknown_generator_in_word():
    fails_with(
        MINIMAL + "subgroup X on c2 = [b];",
        "unknown generator 'b'",
    )


def test_action_names_must_be_sequential():
    text = """
group g {
  normal rank 2;
  quotient rank 1;
  action q2 = [10; 01];
  gen a = (10|0);
}
"""
    fails_with(text, "expected action 'q1'")


def test_matrix_shape_diagnostic():
    text = """
group g {
  normal rank 2;
  quotient rank 1;
  action q1 = [10; 011];
  gen a = (10|0);
}
"""
    fails_with(text, "matrix must be 2x2")


def test_action_matrix_must_be_involution():
    text = """
group g {
  normal rank 2;
  quotient rank 1;
  action q1 = [11; 10];
  gen a = (10|0);
}
"""
    err = fails_with(text, "not an involution")
    # the diagnostic points at the group name
    assert err.line == 2


def test_matrix_count_must_match_rank():
    text = """
group g {
  normal rank 2;
  quotient rank 2;
  action q1 = [10; 01];
  gen a = (10|00);
}
"""
    fails_with(text, "quotient rank 2 but 1 action matrices")


def test_coordinate_width_diagnostic():
    text = """
group g {
  normal rank 2;
  quotient rank 1;
  action q1 = [10; 01];
  gen a = (101|0);
}
"""
    fails_with(text, "coordinate must be (2 bits | 1 bits)")


def test_bits_must_be_binary():
    text = """
group g {
  normal rank 2;
  quotient rank 1;
  action q1 = [12; 01];
  gen a = (10|0);
}
"""
    fails_with(text, "must consist of bits")


def test_unexpected_character():
    fails_with("group g ? {}", "unexpected character '?'")


@pytest.mark.parametrize("digit", ["²", "٤"], ids=["superscript-two", "arabic-indic-four"])
def test_non_ascii_digits_rejected(digit):
    text = packaged_text().replace("normal rank 4", f"normal rank {digit}")
    fails_with(text, "unexpected character")


def test_truncated_input():
    fails_with("group g {", "found end of input")


@pytest.mark.parametrize(
    "text, position",
    [("group g { # note", (1, 17)), ("group g {\n  normal # note", (2, 16))],
    ids=["one-line", "two-lines"],
)
def test_end_of_input_after_a_comment_is_past_the_comment(text, position):
    err = fails_with(text, "found end of input")
    assert (err.line, err.col) == position


# -- fragments ----------------------------------------------------------


def test_fragment_parses_word_lists():
    assert parse_word_list_fragment("g2*g5, g4", G32_27_SPEC) == (
        ("g2", "g5"),
        ("g4",),
    )
    assert parse_word_list_fragment("g1", G32_27_SPEC) == (("g1",),)


def test_fragment_rejects_unknown_generator():
    with pytest.raises(ParseError, match="unknown generator 'x'"):
        parse_word_list_fragment("g2, x", G32_27_SPEC)


def test_fragment_rejects_empty_and_trailing():
    with pytest.raises(ParseError):
        parse_word_list_fragment("", G32_27_SPEC)
    with pytest.raises(ParseError):
        parse_word_list_fragment("g2] [g3", G32_27_SPEC)


@pytest.mark.parametrize(
    "text, col, message",
    [
        ("zz", 1, "unknown generator 'zz'"),
        ("g2, zz", 5, "unknown generator 'zz'"),
        ("g2*zz", 4, "unknown generator 'zz'"),
        ("", 1, "expected generator name, found end of input"),
        ("g2,", 4, "expected generator name, found end of input"),
        ("g2] [g3", 3, "unexpected trailing input ']'"),
    ],
)
def test_fragment_error_columns_count_within_the_argument(text, col, message):
    with pytest.raises(ParseError) as info:
        parse_word_list_fragment(text, G32_27_SPEC)
    assert (info.value.line, info.value.col) == (1, col)
    assert str(info.value) == f"line 1, col {col}: {message}"


# -- fuzzing ------------------------------------------------------------

FUZZ_ALPHABET = "{}[]()|;,=*#\n 01289abgqnT_-²٤é"


def mutate(rng, text):
    """Delete, insert, replace or duplicate one stretch of characters."""
    i = rng.randrange(len(text))
    j = min(len(text), i + rng.choice((1, 1, 1, 2, 5, 20)))
    op = rng.randrange(4)
    if op == 0:
        return text[:i] + text[j:]
    if op == 1:
        return text[:i] + rng.choice(FUZZ_ALPHABET) + text[i:]
    if op == 2:
        return text[:i] + rng.choice(FUZZ_ALPHABET) * (j - i) + text[j:]
    return text[:j] + text[i:j] + text[j:]


# A diagnostic that quotes what it found names the text at its position.
NAMED = re.compile(
    r"(?:found|unexpected character|unknown generator|duplicate name|duplicate generator"
    r"|unknown group) ('[^']*')$"
)


def assert_points_at_what_it_names(text, exc):
    lines = text.split("\n")  # only "\n" ends a line; str.splitlines knows more
    if exc.message.endswith("found end of input"):
        assert (exc.line, exc.col) == (len(lines), len(lines[-1]) + 1)
        return True
    named = NAMED.search(exc.message)
    if named:
        assert lines[exc.line - 1][exc.col - 1 :].startswith(ast.literal_eval(named[1]))
    return named is not None


def test_mutated_models_fail_only_with_positions():
    rng = random.Random("alg-fuzz")
    original = packaged_text()
    rejected = pointed = 0
    for _ in range(1000):  # 1 to 3 edits each, about 2000 in all
        text = original
        for _ in range(rng.randrange(1, 4)):
            text = mutate(rng, text)
        try:
            parse_model(text)
        except ParseError as exc:
            rejected += 1
            assert isinstance(exc.line, int) and exc.line >= 1
            assert isinstance(exc.col, int) and exc.col >= 1
            pointed += assert_points_at_what_it_names(text, exc)
    assert rejected > 800
    assert pointed > 750
