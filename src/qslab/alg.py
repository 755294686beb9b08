"""The model description language: groups, structures, subgroups.

A model file declares groups of the supported family plus named
generating systems and subgroups on them:

    # comment
    group g32_27 {
      normal rank 4;
      quotient rank 1;
      action q1 = [1000; 0100; 1010; 0101];
      gen g1 = (0000|1);
      gen g2 = (1000|0);
    }
    structure T1 on g32_27 = [g1*g4*g5, g2*g3*g4*g5, g2*g4*g5, g1*g3*g4];
    subgroup H on g32_27 = [g2*g5, g4];

Action matrices are bit rows separated by semicolons and act on column
vectors; one matrix per quotient-rank basis vector, named q1, q2, ...
in order.  Generator coordinates are written (n-bits | q-bits).  Words
multiply left to right and are stored unevaluated.
"""

from __future__ import annotations

import re

from .groups import GroupSpec, GroupSpecError, _Frozen

_PUNCT = set("{}[]();,=*|")
# ASCII only: str.isdigit() also accepts characters such as "²" that int()
# rejects.
_DIGITS = frozenset("0123456789")
# The run a token's first character starts; \w is exactly str.isalnum() or "_".
_RUNS = {"int": re.compile("[0-9]+"), "ident": re.compile(r"\w+")}
# A longer rank is refused before int() reads it.  Python limits int <-> str
# conversion to sys.get_int_max_str_digits() digits (4300 by default, at
# least 640 when set, no limit before 3.10.7); int() of a rank this long,
# and str() of the sum of two, stay within every limit.
_MAX_RANK_DIGITS = 639


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class Token(_Frozen):
    _fields = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        # kind is "ident", "int", "punct" or "eof"
        self.__dict__.update(kind=kind, text=text, line=line, col=col)


def _tokenize(text: str) -> list[Token]:
    tokens = []
    line, line_start = 1, 0
    i = 0
    while i < len(text):
        ch = text[i]
        col = i - line_start + 1
        if ch == "\n":
            line, line_start = line + 1, i + 1
            i += 1
        elif ch in " \t\r":
            i += 1
        elif ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif ch in _PUNCT:
            tokens.append(Token("punct", ch, line, col))
            i += 1
        else:
            if ch in _DIGITS:
                kind = "int"
            elif ch.isalpha() or ch == "_":
                kind = "ident"
            else:
                raise ParseError(f"unexpected character {ch!r}", line, col)
            j = _RUNS[kind].match(text, i).end()
            tokens.append(Token(kind, text[i:j], line, col))
            i = j
    tokens.append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class Declaration(_Frozen):
    """A named structure or subgroup: a word list on one group."""

    _fields = ("name", "group_name", "words")

    def __init__(self, name: str, group_name: str, words: tuple[tuple[str, ...], ...]):
        self.__dict__.update(name=name, group_name=group_name, words=words)


class SessionModel(_Frozen):
    """Everything a model file declares, in declaration order."""

    _fields = ("groups", "structures", "subgroups")

    def __init__(
        self,
        groups: tuple[tuple[str, GroupSpec], ...],
        structures: tuple[Declaration, ...],
        subgroups: tuple[Declaration, ...],
    ):
        self.__dict__.update(groups=groups, structures=structures, subgroups=subgroups)

    def group_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.groups)

    def group_spec(self, name: str) -> GroupSpec:
        return _lookup("group", self.groups, name)

    def structure(self, name: str) -> Declaration:
        return _lookup("structure", ((d.name, d) for d in self.structures), name)

    def subgroup(self, name: str) -> Declaration:
        return _lookup("subgroup", ((d.name, d) for d in self.subgroups), name)

    def structures_on(self, group_name: str) -> tuple[Declaration, ...]:
        return tuple(d for d in self.structures if d.group_name == group_name)


def _lookup(kind: str, named, name: str):
    """The first value named ``name`` among ``(name, value)`` pairs."""
    for key, value in named:
        if key == name:
            return value
    raise KeyError(f"no {kind} named {name!r}")


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def take(self, kind: str, text: str | None = None) -> Token | None:
        """Take the next token if it is of ``kind`` and, given ``text``, reads ``text``."""
        tok = self.peek()
        if tok.kind != kind or text not in (None, tok.text):
            return None
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None, text: str | None = None) -> Token:
        """``take``, or fail: ``expected <what>, found <it>``; ``what`` defaults to ``text!r``."""
        tok = self.take(kind, text)
        if tok is None:
            nxt = self.peek()
            found = "end of input" if nxt.kind == "eof" else repr(nxt.text)
            self.fail(f"expected {what or repr(text)}, found {found}")
        return tok

    def expect_bits(self, what: str, allow_empty: bool = False) -> tuple[int, ...]:
        if allow_empty and self.peek().kind != "int":
            return ()
        tok = self.expect("int", what)
        if any(c not in "01" for c in tok.text):
            self.fail(f"{what} must consist of bits, found {tok.text!r}", tok)
        return tuple(int(c) for c in tok.text)

    # -- declarations ---------------------------------------------------

    def parse_model(self) -> SessionModel:
        groups: dict[str, GroupSpec] = {}
        declarations: dict[str, list[Declaration]] = {"structure": [], "subgroup": []}
        names: set[str] = set()
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind != "ident" or tok.text not in ("group", "structure", "subgroup"):
                self.fail(f"expected a declaration, found {tok.text!r}")
            kind = self.take("ident").text
            name_tok = self.expect("ident", f"{kind} name")
            # a group's body is read before its name is checked
            spec = self.parse_group(name_tok) if kind == "group" else None
            if name_tok.text in names:
                self.fail(f"duplicate name {name_tok.text!r}", name_tok)
            names.add(name_tok.text)
            if spec is not None:
                groups[name_tok.text] = spec
                continue
            self.expect("ident", text="on")
            group_tok = self.expect("ident", "group name")
            if group_tok.text not in groups:
                self.fail(f"unknown group {group_tok.text!r}", group_tok)
            self.expect("punct", text="=")
            self.expect("punct", text="[")
            words = self.parse_words(groups[group_tok.text])
            self.expect("punct", text="]")
            self.expect("punct", text=";")
            declarations[kind].append(Declaration(name_tok.text, group_tok.text, words))
        return SessionModel(
            groups=tuple(groups.items()),
            structures=tuple(declarations["structure"]),
            subgroups=tuple(declarations["subgroup"]),
        )

    def parse_group(self, name_tok: Token) -> GroupSpec:
        self.expect("punct", text="{")
        ranks = []
        for part in ("normal", "quotient"):
            self.expect("ident", text=part)
            self.expect("ident", text="rank")
            tok = self.expect("int", f"{part} rank")
            if len(tok.text) > _MAX_RANK_DIGITS:
                self.fail(f"{part} rank has more than {_MAX_RANK_DIGITS} digits", tok)
            ranks.append(int(tok.text))
            self.expect("punct", text=";")
        n_rank, q_rank = ranks
        matrices = []
        while self.take("ident", "action"):
            qname_tok = self.expect("ident", "action name")
            expected = f"q{len(matrices) + 1}"
            if qname_tok.text != expected:
                self.fail(f"expected action {expected!r}, found {qname_tok.text!r}", qname_tok)
            self.expect("punct", text="=")
            matrices.append(self.parse_matrix(n_rank))
            self.expect("punct", text=";")
        if len(matrices) != q_rank:
            self.fail(
                f"group {name_tok.text!r} declares quotient rank {q_rank} but "
                f"{len(matrices)} action matrices"
            )
        generators = []
        gen_names = set()
        while self.take("ident", "gen"):
            gname_tok = self.expect("ident", "generator name")
            if gname_tok.text in gen_names:
                self.fail(f"duplicate generator {gname_tok.text!r}", gname_tok)
            gen_names.add(gname_tok.text)
            self.expect("punct", text="=")
            coord = self.parse_coord(n_rank, q_rank)
            self.expect("punct", text=";")
            generators.append((gname_tok.text, coord))
        self.expect("punct", text="}")
        try:
            return GroupSpec(n_rank, q_rank, tuple(matrices), tuple(generators))
        except GroupSpecError as exc:
            self.fail(str(exc), name_tok)

    def parse_matrix(self, n_rank: int):
        open_tok = self.expect("punct", text="[")
        rows = [self.expect_bits("matrix bit row")]
        while self.take("punct", ";"):
            rows.append(self.expect_bits("matrix bit row"))
        self.expect("punct", text="]")
        if len(rows) != n_rank or any(len(row) != n_rank for row in rows):
            self.fail(
                f"matrix must be {n_rank}x{n_rank}, found "
                f"{len(rows)} rows of widths {[len(r) for r in rows]}",
                open_tok,
            )
        return tuple(rows)

    def parse_coord(self, n_rank: int, q_rank: int):
        open_tok = self.expect("punct", text="(")
        nbits = self.expect_bits("n-part bits", allow_empty=n_rank == 0)
        self.expect("punct", text="|")
        qbits = self.expect_bits("q-part bits", allow_empty=True)
        self.expect("punct", text=")")
        if len(nbits) != n_rank or len(qbits) != q_rank:
            self.fail(
                f"coordinate must be ({n_rank} bits | {q_rank} bits), found "
                f"({len(nbits)} | {len(qbits)})",
                open_tok,
            )
        return (nbits, qbits)

    def parse_words(self, spec: GroupSpec) -> tuple[tuple[str, ...], ...]:
        """Comma-separated words, each a ``*``-product of ``spec``'s generator names."""
        known = {name for name, _ in spec.generator_names}
        words = []
        while not words or self.take("punct", ","):
            word = []
            while not word or self.take("punct", "*"):
                tok = self.expect("ident", "generator name")
                if tok.text not in known:
                    self.fail(f"unknown generator {tok.text!r}", tok)
                word.append(tok.text)
            words.append(tuple(word))
        return tuple(words)


def parse_model(text: str) -> SessionModel:
    """Parse a model file; errors carry line and column positions."""
    return _Parser(text).parse_model()


def parse_word_list_fragment(text: str, spec: GroupSpec) -> tuple[tuple[str, ...], ...]:
    """Parse a bare comma-separated word list, e.g. a --subgroup argument.

    Error columns count from 1 at the first character of ``text``.
    """
    parser = _Parser(text)
    words = parser.parse_words(spec)
    if parser.peek().kind != "eof":
        parser.fail(f"unexpected trailing input {parser.peek().text!r}")
    return words

