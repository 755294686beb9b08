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

from dataclasses import dataclass

from .groups import GroupSpec, GroupSpecError

_PUNCT = set("{}[]();,=*|")
# ASCII only: str.isdigit() also accepts characters such as "²" that int()
# rejects.
_DIGITS = frozenset("0123456789")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", "int", "punct", "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            tokens.append(Token("int", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(Token("punct", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


@dataclass(frozen=True)
class StructureDecl:
    name: str
    group_name: str
    words: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class SubgroupDecl:
    name: str
    group_name: str
    words: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class SessionModel:
    """Everything a model file declares, in declaration order."""

    groups: tuple[tuple[str, GroupSpec], ...] = ()
    structures: tuple[StructureDecl, ...] = ()
    subgroups: tuple[SubgroupDecl, ...] = ()

    def group_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.groups)

    def group_spec(self, name: str) -> GroupSpec:
        for gname, spec in self.groups:
            if gname == name:
                return spec
        raise KeyError(f"no group named {name!r}")

    def structure(self, name: str) -> StructureDecl:
        for decl in self.structures:
            if decl.name == name:
                return decl
        raise KeyError(f"no structure named {name!r}")

    def subgroup(self, name: str) -> SubgroupDecl:
        for decl in self.subgroups:
            if decl.name == name:
                return decl
        raise KeyError(f"no subgroup named {name!r}")

    def structures_on(self, group_name: str) -> tuple[StructureDecl, ...]:
        return tuple(d for d in self.structures if d.group_name == group_name)


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect(self, ok: bool, what: str) -> Token:
        """Take the next token if ``ok``, else fail: ``expected <what>, found <it>``."""
        if not ok:
            text = self.peek().text
            self.fail(f"expected {what}, found {repr(text) if text else 'end of input'}")
        return self.advance()

    def expect_punct(self, ch: str) -> Token:
        tok = self.peek()
        return self.expect(tok.kind == "punct" and tok.text == ch, repr(ch))

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        return self.expect(tok.kind == "ident" and tok.text == word, repr(word))

    def expect_ident(self, what: str) -> Token:
        return self.expect(self.peek().kind == "ident", what)

    def expect_int(self, what: str) -> Token:
        return self.expect(self.peek().kind == "int", what)

    def expect_bits(self, what: str, allow_empty: bool = False) -> tuple[int, ...]:
        tok = self.peek()
        if tok.kind != "int" and allow_empty:
            return ()
        self.expect(tok.kind == "int", what)
        if any(c not in "01" for c in tok.text):
            self.fail(f"{what} must consist of bits, found {tok.text!r}", tok)
        return tuple(int(c) for c in tok.text)

    # -- declarations ---------------------------------------------------

    def parse_model(self) -> SessionModel:
        groups: list[tuple[str, GroupSpec]] = []
        structures: list[StructureDecl] = []
        subgroups: list[SubgroupDecl] = []
        names: dict[str, Token] = {}
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind != "ident":
                self.fail(f"expected a declaration, found {tok.text!r}")
            if tok.text == "group":
                name_tok, spec = self.parse_group()
                if name_tok.text in names:
                    self.fail(f"duplicate name {name_tok.text!r}", name_tok)
                names[name_tok.text] = name_tok
                groups.append((name_tok.text, spec))
            elif tok.text in ("structure", "subgroup"):
                kind = self.advance().text
                name_tok = self.expect_ident(f"{kind} name")
                if name_tok.text in names:
                    self.fail(f"duplicate name {name_tok.text!r}", name_tok)
                self.expect_keyword("on")
                group_tok = self.expect_ident("group name")
                spec = None
                for gname, gspec in groups:
                    if gname == group_tok.text:
                        spec = gspec
                if spec is None:
                    self.fail(f"unknown group {group_tok.text!r}", group_tok)
                self.expect_punct("=")
                words = self.parse_word_list(spec)
                self.expect_punct(";")
                names[name_tok.text] = name_tok
                if kind == "structure":
                    structures.append(StructureDecl(name_tok.text, group_tok.text, words))
                else:
                    subgroups.append(SubgroupDecl(name_tok.text, group_tok.text, words))
            else:
                self.fail(f"expected a declaration, found {tok.text!r}")
        return SessionModel(
            groups=tuple(groups),
            structures=tuple(structures),
            subgroups=tuple(subgroups),
        )

    def parse_group(self) -> tuple[Token, GroupSpec]:
        self.expect_keyword("group")
        name_tok = self.expect_ident("group name")
        self.expect_punct("{")
        self.expect_keyword("normal")
        self.expect_keyword("rank")
        n_rank = int(self.expect_int("normal rank").text)
        self.expect_punct(";")
        self.expect_keyword("quotient")
        self.expect_keyword("rank")
        q_rank = int(self.expect_int("quotient rank").text)
        self.expect_punct(";")
        matrices = []
        while self.peek().kind == "ident" and self.peek().text == "action":
            self.advance()
            qname_tok = self.expect_ident("action name")
            expected = f"q{len(matrices) + 1}"
            if qname_tok.text != expected:
                self.fail(f"expected action {expected!r}, found {qname_tok.text!r}", qname_tok)
            self.expect_punct("=")
            matrices.append(self.parse_matrix(n_rank))
            self.expect_punct(";")
        if len(matrices) != q_rank:
            self.fail(
                f"group {name_tok.text!r} declares quotient rank {q_rank} but "
                f"{len(matrices)} action matrices"
            )
        generators = []
        gen_names = set()
        while self.peek().kind == "ident" and self.peek().text == "gen":
            self.advance()
            gname_tok = self.expect_ident("generator name")
            if gname_tok.text in gen_names:
                self.fail(f"duplicate generator {gname_tok.text!r}", gname_tok)
            gen_names.add(gname_tok.text)
            self.expect_punct("=")
            coord = self.parse_coord(n_rank, q_rank)
            self.expect_punct(";")
            generators.append((gname_tok.text, coord))
        self.expect_punct("}")
        spec = GroupSpec(
            n_rank=n_rank,
            q_rank=q_rank,
            action=tuple(matrices),
            generator_names=tuple(generators),
        )
        try:
            spec.validate()
        except GroupSpecError as exc:
            self.fail(str(exc), name_tok)
        return name_tok, spec

    def parse_matrix(self, n_rank: int):
        open_tok = self.expect_punct("[")
        rows = [self.expect_bits("matrix bit row")]
        while self.peek().kind == "punct" and self.peek().text == ";":
            self.advance()
            rows.append(self.expect_bits("matrix bit row"))
        self.expect_punct("]")
        if len(rows) != n_rank or any(len(row) != n_rank for row in rows):
            self.fail(
                f"matrix must be {n_rank}x{n_rank}, found "
                f"{len(rows)} rows of widths {[len(r) for r in rows]}",
                open_tok,
            )
        return tuple(rows)

    def parse_coord(self, n_rank: int, q_rank: int):
        open_tok = self.expect_punct("(")
        nbits = self.expect_bits("n-part bits", allow_empty=n_rank == 0)
        self.expect_punct("|")
        qbits = self.expect_bits("q-part bits", allow_empty=True)
        self.expect_punct(")")
        if len(nbits) != n_rank or len(qbits) != q_rank:
            self.fail(
                f"coordinate must be ({n_rank} bits | {q_rank} bits), found "
                f"({len(nbits)} | {len(qbits)})",
                open_tok,
            )
        return (nbits, qbits)

    def parse_word_list(self, spec: GroupSpec) -> tuple[tuple[str, ...], ...]:
        self.expect_punct("[")
        words = self.parse_words(spec)
        self.expect_punct("]")
        return words

    def parse_words(self, spec: GroupSpec) -> tuple[tuple[str, ...], ...]:
        known = {name for name, _ in spec.generator_names}
        words = [self.parse_word(known)]
        while self.peek().kind == "punct" and self.peek().text == ",":
            self.advance()
            words.append(self.parse_word(known))
        return tuple(words)

    def parse_word(self, known: set[str]) -> tuple[str, ...]:
        parts = []
        tok = self.expect_ident("generator name")
        if tok.text not in known:
            self.fail(f"unknown generator {tok.text!r}", tok)
        parts.append(tok.text)
        while self.peek().kind == "punct" and self.peek().text == "*":
            self.advance()
            tok = self.expect_ident("generator name")
            if tok.text not in known:
                self.fail(f"unknown generator {tok.text!r}", tok)
            parts.append(tok.text)
        return tuple(parts)


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

