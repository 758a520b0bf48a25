"""The spec-file language: a tiny declaration DSL for domain equations.

Statements, one per line group, in any order (names must be declared
before use):

    domain D = sum(one, D)          the equation; D recurs as the variable
    base   B = chain(3)             a named base poset
    rel    R on B = pairs [(0,0), (1,1)]
    depth  6
    caps   { max_elements = 1000; max_pairs = 100000 }
    seed   42

Functor expressions: one, lift(F), prod(F, G), sum(F, G), fun(F, G),
const(P, R), or the domain name itself.  Poset expressions: one,
chain(n), poset { elems n; le (i,j), ...; bot i }, or a base name.
Relation expressions: diag, total, pairs [...], or a rel name (carrier
must match).  Comments run from '#' to end of line.

Errors carry line/col positions: ParseError for token-level trouble,
ResolveError for unknown or mistyped names and for poset or relation
literals their constructors reject (an empty chain, a cyclic order, a
pair out of range), InadmissibleRelation for a constant relation missing
the bottom pair.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .config import Caps, DEFAULT_CAPS
from .errors import (
    InadmissibleRelation,
    NoLeastElement,
    NotAPartialOrder,
    ParseError,
    ResolveError,
    TypeMismatch,
)
from .functor import (
    Const,
    Fun,
    FunctorExpr,
    Lift,
    One,
    Prod,
    SumSep,
    Var,
    validate_functor,
)
from .poset import FinPoset, chain_poset, one, validate_poset
from .relations import BinRel, diagonal, is_admissible, rel_from_pairs, total_rel


@dataclass
class SpecFile:
    """A parsed spec: the equation plus named context and run settings."""

    source: str
    domain_name: str
    functor: FunctorExpr
    bases: dict = field(default_factory=dict)
    rels: dict = field(default_factory=dict)
    depth: int | None = None
    caps: Caps | None = None
    seed: int | None = None

    def effective_caps(self) -> Caps:
        return self.caps if self.caps is not None else DEFAULT_CAPS


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<int>-?\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[(){}\[\],;=])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Tok:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list:
    toks = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line=line, col=col
            )
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            toks.append(_Tok(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    toks.append(_Tok("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, expected: str):
        t = self.peek()
        got = t.text or "end of input"
        raise ParseError(
            f"expected {expected}, got {got!r}",
            line=t.line,
            col=t.col,
            expected=expected,
        )

    def expect(self, text: str) -> _Tok:
        t = self.peek()
        if t.text != text:
            self.fail(repr(text))
        return self.next()

    def expect_int(self) -> int:
        t = self.peek()
        if t.kind != "int":
            self.fail("an integer")
        self.next()
        return int(t.text)

    def expect_ident(self) -> str:
        t = self.peek()
        if t.kind != "ident":
            self.fail("a name")
        return self.next().text

    def build(self, t: _Tok, make, *args):
        """Call a poset or relation constructor; its rejection of the
        literal becomes a ResolveError at t."""
        try:
            return make(*args)
        except (NotAPartialOrder, NoLeastElement, TypeMismatch) as exc:
            raise ResolveError(
                exc.message, line=t.line, col=t.col, **exc.details
            ) from exc

    # -- grammar -----------------------------------------------------------

    def parse(self) -> SpecFile:
        domain_name = None
        functor = None
        bases: dict = {}
        rels: dict = {}
        settings: dict = {}
        while self.peek().kind != "eof":
            t = self.peek()
            if t.text == "domain":
                if domain_name is not None:
                    raise ParseError(
                        "duplicate domain statement", line=t.line, col=t.col
                    )
                self.next()
                domain_name = self.expect_ident()
                self.expect("=")
                functor = self.fexpr(domain_name, bases, rels)
            elif t.text == "base":
                self.next()
                name = self.expect_ident()
                if name in bases:
                    raise ParseError(
                        f"duplicate base {name!r}", line=t.line, col=t.col
                    )
                self.expect("=")
                bases[name] = self.pexpr(bases)
            elif t.text == "rel":
                self.next()
                name = self.expect_ident()
                if name in rels:
                    raise ParseError(
                        f"duplicate rel {name!r}", line=t.line, col=t.col
                    )
                self.expect("on")
                carrier = self.pexpr(bases)
                self.expect("=")
                rels[name] = self.rexpr(carrier, rels)
            elif t.text in ("depth", "seed"):
                self.next()
                if t.text in settings:
                    raise ParseError(
                        f"duplicate {t.text} statement", line=t.line, col=t.col
                    )
                settings[t.text] = self.expect_int()
            elif t.text == "caps":
                self.next()
                if "caps" in settings:
                    raise ParseError(
                        "duplicate caps statement", line=t.line, col=t.col
                    )
                settings["caps"] = self.caps_block()
            else:
                self.fail("a statement (domain/base/rel/depth/caps/seed)")
        if functor is None:
            t = self.peek()
            raise ParseError(
                "spec has no domain statement", line=t.line, col=t.col
            )
        validate_functor(functor)
        return SpecFile(
            source="",
            domain_name=domain_name,
            functor=functor,
            bases=bases,
            rels=rels,
            depth=settings.get("depth"),
            caps=settings.get("caps"),
            seed=settings.get("seed"),
        )

    def caps_block(self) -> Caps:
        self.expect("{")
        values: dict = {}
        while self.peek().text != "}":
            t = self.peek()
            key = self.expect_ident()
            if key not in ("max_elements", "max_pairs"):
                raise ParseError(
                    f"unknown cap {key!r}", line=t.line, col=t.col
                )
            self.expect("=")
            values[key] = self.expect_int()
            if self.peek().text in (";", ","):
                self.next()
        self.expect("}")
        return Caps(**values)

    def fexpr(self, domain_name: str, bases: dict, rels: dict) -> FunctorExpr:
        t = self.peek()
        if t.kind != "ident":
            self.fail("a functor expression")
        name = self.next().text
        if name == "one":
            return One()
        if name in ("lift",):
            self.expect("(")
            body = self.fexpr(domain_name, bases, rels)
            self.expect(")")
            return Lift(body)
        if name in ("prod", "sum", "fun"):
            self.expect("(")
            left = self.fexpr(domain_name, bases, rels)
            self.expect(",")
            right = self.fexpr(domain_name, bases, rels)
            self.expect(")")
            ctor = {"prod": Prod, "sum": SumSep, "fun": Fun}[name]
            return ctor(left, right)
        if name == "const":
            self.expect("(")
            carrier = self.pexpr(bases)
            self.expect(",")
            rel = self.rexpr(carrier, rels)
            self.expect(")")
            if not is_admissible(rel):
                raise InadmissibleRelation(
                    "const relation must contain the bottom pair",
                    line=t.line,
                    col=t.col,
                )
            return Const(carrier, rel)
        if name == domain_name:
            return Var()
        raise ResolveError(
            f"unknown name {name!r} in a functor expression",
            line=t.line,
            col=t.col,
        )

    def pexpr(self, bases: dict) -> FinPoset:
        t = self.peek()
        if t.kind != "ident":
            self.fail("a poset expression")
        name = self.next().text
        if name == "one":
            return one()
        if name == "chain":
            self.expect("(")
            n = self.expect_int()
            self.expect(")")
            return self.build(t, chain_poset, n)
        if name == "poset":
            self.expect("{")
            self.expect("elems")
            n = self.expect_int()
            self.expect(";")
            self.expect("le")
            pairs = []
            if self.peek().text == "(":
                pairs = self.pairlist()
            self.expect(";")
            self.expect("bot")
            bot = self.expect_int()
            self.expect("}")
            return self.build(t, validate_poset, n, pairs, bot)
        if name in bases:
            return bases[name]
        raise ResolveError(
            f"unknown base poset {name!r}", line=t.line, col=t.col
        )

    def rexpr(self, carrier: FinPoset, rels: dict) -> BinRel:
        t = self.peek()
        if t.kind != "ident":
            self.fail("a relation expression")
        name = self.next().text
        if name == "diag":
            return diagonal(carrier)
        if name == "total":
            return total_rel(carrier)
        if name == "pairs":
            self.expect("[")
            pairs = []
            if self.peek().text == "(":
                pairs = self.pairlist()
            self.expect("]")
            return self.build(t, rel_from_pairs, carrier, pairs)
        if name in rels:
            got = rels[name]
            if got.carrier != carrier:
                raise ResolveError(
                    f"relation {name!r} lives on a different carrier",
                    line=t.line,
                    col=t.col,
                )
            return got
        raise ResolveError(
            f"unknown relation {name!r}", line=t.line, col=t.col
        )

    def pairlist(self) -> list:
        pairs = [self.pair()]
        while self.peek().text == ",":
            self.next()
            pairs.append(self.pair())
        return pairs

    def pair(self) -> tuple:
        self.expect("(")
        a = self.expect_int()
        self.expect(",")
        b = self.expect_int()
        self.expect(")")
        return (a, b)


def parse_spec(text: str) -> SpecFile:
    """Parse spec text; see the module docstring for the grammar."""
    spec = _Parser(text).parse()
    spec.source = text
    return spec


def parse_poset_literal(text: str) -> FinPoset:
    """Parse a standalone poset expression (as taken by `karoubi --poset`)."""
    p = _Parser(text)
    result = p.pexpr({})
    if p.peek().kind != "eof":
        p.fail("end of input")
    return result
