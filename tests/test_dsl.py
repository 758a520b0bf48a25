"""The spec-file grammar: statements, expressions, and their failure modes."""

from __future__ import annotations

from pathlib import Path

import pytest

from relfix.config import DEFAULT_CAPS
from relfix.dsl import parse_poset_literal, parse_spec
from relfix.errors import (
    InadmissibleRelation,
    ParseError,
    ResolveError,
    TypeMismatch,
)
from relfix.functor import Const, Fun, Lift, One, Prod, SumSep, Var
from relfix.poset import chain_poset
from relfix.relations import diagonal, total_rel
from relfix.suites import canonical_specs

SPECS = Path(__file__).parent / "specs"


def test_the_canonical_sources_parse_to_the_canonical_asts():
    # the bundled spec files, which the relate goldens also run
    for name, (functor, depth) in canonical_specs().items():
        parsed = parse_spec((SPECS / f"{name}.spec").read_text(encoding="utf-8"))
        assert parsed.functor == functor
        assert parsed.depth == depth
        assert parsed.domain_name == "D"


def test_lazy_nat_spec_shape():
    spec = parse_spec("domain D = sum(one, D)\ndepth 6\n")
    assert spec.functor == SumSep(One(), Var())
    assert spec.depth == 6


def test_comments_and_whitespace_are_ignored():
    spec = parse_spec(
        """
        # the reflexive space
        domain D = lift(fun(D, D))  # with mixed variance
        depth 3
        """
    )
    assert spec.functor == Lift(Fun(Var(), Var()))


def test_base_and_rel_statements():
    spec = parse_spec(
        """
        base B = chain(2)
        rel R on B = diag
        domain D = lift(prod(const(B, R), D))
        depth 4
        """
    )
    c2 = chain_poset(2)
    assert spec.bases["B"] == c2
    assert spec.rels["R"] == diagonal(c2)
    assert spec.functor == Lift(Prod(Const(c2, diagonal(c2)), Var()))


def test_inline_const_relations():
    spec = parse_spec("domain D = lift(prod(const(chain(2), total), D))\ndepth 2\n")
    c2 = chain_poset(2)
    assert spec.functor == Lift(Prod(Const(c2, total_rel(c2)), Var()))
    spec2 = parse_spec(
        "domain D = lift(prod(const(chain(2), pairs[(0,0),(1,1)]), D))\ndepth 2\n"
    )
    assert spec2.functor == Lift(Prod(Const(c2, diagonal(c2)), Var()))


def test_poset_block_literal():
    spec = parse_spec(
        """
        base V = poset { elems 3; le (0,1),(0,2); bot 0 }
        domain D = sum(one, D)
        depth 1
        """
    )
    v = spec.bases["V"]
    assert v.n == 3
    assert v.le(0, 1) and v.le(0, 2)
    assert not v.le(1, 2) and not v.le(2, 1)


def test_caps_and_seed_statements():
    spec = parse_spec(
        """
        domain D = sum(one, D)
        depth 2
        caps { max_elements = 500 }
        seed 42
        """
    )
    caps = spec.effective_caps()
    assert caps.max_elements == 500
    assert caps.max_pairs == DEFAULT_CAPS.max_pairs
    assert spec.seed == 42


def test_arity_error():
    with pytest.raises(ParseError):
        parse_spec("domain D = fun(D)\ndepth 1\n")


def test_unknown_name_is_a_resolve_error():
    with pytest.raises(ResolveError):
        parse_spec("domain D = lift(prod(const(B, diag), D))\ndepth 1\n")


def test_duplicate_statements_are_rejected():
    with pytest.raises(ParseError):
        parse_spec("domain D = sum(one, D)\ndomain E = sum(one, E)\ndepth 1\n")
    with pytest.raises(ParseError):
        parse_spec("domain D = sum(one, D)\ndepth 1\ndepth 2\n")


def test_missing_domain_statement():
    with pytest.raises(ParseError):
        parse_spec("depth 3\n")


def test_const_relation_must_be_admissible():
    with pytest.raises(InadmissibleRelation):
        parse_spec(
            "domain D = lift(prod(const(chain(2), pairs[(1,1)]), D))\ndepth 1\n"
        )


def test_rel_carrier_mismatch():
    with pytest.raises((ResolveError, TypeMismatch)):
        parse_spec(
            """
            base A = chain(2)
            base B = chain(3)
            rel R on A = diag
            domain D = lift(prod(const(B, R), D))
            depth 1
            """
        )


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_spec("domain D = sum(one,, D)\ndepth 1\n")
    assert err.value.details.get("line") == 1


def test_poset_literal_parser():
    assert parse_poset_literal("chain(3)") == chain_poset(3)
    assert parse_poset_literal("one").n == 1
    v = parse_poset_literal("poset { elems 3; le (0,1),(0,2); bot 0 }")
    assert v.n == 3
    with pytest.raises(ParseError):
        parse_poset_literal("chain(3) garbage")
