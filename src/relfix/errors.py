"""Exception hierarchy.

Every error carries a structured ``details`` dict so CLI reports and test
assertions can inspect witnesses instead of parsing messages.
"""

from __future__ import annotations


class RelfixError(Exception):
    """Base class for all workbench errors."""

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.message = message
        self.details = details

    def __str__(self):
        if not self.details:
            return self.message
        extra = ", ".join(f"{k}={v!r}" for k, v in sorted(self.details.items()))
        return f"{self.message} ({extra})"


class NotAPartialOrder(RelfixError):
    """An order axiom (reflexivity, antisymmetry, transitivity) failed."""


class NoLeastElement(RelfixError):
    """The claimed bottom is not below every element."""


class NotMonotone(RelfixError):
    """A map table violates monotonicity; witness pair in details."""


class SizeCapExceeded(RelfixError):
    """A construction would exceed the configured resource caps."""


class NotEp(RelfixError):
    """A candidate (e, p) pair violates an embedding-projection law."""


class NotAnEmbedding(RelfixError):
    """A map admits no projection half (no greatest approximant below some y)."""


class TypeMismatch(RelfixError):
    """Domains/codomains or carriers do not line up."""


class LawViolation(RelfixError):
    """A functor/structure law failed; law name and witness in details."""


class InadmissibleRelation(RelfixError):
    """A relation that must contain the bottom pair does not."""


class DualMismatch(RelfixError):
    """The intersection and union gluings of a family disagree."""


class CoherenceViolation(RelfixError):
    """A level family is not coherent along the step embeddings."""


class NegPosMismatch(RelfixError):
    """The two halves of a relation-pair fixed point fail to coincide."""


class MethodDisagreement(RelfixError):
    """Two fixed-point engines produced different relation families."""


class NotContractive(RelfixError):
    """An operator failed the contractiveness stabilization bound."""


class NotCauchy(RelfixError):
    """A sequence fails its stated Cauchy modulus."""


class CharacterizationMismatch(RelfixError):
    """The equivalent formulations of n-equality disagree (implementation bug)."""


class EquivalenceMismatch(RelfixError):
    """Two formulations asserted equivalent (idempotent order) disagree."""


class InternalInvariantViolation(RelfixError):
    """A should-be-impossible internal condition fired."""


class ParseError(RelfixError):
    """Spec-file syntax error; line/column in details."""


class ResolveError(RelfixError):
    """A name referenced in a spec file does not resolve."""
