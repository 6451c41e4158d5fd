"""Scope-safe abstract syntax with named binders.

The package centers on a small discipline for working with names:
every operation that could capture or escape a binder takes the
current :class:`~scopefoil.names.Scope` as an argument, binders are
refreshed against that scope only when reuse would collide, and
moving a term into a larger scope (*sinking*) is free.

Layers, bottom to top; each module imports only the ones above it here:

- :mod:`scopefoil.naive` -- raw named syntax, and ``node_class``, the
  construction path of every frozen node class in the package.
- :mod:`scopefoil.fuel` -- the work budget every normalizer spends.
- :mod:`scopefoil.names` / :mod:`scopefoil.patterns` -- scopes,
  binders, substitutions, and binding patterns.
- :mod:`scopefoil.generic` -- a signature-generic AST whose
  substitution is written once, for every signature, and ``derive``,
  which generates node classes from the naive ones.
- :mod:`scopefoil.terms` / :mod:`scopefoil.lambda_pi` -- a lambda-Pi
  calculus on the generated direct classes, with one hand-written
  substitution, and on the generated signature classes of the generic
  AST, with conversions derived from the same naive fields.
- :mod:`scopefoil.bridge` -- conversion between raw named syntax and
  the scope-safe forms.
- :mod:`scopefoil.oracles` -- independent named and de Bruijn
  normalizers plus alpha-equivalence, used to cross-check everything.
- :mod:`scopefoil.nbe` -- normalization by evaluation.
- :mod:`scopefoil.encoding` -- canonical bytes and digests of every
  tree.
- :mod:`scopefoil.syntax` -- a parser and printer for the raw syntax.
- :mod:`scopefoil.bench` / :mod:`scopefoil.cli` -- the benchmark
  harness and the ``scopefoil`` command-line tool.
"""

from .fuel import Fuel, FuelExceededError
from .names import (
    Name,
    NameBinder,
    Scope,
    ScopeViolationError,
    Subst,
    Var,
    add_rename,
    add_subst,
    fresh_raw_name,
    identity_subst,
    name_of,
    sink,
    with_refreshed,
)
from .patterns import (
    Pattern,
    PatternPair,
    PatternVar,
    PatternWildcard,
    names_of_pattern,
    with_pattern,
)

__all__ = [
    "Fuel",
    "FuelExceededError",
    "Name",
    "NameBinder",
    "Pattern",
    "PatternPair",
    "PatternVar",
    "PatternWildcard",
    "Scope",
    "ScopeViolationError",
    "Subst",
    "Var",
    "add_rename",
    "add_subst",
    "fresh_raw_name",
    "identity_subst",
    "name_of",
    "names_of_pattern",
    "sink",
    "with_pattern",
    "with_refreshed",
]
