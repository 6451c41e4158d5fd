"""Code the package generates reads as its own source.

``generic``'s substitution walks, ``lambda_pi``'s congruence walks,
``bridge``'s conversions and ``syntax``'s parse rules are compiled from
generated source, each under a file name of its own with its text
registered in ``linecache``.  A traceback through one of them names the
generated line, and ``inspect.getsource`` returns the generated function.
"""

import inspect
import linecache
import os
import re
import traceback

import pytest

from scopefoil import bridge, generic, lambda_pi, naive, syntax
from scopefoil.bridge import to_free_closed
from scopefoil.lambda_pi import AppSig, nf_free
from scopefoil.names import Name, Scope, Var
from scopefoil.syntax import ParseError, parse_term
from scopefoil.terms import CONSTRUCTORS


def _line(error: pytest.ExceptionInfo, name: str) -> str:
    """The line shown for the innermost frame of ``error``'s traceback that
    runs a function called ``name``."""
    return [f for f in traceback.extract_tb(error.tb) if f.name == name][-1].line


def test_a_substitution_walk_shows_its_line():
    term = AppSig(Var(Name(0)), "oops")
    with pytest.raises(TypeError, match="not a syntax tree") as error:
        generic.substitute(Scope([0]), {0: Var(Name(1))}, term)
    assert _line(error, "substitute") == "c1 = _SUBSTITUTES[kind](scope, subst, dom, c1)"


def test_a_congruence_walk_shows_its_line():
    with pytest.raises(TypeError, match="not a syntax tree") as error:
        nf_free(Scope([0]), AppSig(Var(Name(0)), "oops"))
    assert _line(error, "_nf") == "child = _NFS[kind](scope, child, fuel)"


def test_a_bridge_walk_shows_its_line():
    with pytest.raises(TypeError, match="not a term") as error:
        to_free_closed(naive.App(naive.Universe(), "oops"))
    assert _line(error, "to_tree") == "c1 = walks[type(c1)](env, rename, here, c1)"


def test_a_parse_rule_shows_its_line():
    with pytest.raises(ParseError, match="expected '.'") as error:
        parse_term("lam x y")
    assert _line(error, "parse_Lam") == """if p.kinds[p.i] != '.': p.fail("'.'")"""


def test_a_walk_s_source_is_the_generated_one():
    walk = generic._SUBSTITUTES[AppSig]
    source = inspect.getsource(walk)
    assert source.lstrip().startswith("def substitute(scope, subst, dom, ast):\n")
    assert "c0 = ast.fun" in source and "c1 = ast.arg" in source
    assert "$" not in source  # the template's placeholders are filled in
    nf = inspect.getsource(lambda_pi._NFS[AppSig])
    assert nf.lstrip().startswith("def _nf(scope, term, fuel):\n")
    assert "c1 = term.arg" in nf


def _reads_as_generated(function, module, name: str) -> str:
    """Check that ``function`` is compiled under a file of its own, named
    after ``module``'s file in a directory of its own beside it, whose
    registered text holds the function called ``name``; return that file."""
    file = function.__code__.co_filename
    directory, base = os.path.split(file)
    package, module_base = os.path.split(module.__file__)
    assert base == module_base
    assert os.path.dirname(directory) == package
    assert re.fullmatch(r"<generated \d+>", os.path.basename(directory))
    source = inspect.getsource(function)
    assert source.lstrip().startswith(f"def {name}(")
    assert source in "".join(linecache.getlines(file))
    assert "$" not in source
    return file


@pytest.mark.parametrize("con", CONSTRUCTORS, ids=lambda con: con.naive.__name__)
def test_every_walk_of_a_constructor_reads_as_its_generated_source(con):
    """Each of a constructor's walks, in each module that compiles one,
    shows its own generated source.  Walks compiled from one source share
    its code and file (the walks to and from the direct and the generic
    tree do); walks from different sources never share a file."""
    walks = [
        (generic._SUBSTITUTES[con.free], generic, "substitute"),
        (lambda_pi._NFS[con.free], lambda_pi, "_nf"),
        (bridge._TO_FREE[con.naive], bridge, "to_tree"),
        (bridge._TO_DIRECT[con.naive], bridge, "to_tree"),
        (bridge._FROM_TREES[con.free], bridge, "from_tree"),
        (bridge._FROM_TREES[con.direct], bridge, "from_tree"),
    ]
    files = {walk.__code__: _reads_as_generated(walk, *rest) for walk, *rest in walks}
    assert len(set(files.values())) == len(files) >= 4


@pytest.mark.parametrize("cls", list(naive.NOTATION), ids=lambda cls: cls.__name__)
def test_every_notation_entry_s_rule_and_printer_read_as_generated_source(cls):
    """A form's printer, and its parse rule where the parser does not read
    the form itself, show their generated source in ``syntax``'s file."""
    _reads_as_generated(syntax._PRINTERS[cls], syntax, f"pretty_{cls.__name__}")
    rules = [
        rule
        for table in syntax._TABLES.values()
        for rule in table.values()
        if rule.__name__ == f"parse_{cls.__name__}"
    ]
    assert len(rules) == (cls is not syntax._JUXTAPOSED)
    for rule in rules:
        _reads_as_generated(rule, syntax, f"parse_{cls.__name__}")
