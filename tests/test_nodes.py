"""Every frozen, slotted node class is built one way: ``naive.node_class``.

The classes are found by walking the package's modules, so a class added
later is covered without a change here; ``Let``, derived outside the
package in ``test_generic``, stands for a grammar the package has never
seen.  Each must behave as the plain ``dataclass(frozen=True, slots=True)``
would, while storing its fields through the slot setters.
"""

import importlib
import inspect
import pkgutil
from dataclasses import (
    MISSING,
    FrozenInstanceError,
    dataclass,
    field,
    fields,
    is_dataclass,
    make_dataclass,
)

import pytest

from test_generic import LET

import scopefoil
from scopefoil import lambda_pi, naive
from scopefoil.oracles import (
    BVar,
    DBApp,
    DBFirst,
    DBLam,
    DBPair,
    DBPi,
    DBSecond,
    DBUniverse,
    FVar,
    ShapeVar,
)


def _node_classes() -> list[type]:
    found = []
    for info in pkgutil.iter_modules(scopefoil.__path__):
        module = importlib.import_module(f"scopefoil.{info.name}")
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and value.__module__ == module.__name__
                and is_dataclass(value)
                and value.__dataclass_params__.frozen
                and "__slots__" in value.__dict__
            ):
                found.append(value)
    return found + [LET.direct, LET.free]


CLASSES = _node_classes()

# Arguments for the classes that look at theirs; any other class is built
# from one fresh object per field.
SAMPLE_ARGS = {
    naive.VarIdent: ("x", (1, 2)),
    DBApp: (BVar(0), BVar(1)),
    DBLam: (ShapeVar(), BVar(0)),
    DBPi: (ShapeVar(), DBUniverse(), BVar(0)),
    DBPair: (BVar(0), FVar(naive.VarIdent("y"))),
    DBFirst: (BVar(0),),
    DBSecond: (BVar(0),),
}

# Classes generated by ``generic.derive``, which have no docstring.
DERIVED = {
    cls for con in (*lambda_pi.CONSTRUCTORS, LET) for cls in (con.direct, con.free)
}

def _init_names(cls: type) -> list[str]:
    return [f.name for f in fields(cls) if f.init]


def _sample(cls: type) -> tuple:
    return SAMPLE_ARGS.get(cls) or tuple(object() for _ in _init_names(cls))


def _id(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def test_the_walk_finds_the_classes_of_every_layer():
    names = {_id(cls) for cls in CLASSES}
    for expected in (
        "scopefoil.naive.VarIdent",
        "scopefoil.names.Name",
        "scopefoil.patterns.PatternPair",
        "scopefoil.generic.ScopedAST",
        "scopefoil.terms.Lam",
        "scopefoil.lambda_pi.AppSig",
        "scopefoil.nbe.VLam",
        "scopefoil.oracles.DBApp",
        "test_generic.LetSig",
    ):
        assert expected in names
    assert len(CLASSES) >= 55


@pytest.mark.parametrize("cls", CLASSES, ids=_id)
def test_positional_and_keyword_construction_agree(cls):
    args = _sample(cls)
    names = _init_names(cls)
    positional = cls(*args)
    assert positional == cls(**dict(zip(names, args)))
    for name, arg in zip(names, args):
        assert getattr(positional, name) is arg


@pytest.mark.parametrize("cls", CLASSES, ids=_id)
def test_every_field_is_frozen(cls):
    """Every other name is too, slots such as ``fv`` and ``size`` included:
    assigning or deleting it raises the frozen error, not a ``TypeError``."""
    node = cls(*_sample(cls))
    names = [f.name for f in fields(cls)]
    slots = {s for c in cls.__mro__ for s in c.__dict__.get("__slots__", ())}
    for name in [*names, *sorted(slots - set(names)), "not_a_field"]:
        with pytest.raises(FrozenInstanceError):
            setattr(node, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(node, name)


@pytest.mark.parametrize("cls", CLASSES, ids=_id)
def test_no_class_keeps_the_setattr_initializer(cls):
    init = cls.__dict__.get("__init__")
    if init is None:
        assert not fields(cls) and cls.__init__ is object.__init__
    else:
        assert "__setattr__" not in init.__code__.co_names


def test_the_setattr_check_sees_a_plain_dataclass():
    """The check above is not vacuous: ``dataclass``'s own initializer of a
    frozen class stores through ``object.__setattr__``."""

    @dataclass(frozen=True, slots=True)
    class Plain:
        value: object

    assert "__setattr__" in Plain.__init__.__code__.co_names


@pytest.mark.parametrize("cls", [c for c in CLASSES if fields(c)], ids=_id)
def test_every_init_is_compiled_by_node_class(cls):
    """No class writes its own ``__init__``, so no initializer is written
    per constructor: a field computed from the others is declared with
    ``init=False`` and computed by the compiled one."""
    assert cls.__init__.__code__.co_filename == "<node_class>"


def test_node_class_refuses_a_hand_written_init():
    class Written:
        value: int

        def __init__(self, value: int) -> None:
            object.__setattr__(self, "value", value)

    with pytest.raises(TypeError, match="writes the __init__"):
        naive.node_class(Written)


@pytest.mark.parametrize("cls", [c for c in CLASSES if fields(c)], ids=_id)
def test_the_signature_is_the_one_dataclass_generates(cls):
    spec = [
        (f.name, f.type, field(default=f.default, init=f.init, repr=f.repr, compare=f.compare))
        for f in fields(cls)
    ]
    reference = make_dataclass(cls.__name__, spec, frozen=True, slots=True)
    assert inspect.signature(cls.__init__) == inspect.signature(reference.__init__)
    assert inspect.signature(cls) == inspect.signature(reference)
    if cls in DERIVED or cls.__doc__.startswith(f"{cls.__name__}("):
        assert cls.__doc__ == reference.__doc__  # it has no docstring of its own


@pytest.mark.parametrize(
    "cls", [c for c in CLASSES if any(f.default is not MISSING for f in fields(c))],
    ids=_id,
)
def test_defaults_hold(cls):
    required = [f for f in fields(cls) if f.default is MISSING]
    node = cls(*_sample(cls)[: len(required)])
    for f in fields(cls)[len(required):]:
        assert getattr(node, f.name) is f.default


def test_identifiers_are_still_validated():
    assert naive.VarIdent("x").loc is None
    assert naive.VarIdent("x", (3, 4)) == naive.VarIdent("x")
    for bad in ("lam", "1x", ""):
        with pytest.raises(ValueError, match="invalid identifier"):
            naive.VarIdent(bad)


def test_a_class_with_no_fields_takes_no_arguments():
    for cls in (c for c in CLASSES if not fields(c)):
        assert cls() == cls() and hash(cls()) == hash(cls())
        with pytest.raises(TypeError):
            cls(None)


def test_node_class_refuses_a_field_it_cannot_store():
    class Later:
        value: int = field(default=0, kw_only=True)

    class Computed:  # with nothing to compute it
        value: int = field(init=False)

    for cls in (Later, Computed):
        with pytest.raises(TypeError, match="only plain fields"):
            naive.node_class(cls)
