"""Every frozen, slotted node class is built one way: ``naive.node_class``.

The classes are found by walking the package's modules for the frozen
``__setattr__`` that ``node_class`` installs, so a class added later is
covered without a change here; ``Let``, derived outside the package in
``test_generic``, stands for a grammar the package has never seen.  Each
must behave as the plain ``dataclass(frozen=True, slots=True)`` would:
its signature, docstring, equality, hashing, ``repr``, pickling and
copying are compared with those of a ``make_dataclass`` reference with
the same fields.  None of its methods is written by ``dataclass``: each
is compiled by ``node_class``, the initializer for its class alone and
the others once for all the classes whose fields have the same names, and
the initializer stores the fields through the slot setters, which it
reads as globals of its own.
"""

import copy
import importlib
import inspect
import pickle
import pkgutil
import sys
from collections import defaultdict
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
                and value.__dict__.get("__setattr__") is naive._frozen_setattr
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

# A second sample of those classes, unequal to the first.
OTHER_ARGS = {
    naive.VarIdent: ("y", (1, 2)),
    DBApp: (BVar(1), BVar(0)),
    DBLam: (ShapeVar(), BVar(1)),
    DBPi: (ShapeVar(), DBUniverse(), BVar(1)),
    DBPair: (BVar(1), FVar(naive.VarIdent("y"))),
    DBFirst: (BVar(1),),
    DBSecond: (BVar(1),),
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


def _reference(cls: type) -> type:
    """The plain ``dataclass(frozen=True, slots=True)`` with ``cls``'s fields."""
    spec = [
        (f.name, f.type, field(default=f.default, init=f.init, repr=f.repr, compare=f.compare))
        for f in fields(cls)
    ]
    return make_dataclass(cls.__name__, spec, frozen=True, slots=True)


def _as_reference(reference: type, node: object) -> object:
    """An instance of ``reference`` holding ``node``'s field values, computed
    fields included."""
    copied = object.__new__(reference)
    for f in fields(node):
        object.__setattr__(copied, f.name, getattr(node, f.name))
    return copied


def _pair(cls: type) -> tuple[tuple, tuple]:
    """Two samples of arguments that make unequal nodes, when ``cls`` compares
    any field; values that pickle and compare equal after a round trip."""
    if cls in SAMPLE_ARGS:
        return SAMPLE_ARGS[cls], OTHER_ARGS[cls]
    names = _init_names(cls)
    return tuple(f"a{i}" for i in range(len(names))), tuple(f"b{i}" for i in range(len(names)))


def _bound(cls: type) -> bool:
    """Whether pickle finds ``cls`` under its name in its module."""
    return getattr(sys.modules[cls.__module__], cls.__qualname__, None) is cls


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
    ``init=False`` and computed by the compiled one.  Each is compiled for
    its class alone, and reads its setters as globals, not from a
    closure."""
    init = cls.__init__
    assert init.__code__.co_filename == "<node_class>"
    assert init.__qualname__ == f"{cls.__qualname__}.__init__"
    assert init.__module__ == cls.__module__
    assert init.__closure__ is None
    setters = {f"_set_{f.name}" for f in fields(cls)}
    assert setters <= set(init.__code__.co_names) & set(init.__globals__)


def _methods(cls: type) -> dict[str, object]:
    """The functions other than ``__init__`` that ``node_class`` compiles for
    ``cls``; the one that ``__repr__`` wraps to guard against recursion
    stands for it."""
    names = ("__eq__", "__hash__", "__repr__", "__getstate__", "__setstate__")
    return {name: inspect.unwrap(cls.__dict__[name]) for name in names}


@pytest.mark.parametrize("cls", CLASSES, ids=_id)
def test_every_method_is_compiled_by_node_class(cls):
    """Nor does ``dataclass`` write any other method: the ones it compiles
    are in the file ``<string>``."""
    for method in _methods(cls).values():
        assert method.__code__.co_filename == "<node_class>"


def test_the_file_name_check_sees_a_plain_dataclass():
    @dataclass(frozen=True, slots=True)
    class Plain:
        value: object

    for name in ("__init__", "__eq__", "__hash__", "__repr__"):
        method = inspect.unwrap(getattr(Plain, name))
        assert method.__code__.co_filename == "<string>"


def test_classes_with_the_same_fields_share_each_method_s_code():
    """The sources of the methods other than ``__init__`` name no class, so
    each is compiled once for every plain class with the same field
    names."""
    groups = defaultdict(list)
    for cls in CLASSES:
        plain = all(
            f.init and f.compare and f.repr and f.default is MISSING for f in fields(cls)
        )
        if fields(cls) and plain and not hasattr(cls, "__post_init__"):
            groups[tuple(f.name for f in fields(cls))].append(cls)
    assert len(groups[("left", "right")]) >= 4  # Pair, PatternPair, PairSig, ...
    for group in groups.values():
        first = _methods(group[0])
        for cls in group[1:]:
            for name, method in _methods(cls).items():
                assert method.__code__ is first[name].__code__, (cls, name)
                assert method.__qualname__ == f"{cls.__qualname__}.{name}"
                assert method.__module__ == cls.__module__


@pytest.mark.parametrize("cls", CLASSES, ids=_id)
def test_equality_hashing_and_repr_are_the_dataclass_s(cls):
    reference = _reference(cls)
    first, second = _pair(cls)
    node, same, other = cls(*first), cls(*first), cls(*second)
    ref, ref_same, ref_other = (_as_reference(reference, n) for n in (node, same, other))
    assert node is not same and node == same and not node != same
    compared = any(f.compare for f in fields(cls))
    assert (node == other) == (ref == ref_other) == (not compared)
    assert (node != other) == (ref != ref_other)
    assert hash(node) == hash(same) == hash(ref) == hash(ref_same)
    assert hash(other) == hash(ref_other)
    assert repr(node) == repr(ref) and repr(other) == repr(ref_other)
    assert node.__eq__(ref) is NotImplemented
    assert node.__getstate__() == ref.__getstate__()


@pytest.mark.parametrize("cls", CLASSES, ids=_id)
def test_pickling_and_copying_are_the_dataclass_s(cls):
    node = cls(*_pair(cls)[0])
    copies = [copy.copy(node), copy.deepcopy(node)]
    if _bound(cls):
        copies.append(pickle.loads(pickle.dumps(node)))
    for copied in copies:
        assert type(copied) is cls and copied == node
        assert copied.__getstate__() == node.__getstate__()  # computed fields too
        with pytest.raises(FrozenInstanceError):
            setattr(copied, "not_a_field", 0)


def test_most_classes_pickle_by_name():
    """Every class of the package is bound under its name, so only the
    test-made ``Let`` classes skip the pickle round trip above."""
    assert [cls for cls in CLASSES if not _bound(cls)] == [LET.direct]


def test_a_field_left_out_of_comparison_is_left_out_of_all_of_it():
    """``VarIdent.loc`` (``compare=False, repr=False``) and the de Bruijn
    classes' computed ``size`` and ``loose`` are not structure: they do not
    change equality, hashing or ``repr``, but they do pickle and copy."""
    here, there = naive.VarIdent("x", (1, 2)), naive.VarIdent("x", (3, 4))
    assert here == there and hash(here) == hash(there)
    assert repr(here) == repr(there) == "VarIdent(text='x')"
    assert pickle.loads(pickle.dumps(there)).loc == (3, 4)
    assert copy.deepcopy(there).loc == (3, 4)

    node = DBApp(BVar(0), BVar(1))
    assert (node.size, node.loose) == (3, 2)
    forged = copy.copy(node)
    DBApp.size.__set__(forged, 99)
    DBApp.loose.__set__(forged, 99)
    assert forged == node and hash(forged) == hash(node)
    assert repr(forged) == repr(node) == "DBApp(fun=BVar(index=0), arg=BVar(index=1))"
    assert (copy.deepcopy(forged).size, pickle.loads(pickle.dumps(forged)).loose) == (99, 99)


def test_repr_of_a_node_that_contains_itself_stops():
    """``repr`` is guarded against recursion, as the dataclass's is."""
    pair = naive.Pair(None, None)
    naive.Pair.left.__set__(pair, pair)
    assert repr(pair) == "Pair(left=..., right=None)"


def test_node_class_refuses_a_hand_written_init():
    class Written:
        value: int

        def __init__(self, value: int) -> None:
            object.__setattr__(self, "value", value)

    with pytest.raises(TypeError, match="writes the __init__"):
        naive.node_class(Written)


def test_node_class_refuses_any_method_it_writes():
    for name in ("__eq__", "__hash__", "__repr__", "__getstate__", "__setattr__"):
        written = type("Written", (), {"__annotations__": {"value": int}, name: None})
        with pytest.raises(TypeError, match=f"writes the {name}"):
            naive.node_class(written)


@pytest.mark.parametrize("cls", [c for c in CLASSES if fields(c)], ids=_id)
def test_the_signature_is_the_one_dataclass_generates(cls):
    reference = _reference(cls)
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

    class Hashed:  # hashed apart from its comparison
        value: int = field(hash=False)

    for cls in (Later, Computed, Hashed):
        with pytest.raises(TypeError, match="only plain fields"):
            naive.node_class(cls)
