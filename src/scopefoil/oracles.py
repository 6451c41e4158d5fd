"""Reference normalizers and alpha-equivalence.

Two deliberately independent implementations over representations that do
not share the scope-indexed machinery:

* a plain named normalizer over the surface syntax, doing textbook
  capture-avoiding substitution with free-variable sets and a deterministic
  fresh-identifier supply.  Each ``nf_named``/``whnf_named`` call keeps one
  free-identifier memo for all its substitutions, and a substitution
  returns a subterm whose free identifiers miss its domain as it is.
  After whnf a stuck spine is normalized without being reduced again, a
  chain of binders is gone under in one loop (one frame for a nest of any
  depth), and a node whose children come back as the same objects is
  returned as it is, so a normal term is not copied; and
* a de Bruijn normalizer whose shifting and beta contraction share one
  index walk, :func:`_map_db` (TAPL's ``tmmap``), and whose weak head step
  is Krivine's machine: one loop over the head and an explicit spine of
  pending eliminators, with Brent's cycle check over the machine states.
  Normalization stops, too, where it comes back to a term it is already
  normalizing.

``alpha_eq`` converts any representation in this package to the de Bruijn
form and compares structurally; it is the only alpha-equivalence used
anywhere.  Free variables compare by identifier, so cross-representation
comparisons of *open* terms must convert with a consistent raw -> identifier
mapping first (see :mod:`scopefoil.bridge`).

Binders in de Bruijn terms keep the *shape* of the pattern that bound them
(wildcard / variable / pair) but not its names; a pattern's variables are
numbered left to right with the rightmost innermost (index 0).  Only the
variables ``BVar`` and ``FVar`` are written out: the class of each other
node is derived from its entry in :data:`scopefoil.lambda_pi.CONSTRUCTORS`,
with the surface fields in order and a ``shape`` for the pattern, and
paired with it in :data:`TO_DB` and :data:`BY_DB`.  So :func:`to_debruijn`
and :func:`from_debruijn` are walks over the field roles.

Every de Bruijn node knows its ``size`` (its number of nodes, which a beta
step charges as fuel) and ``loose`` (one more than its largest loose index,
an index pointing past the term's own binders; 0 when there is none).  A
derived node's ``__init__``, compiled by :func:`scopefoil.naive.node_class`,
computes both from its children, a body's ``loose`` less its shape's
arity; a leaf reads them from its class (``BVar.loose`` is ``index + 1``).
They describe the term rather than being part of it, so neither is a match
argument: the encoder, equality, hashing and ``repr`` see only the
structure.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import field

from . import bridge, lambda_pi, naive
from .fuel import Fuel, FuelExceededError
from .generic import PATTERN, SCOPED, TERM, Constructor, children, constructor
from .names import Var as FoilVar


# --------------------------------------------------------------------------
# named reference normalizer
# --------------------------------------------------------------------------


def _fresh_ident(base: str, avoid: set[str]) -> naive.VarIdent:
    if base not in avoid and base not in naive.RESERVED_WORDS:
        return naive.VarIdent(base)
    i = 1
    while f"{base}{i}" in avoid:
        i += 1
    return naive.VarIdent(f"{base}{i}")


def _pattern_refresh(
    pattern: naive.Pattern, sub: dict[str, naive.Term], body: naive.Term, memo: dict
) -> tuple[naive.Pattern, dict[str, naive.Term]]:
    """Prepare to substitute under ``pattern``: drop shadowed entries, rename
    any binder that would capture a free variable of the remaining values.
    Free-identifier sets come from ``memo`` (see :func:`subst_named`)."""
    bound = {i.text for i in naive.pattern_idents(pattern)}
    body_free = naive.free_idents(body, memo)
    live = {k: v for k, v in sub.items() if k in body_free and k not in bound}
    if not live:
        return pattern, {}
    value_free: set[str] = set()
    for v in live.values():
        value_free |= naive.free_idents(v, memo)
    avoid = value_free | body_free | bound
    sub2 = dict(live)

    def rebuild(p: naive.Pattern) -> naive.Pattern:
        kind = type(p)
        if kind is naive.PatternVar:
            text = p.ident.text
            if text not in value_free:
                return p
            fresh = _fresh_ident(text, avoid)
            avoid.add(fresh.text)
            sub2[text] = naive.Var(fresh)
            return naive.PatternVar(fresh)
        if kind is naive.PatternWildcard:
            return p
        if kind is naive.PatternPair:
            return naive.PatternPair(rebuild(p.left), rebuild(p.right))
        raise TypeError(f"not a pattern: {p!r}")

    return rebuild(pattern), sub2


def subst_named(
    sub: dict[str, naive.Term], term: naive.Term, memo: dict | None = None
) -> naive.Term:
    """Capture-avoiding parallel substitution on surface terms.

    A subterm none of whose free identifiers is a key of ``sub`` is
    returned as it is, so a substitution rebuilds only the path to the
    occurrences it replaces.  Free-identifier sets come from ``memo`` (see
    :func:`naive.free_idents`); :func:`nf_named` and :func:`whnf_named`
    pass one memo to every substitution of their call, so each node's set,
    and each substituted value's, is computed once per normalization.
    """
    if not sub:
        return term
    if memo is None:
        memo = {}
    kind = type(term)
    if kind is naive.Var:
        return sub.get(term.ident.text, term)
    if sub.keys().isdisjoint(naive.free_idents(term, memo)):
        return term
    if kind is naive.App:
        return naive.App(
            subst_named(sub, term.fun, memo), subst_named(sub, term.arg, memo)
        )
    if kind is naive.Lam:
        body = term.body.term
        pattern2, sub2 = _pattern_refresh(term.pattern, sub, body, memo)
        return naive.Lam(pattern2, naive.ScopedTerm(subst_named(sub2, body, memo)))
    if kind is naive.First or kind is naive.Second:
        return kind(subst_named(sub, term.term, memo))
    if kind is naive.Pair:
        return naive.Pair(
            subst_named(sub, term.left, memo), subst_named(sub, term.right, memo)
        )
    # A Pi: the Universe has no free identifiers and returned above.
    codomain = term.codomain.term
    domain2 = subst_named(sub, term.domain, memo)
    pattern2, sub2 = _pattern_refresh(term.pattern, sub, codomain, memo)
    return naive.Pi(
        pattern2, domain2, naive.ScopedTerm(subst_named(sub2, codomain, memo))
    )


def _bindings_named(pattern: naive.Pattern, arg: naive.Term) -> dict[str, naive.Term]:
    kind = type(pattern)
    if kind is naive.PatternVar:
        return {pattern.ident.text: arg}
    if kind is naive.PatternWildcard:
        return {}
    if kind is naive.PatternPair:
        out = _bindings_named(pattern.left, naive.First(arg))
        out.update(_bindings_named(pattern.right, naive.Second(arg)))
        return out
    raise TypeError(f"not a pattern: {pattern!r}")


def _whnf_named(term: naive.Term, fuel: Fuel, memo: dict) -> naive.Term:
    kind = type(term)
    if kind is naive.App:
        fun = term.fun
        fun2 = _whnf_named(fun, fuel, memo)
        if type(fun2) is naive.Lam:
            fuel.spend()
            sub = _bindings_named(fun2.pattern, term.arg)
            return _whnf_named(subst_named(sub, fun2.body.term, memo), fuel, memo)
        return term if fun2 is fun else naive.App(fun2, term.arg)
    if kind is naive.First or kind is naive.Second:
        t = term.term
        t2 = _whnf_named(t, fuel, memo)
        if type(t2) is not naive.Pair:
            return term if t2 is t else kind(t2)
        fuel.spend()
        return _whnf_named(t2.left if kind is naive.First else t2.right, fuel, memo)
    return term


def whnf_named(term: naive.Term, fuel: int | None = None) -> naive.Term:
    return _whnf_named(term, Fuel(fuel), {})


def _nf_whnf_named(term: naive.Term, fuel: Fuel, memo: dict) -> naive.Term:
    # ``term`` is in whnf, so a spine's heads are too: they are normalized
    # here without being reduced again, and a stuck spine costs time linear
    # in its length.  Every other child is put in whnf first.  A chain of
    # binders is gone under in one loop, as ``terms._nf_whnf`` does: while a
    # body is a lambda or a Pi, or reduces to one, the loop goes on under
    # it, and the chain is rebuilt from the inside out, so a nest of n
    # binders takes one frame.  A node whose children all come back as the
    # same objects is returned as it is.
    kind = type(term)
    if kind is naive.App:
        fun = _nf_whnf_named(term.fun, fuel, memo)
        arg = _nf_whnf_named(_whnf_named(term.arg, fuel, memo), fuel, memo)
        return term if arg is term.arg and fun is term.fun else naive.App(fun, arg)
    if kind is naive.Lam or kind is naive.Pi:
        chain = None  # (node, new domain, old body, rest)
        while True:
            if kind is naive.Lam:
                domain = None
                body = before = term.body.term
            else:
                domain = _nf_whnf_named(_whnf_named(term.domain, fuel, memo), fuel, memo)
                body = before = term.codomain.term
            kind = type(body)
            if kind is not naive.Lam and kind is not naive.Pi:
                body = _whnf_named(body, fuel, memo)
                kind = type(body)
                if kind is not naive.Lam and kind is not naive.Pi:
                    body = _nf_whnf_named(body, fuel, memo)
                    break
            chain = (term, domain, before, chain)
            term = body
        while True:  # rebuild the chain from the inside out
            if domain is None:
                if body is not before:
                    term = naive.Lam(term.pattern, naive.ScopedTerm(body))
            elif body is not before or domain is not term.domain:
                term = naive.Pi(term.pattern, domain, naive.ScopedTerm(body))
            if chain is None:
                return term
            body = term
            term, domain, before, chain = chain
    if kind is naive.Var or kind is naive.Universe:
        return term
    if kind is naive.First or kind is naive.Second:
        t = _nf_whnf_named(term.term, fuel, memo)
        return term if t is term.term else kind(t)
    if kind is naive.Pair:
        left = _nf_whnf_named(_whnf_named(term.left, fuel, memo), fuel, memo)
        right = _nf_whnf_named(_whnf_named(term.right, fuel, memo), fuel, memo)
        return term if left is term.left and right is term.right else naive.Pair(left, right)
    raise TypeError(f"not a term: {term!r}")


def nf_named(term: naive.Term, fuel: int | None = None) -> naive.Term:
    """Normal-order normalization on the surface syntax."""
    fuel, memo = Fuel(fuel), {}
    return _nf_whnf_named(_whnf_named(term, fuel, memo), fuel, memo)


# --------------------------------------------------------------------------
# de Bruijn representation
# --------------------------------------------------------------------------


@naive.node_class
class ShapeWildcard:
    pass


@naive.node_class
class ShapeVar:
    pass


@naive.node_class
class ShapePair:
    left: "Shape"
    right: "Shape"


Shape = ShapeWildcard | ShapeVar | ShapePair


def shape_arity(shape: Shape) -> int:
    kind = type(shape)
    if kind is ShapeVar:
        return 1
    if kind is ShapeWildcard:
        return 0
    if kind is ShapePair:
        return shape_arity(shape.left) + shape_arity(shape.right)
    raise TypeError(f"not a shape: {shape!r}")


@naive.node_class
class BVar:
    index: int
    size = 1  # a leaf's ``size`` and ``loose`` are not fields

    @property
    def loose(self) -> int:
        return self.index + 1


@naive.node_class
class FVar:
    ident: naive.VarIdent
    size, loose = 1, 0


# A body's ``loose`` less the indices its node's shape binds, and the names
# that this expression reads.
_UNBOUND = " - (1 if type(shape) is ShapeVar else shape_arity(shape))"
_ARITY = {"ShapeVar": ShapeVar, "shape_arity": shape_arity}


def _db_class(con: Constructor) -> type:
    """The de Bruijn class ``DB<name>`` of one surface constructor: its
    fields in order, with a ``shape`` for the pattern, and an ``__init__``
    that computes ``size`` and ``loose`` with one statement per child."""
    annotations, sizes, looses = {}, ["1"], []
    for name, role in zip(con.naive.__match_args__, con.roles):
        if role is PATTERN:
            annotations["shape"] = "Shape"
            continue
        annotations[name] = "DBTerm"
        sizes.append(f"{name}.size")
        looses.append(f"{name}.loose" + (_UNBOUND if role is SCOPED else ""))
    if TERM not in con.roles:  # no child whose ``loose`` is at least 0
        looses.append("0")
    compute = [f"_set_size(self, {' + '.join(sizes)})"]
    loose = looses[0]
    for other in looses[1:]:
        compute.append(f"a, b = {loose}, {other}")
        loose = "a if a > b else b"
    compute.append(f"_set_loose(self, {loose})")
    annotations.update(size="int", loose="int")
    cache = {"init": False, "repr": False, "compare": False}  # not structure
    namespace = {"__annotations__": annotations, "__module__": __name__}
    namespace.update(size=field(**cache), loose=field(**cache))
    cls = type("DB" + con.naive.__name__, (), namespace)
    return naive.node_class(cls, tuple(compute), _ARITY)


# The de Bruijn class of each surface constructor, and the constructor of
# each de Bruijn class.
BY_DB = {_db_class(con): con for con in lambda_pi.CONSTRUCTORS}
TO_DB = {con.naive: db for db, con in BY_DB.items()}
DBPair, DBFirst, DBSecond, DBApp, DBLam, DBPi, DBUniverse = BY_DB

DBTerm = BVar | FVar | DBApp | DBLam | DBPi | DBPair | DBFirst | DBSecond | DBUniverse


def _shape_of(pattern: naive.Pattern) -> tuple[Shape, list[str]]:
    kind = type(pattern)
    if kind is naive.PatternVar:
        return ShapeVar(), [pattern.ident.text]
    if kind is naive.PatternWildcard:
        return ShapeWildcard(), []
    if kind is naive.PatternPair:
        ls, ln = _shape_of(pattern.left)
        rs, rn = _shape_of(pattern.right)
        return ShapePair(ls, rs), ln + rn
    raise TypeError(f"not a pattern: {pattern!r}")


def _shape_paths(shape: Shape) -> list[tuple[int, ...]]:
    """Projection paths to the shape's variables, left to right.  Step 0 is
    a ``first`` projection, step 1 a ``second``."""
    kind = type(shape)
    if kind is ShapeVar:
        return [()]
    if kind is ShapeWildcard:
        return []
    if kind is ShapePair:
        return [(0,) + p for p in _shape_paths(shape.left)] + [
            (1,) + p for p in _shape_paths(shape.right)
        ]
    raise TypeError(f"not a shape: {shape!r}")


def to_debruijn(term: naive.Term) -> DBTerm:
    """Convert surface syntax to de Bruijn form; free variables stay named.

    A pattern becomes its shape.  Bound identifiers resolve through one
    identifier -> level map, set on the way into each body under a pattern
    and put back on the way out, so entering a binder costs its pattern's
    size, not the depth.
    """
    levels: dict[str, int] = {}

    def go(t: naive.Term, depth: int) -> DBTerm:
        if type(t) is naive.Var:
            level = levels.get(t.ident.text)
            if level is None:
                return FVar(naive.VarIdent(t.ident.text))
            return BVar(depth - 1 - level)
        con = constructor(lambda_pi.BY_NAIVE, t)
        new = []
        for role, field in zip(con.roles, children(t)):
            if role is PATTERN:
                shape, names = _shape_of(field)
                new.append(shape)
            elif role is SCOPED:
                saved = [(name, levels.get(name)) for name in names]
                for level, name in enumerate(names, depth):
                    levels[name] = level
                new.append(go(field.term, depth + len(names)))
                for name, old in saved:
                    if old is None:
                        levels.pop(name, None)  # a pattern may bind it twice
                    else:
                        levels[name] = old
            else:
                new.append(go(field, depth))
        return TO_DB[con.naive](*new)

    return go(term, 0)


def from_debruijn(term: DBTerm) -> naive.Term:
    """Convert back to surface syntax, inventing binder names ``x0, x1, ...``
    deterministically (skipping any identifier that occurs free).  A
    pattern is named at its first body, so a Pi's binders come after its
    domain's."""
    taken = set()

    def collect_free(t: DBTerm) -> None:
        kind = type(t)
        if kind is FVar:
            taken.add(t.ident.text)
        elif kind is not BVar:
            con = constructor(BY_DB, t)
            for role, field in zip(con.roles, children(t)):
                if role is not PATTERN:
                    collect_free(field)

    collect_free(term)
    counter = 0

    def fresh() -> naive.VarIdent:
        nonlocal counter
        while f"x{counter}" in taken:
            counter += 1
        ident = naive.VarIdent(f"x{counter}")
        counter += 1
        return ident

    def pattern_of(shape: Shape) -> tuple[naive.Pattern, list[naive.VarIdent]]:
        kind = type(shape)
        if kind is ShapeVar:
            ident = fresh()
            return naive.PatternVar(ident), [ident]
        if kind is ShapeWildcard:
            return naive.PatternWildcard(), []
        if kind is ShapePair:
            lp, ln = pattern_of(shape.left)
            rp, rn = pattern_of(shape.right)
            return naive.PatternPair(lp, rp), ln + rn
        raise TypeError(f"not a shape: {shape!r}")

    # The identifiers of the enclosing binders, innermost last: a binder
    # pushes its pattern's identifiers for each body and pops them after.
    ctx: list[naive.VarIdent] = []

    def go(t: DBTerm) -> naive.Term:
        kind = type(t)
        if kind is BVar:
            return naive.Var(ctx[-1 - t.index])
        if kind is FVar:
            return naive.Var(t.ident)
        con = constructor(BY_DB, t)
        new = []
        names = None
        for role, field in zip(con.roles, children(t)):
            if role is PATTERN:
                new.append(field)  # the shape, named at its first body
            elif role is SCOPED:
                if names is None:
                    new[con.pattern], names = pattern_of(new[con.pattern])
                ctx.extend(names)
                new.append(naive.ScopedTerm(go(field)))
                del ctx[len(ctx) - len(names) :]
            else:
                new.append(go(field))
        return con.naive(*new)

    return go(term)


def _map_db(
    term: DBTerm, on_bvar: Callable[[BVar, int], DBTerm], depth: int
) -> DBTerm:
    """Rebuild ``term``, replacing each loose ``BVar`` (index >= ``d``) by
    ``on_bvar(var, d)`` where ``d`` is ``depth`` plus the indices bound above
    the variable: TAPL's ``tmmap``, the one walk behind both shifting and
    beta contraction.  A subterm with no loose index at or above ``depth``
    is returned as it is.

    Written with ``type`` tests, most frequent first: a class-pattern
    ``match`` costs several times as much, and every beta runs this walk.
    A variable is tested by its index, without the ``loose`` property.
    """
    kind = type(term)
    if kind is BVar:
        return on_bvar(term, depth) if term.index >= depth else term
    if term.loose <= depth:
        return term
    if kind is DBApp:
        return DBApp(
            _map_db(term.fun, on_bvar, depth), _map_db(term.arg, on_bvar, depth)
        )
    if kind is DBLam:
        shape = term.shape
        k = 1 if type(shape) is ShapeVar else shape_arity(shape)
        return DBLam(shape, _map_db(term.body, on_bvar, depth + k))
    if kind is DBFirst or kind is DBSecond:
        return kind(_map_db(term.term, on_bvar, depth))
    if kind is DBPair:
        return DBPair(
            _map_db(term.left, on_bvar, depth), _map_db(term.right, on_bvar, depth)
        )
    if kind is DBPi:
        shape = term.shape
        k = 1 if type(shape) is ShapeVar else shape_arity(shape)
        return DBPi(
            shape,
            _map_db(term.domain, on_bvar, depth),
            _map_db(term.codomain, on_bvar, depth + k),
        )
    raise TypeError(f"not a term: {term!r}")


def shift_db(term: DBTerm, by: int, cutoff: int = 0) -> DBTerm:
    """Add ``by`` to every index >= ``cutoff`` (free in the current prefix).

    A shift by 0, or of a term with no such index, returns ``term`` itself:
    there is nothing to copy.
    """
    if by == 0:
        return term
    return _map_db(term, lambda var, depth: BVar(var.index + by), cutoff)


def _proj(path: tuple[int, ...], term: DBTerm) -> DBTerm:
    for step in path:
        term = DBFirst(term) if step == 0 else DBSecond(term)
    return term


_VAR_PATHS = _shape_paths(ShapeVar())


def _db_beta(shape: Shape, body: DBTerm, arg: DBTerm) -> DBTerm:
    """Contract ``(lam <shape>. body) arg``: each pattern variable becomes the
    matching first/second projection chain over ``arg``, shifted once per
    binder depth and shared by every occurrence there (a closed ``arg`` is
    never copied), and the remaining indices drop by the shape's arity."""
    if type(shape) is ShapeVar:
        k, paths = 1, _VAR_PATHS
    else:
        k, paths = shape_arity(shape), _shape_paths(shape)
    shifted: dict[int, DBTerm] = {}

    def on_bvar(var: BVar, depth: int) -> DBTerm:
        index = var.index
        if index >= depth + k:
            return BVar(index - k)
        copy = shifted.get(depth)
        if copy is None:
            copy = shifted[depth] = shift_db(arg, depth)
        path = paths[k - 1 - (index - depth)]
        return _proj(path, copy) if path else copy

    return _map_db(body, on_bvar, 0)


_CYCLE = "reduction returns to a term it has passed: it never ends"


def _frames_repeat(saved: list, low: int, spine: list) -> bool:
    # The frames ``saved`` held above ``low`` against the same number of
    # frames on top of ``spine``: an eliminator of the same kind, and for an
    # application an equal argument.
    k = len(saved) - low
    top = len(spine) - k
    if top < low:
        return False
    for i in range(k):
        a, b = saved[low + i], spine[top + i]
        if a is not b and (
            type(a) is not type(b) or (type(a) is DBApp and a.arg != b.arg)
        ):
            return False
    return True


def _whnf_db(term: DBTerm, fuel: Fuel) -> tuple[DBTerm, list | tuple]:
    # Krivine's machine: the eliminators above the head wait on ``spine``
    # (the nodes themselves, innermost last), and each contraction takes
    # the head and the top frame, so a nest of redexes takes no Python
    # frame per level.  A redex ``App(Lam, arg)`` met on the way down is
    # contracted at once, without a push and a pop.  Returns the head, no
    # eliminator, and the frames it is stuck under: the machine's own list
    # when nothing was contracted, so they are the term's own nodes, and a
    # tuple of them otherwise (``_nf_db`` tells the two apart by type).
    #
    # Brent's cycle check runs over machine states: at each power-of-two
    # contraction count the head and a copy of the spine are saved, and
    # ``low`` tracks the shortest the spine has been since.  The steps from
    # the save to now never looked below ``low``, so when the head equals
    # the saved one (de Bruijn equality is alpha-equivalence) and the
    # saved frames above ``low`` match the current top ones, the same steps
    # run again from here, and again, each round charging fuel: the loop
    # never ends.  A term that reaches a whnf never passes such a state, so
    # it can never trip the check.  ``type`` tests rather than ``match``,
    # as in :func:`_map_db`.
    spine: list = []
    push = spine.append
    pop = spine.pop
    saved, saved_spine, low = term, [], 0
    steps = 0
    while True:
        kind = type(term)
        if kind is DBApp:
            fun = term.fun
            if type(fun) is not DBLam:
                push(term)
                term = fun
                continue
            # Charge in proportion to the argument being copied into the
            # body: this makes the budget a bound on allocation, so terms
            # whose intermediates explode in size (while taking few
            # steps) are cut off instead of eating the machine.
            arg = term.arg
            fuel.spend(1 + arg.size)
            term = _db_beta(fun.shape, fun.body, arg)
        elif kind is DBFirst or kind is DBSecond:
            push(term)
            term = term.term
            continue
        elif not spine:
            break
        else:
            frame = spine[-1]
            frame_kind = type(frame)
            if kind is DBLam and frame_kind is DBApp:
                pop()
                arg = frame.arg
                fuel.spend(1 + arg.size)
                term = _db_beta(term.shape, term.body, arg)
            elif kind is DBPair and frame_kind is not DBApp:
                pop()
                fuel.spend()
                term = term.left if frame_kind is DBFirst else term.right
            else:
                break
            if len(spine) < low:
                low = len(spine)
        if (
            term.size == saved.size
            and term == saved
            and _frames_repeat(saved_spine, low, spine)
        ):
            raise FuelExceededError(_CYCLE)
        steps += 1
        if steps & (steps - 1) == 0:
            saved, saved_spine, low = term, spine[:], len(spine)
    return term, (tuple(spine) if steps else spine)


def whnf_debruijn(term: DBTerm, fuel: int | None = None) -> DBTerm:
    """Weak head normal form.  ``fuel`` bounds *work*: projections cost one
    unit, a beta step costs one plus the size of the argument it copies.

    The reduction is one loop over the head and a spine of pending
    applications and projections; the stuck spine is rebuilt around the
    head, reusing every node whose child came back unchanged.

    Raises :class:`FuelExceededError` with "work budget exhausted" when the
    budget runs out, and with "reduction returns to a term it has passed:
    it never ends" when the machine comes back to a head it already reached
    under the same pending eliminators, above a part of the spine it never
    touched in between.  That reduction repeats forever whatever the budget
    (``None`` included), so exactly the terms the budget would stop are
    stopped, growing ones like ``(lam x . x x x) (lam x . x x x)`` too.
    """
    term, spine = _whnf_db(term, Fuel(fuel))
    for frame in reversed(spine):
        if type(frame) is DBApp:
            term = frame if frame.fun is term else DBApp(term, frame.arg)
        else:
            term = frame if frame.term is term else type(frame)(term)
    return term


def _nf_db(term: DBTerm, fuel: _Normalizing) -> DBTerm:
    kind = type(term)
    # Only an eliminator can be a redex; every other node is its own whnf.
    if kind is DBApp or kind is DBFirst or kind is DBSecond:
        # Normalize the head whnf stopped at and the stuck spine's
        # arguments, innermost first, so the spine is unwound once and
        # costs time linear in its length.
        term, spine = _whnf_db(term, fuel)
        if type(spine) is tuple:
            return _nf_reduced(term, spine, fuel)
        term = _nf_db(term, fuel)
        for frame in reversed(spine):
            if type(frame) is DBApp:
                term = DBApp(term, _nf_db(frame.arg, fuel))
            else:
                term = type(frame)(term)
        return term
    if kind is DBLam:
        return DBLam(term.shape, _nf_db(term.body, fuel))
    if kind is BVar or kind is FVar or kind is DBUniverse:
        return term
    if kind is DBPair:
        return DBPair(_nf_db(term.left, fuel), _nf_db(term.right, fuel))
    if kind is DBPi:
        return DBPi(
            term.shape, _nf_db(term.domain, fuel), _nf_db(term.codomain, fuel)
        )
    raise TypeError(f"not a term: {term!r}")


class _Normalizing(Fuel):
    """The budget of one :func:`nf_debruijn` call, and the terms that
    :func:`_nf_entered` is normalizing in it: one list per ``size``, of
    the entered terms of that size, outermost first."""

    __slots__ = ("entered",)

    def __init__(self, budget: int | None):
        self.remaining = budget
        self.entered: dict[int, list[DBTerm]] = {}


def _nf_reduced(head: DBTerm, spine: tuple, fuel: _Normalizing) -> DBTerm:
    # ``_nf_db``'s unwinding of a weak head step that contracted: the head
    # and each argument but a leaf, which is normal, go through
    # ``_nf_entered``.
    term = head if head.size == 1 else _nf_entered(head, fuel)
    for frame in reversed(spine):
        if type(frame) is DBApp:
            arg = frame.arg
            term = DBApp(term, arg if arg.size == 1 else _nf_entered(arg, fuel))
        else:
            term = type(frame)(term)
    return term


def _nf_entered(term: DBTerm, fuel: _Normalizing) -> DBTerm:
    # ``_nf_db`` is a function of its term, so normalizing a term while an
    # equal one is being normalized further up repeats forever.  Getting
    # down to an equal term takes a contraction, since every step to a
    # child lowers ``size``; the first round passes a step that contracted,
    # so the second meets the entry that step made.  An entry goes when its
    # call returns, so only ancestors are compared, never siblings; an
    # error ends the whole ``nf_debruijn`` call.
    size = term.size
    entered = fuel.entered.get(size)
    if entered is None:
        entered = fuel.entered[size] = []
    elif term in entered:
        raise FuelExceededError(_CYCLE)
    entered.append(term)
    term = _nf_db(term, fuel)
    entered.pop()
    return term


def nf_debruijn(term: DBTerm, fuel: int | None = None) -> DBTerm:
    """Normal-order normalization on de Bruijn terms.

    ``fuel`` is a work budget (see :func:`whnf_debruijn`), so it also bounds
    how large the intermediate terms can grow before giving up.  Each weak
    head step leaves the head and the stuck spine unwound, and only they
    are normalized further, so a stuck spine is walked once.  It fails as
    :func:`whnf_debruijn` does: :class:`FuelExceededError` with "work budget
    exhausted", or with "reduction returns to a term it has passed: it
    never ends" under any budget when one weak head reduction comes back to
    a state it passed, or when, after a weak head step that contracted, it
    sets out to normalize a term equal to one it is still normalizing: the
    head or an argument of such a step.  Both repeat forever.  A divergence
    that repeats no term, one that keeps growing across weak head
    reductions, is left to the budget.
    """
    return _nf_db(term, _Normalizing(fuel))


# --------------------------------------------------------------------------
# alpha-equivalence
# --------------------------------------------------------------------------


def as_debruijn(term: object) -> DBTerm:
    """Canonicalize any term representation in this package to de Bruijn form.

    Scope-indexed terms go through the default ``x{raw}`` identifier scheme;
    open terms that must compare against surface terms should be converted
    by the caller with the appropriate inverse mapping instead.
    """
    if isinstance(term, DBTerm):
        return term
    if type(term) is FoilVar or type(term) in bridge.BY_TREE:
        term = bridge.from_foil_term(bridge.default_ident, term)
    if type(term) is naive.Var or type(term) in lambda_pi.BY_NAIVE:
        return to_debruijn(term)
    raise TypeError(f"no known term representation: {term!r}")


def alpha_eq(a: object, b: object) -> bool:
    """Alpha-equivalence across representations (structural equality of the
    canonical de Bruijn forms)."""
    return as_debruijn(a) == as_debruijn(b)
