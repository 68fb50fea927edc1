"""Boolean expression AST over events, propositions and scoreboard checks.

The paper defines monitor transition guards as "logical expressions
formed over EVENTS and PROP using logical connectives AND, OR and NOT
with their standard meaning", extended with ``Chk_evt(e)`` guards that
consult the dynamic scoreboard.  This module provides that expression
language as an immutable, hashable AST.

Expressions evaluate against a :class:`~repro.logic.valuation.Valuation`
(an assignment of truth values to event and proposition symbols) and,
optionally, a scoreboard object exposing ``contains(event) -> bool`` for
``Chk_evt`` atoms.

Design notes
------------
* ``And``/``Or`` are n-ary with a flattened, deduplicated, *ordered*
  argument tuple so that structurally equal guards compare and hash
  equal — the synthesis code relies on this when grouping transitions.
* Expressions are immutable; all rewriting helpers return new nodes.
* The kind of a symbol (event vs proposition) is carried by the atom
  class (:class:`EventRef` / :class:`PropRef`), mirroring the paper's
  ``f1 : PROP -> Bool`` / ``f2 : EVENTS -> Bool`` split.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, Tuple

from repro.errors import ExprError
from repro.slots import SlotPickle

__all__ = [
    "Expr",
    "Const",
    "TRUE",
    "FALSE",
    "EventRef",
    "PropRef",
    "ScoreboardCheck",
    "Not",
    "And",
    "Or",
    "all_of",
    "any_of",
    "symbols_of",
    "event_symbols_of",
    "prop_symbols_of",
    "scoreboard_checks_of",
]


class Expr(SlotPickle):
    """Base class for Boolean expressions.

    Subclasses are immutable and hashable.  The public operations are:

    * :meth:`evaluate` — truth value under a valuation (+ scoreboard);
    * :meth:`atoms` — the set of atomic sub-expressions;
    * operator overloads ``&``, ``|``, ``~`` building new expressions.
    """

    __slots__ = ()

    def evaluate(self, valuation, scoreboard=None) -> bool:
        """Return the truth value of this expression.

        ``valuation`` may be a :class:`~repro.logic.valuation.Valuation`
        or any object with ``is_true(symbol) -> bool``.  ``scoreboard``
        must expose ``contains(event) -> bool`` when the expression
        contains :class:`ScoreboardCheck` atoms.
        """
        raise NotImplementedError

    def atoms(self) -> FrozenSet["Expr"]:
        """Return the atomic sub-expressions (refs, checks, consts)."""
        raise NotImplementedError

    def children(self) -> Tuple["Expr", ...]:
        """Return direct sub-expressions (empty for atoms)."""
        return ()

    # -- operator sugar -------------------------------------------------
    def __and__(self, other: "Expr") -> "Expr":
        return And((self, other))

    def __or__(self, other: "Expr") -> "Expr":
        return Or((self, other))

    def __invert__(self) -> "Expr":
        return Not(self)

    # -- lowering -------------------------------------------------------
    def compile(self, codec):
        """Lower this guard to a closure ``(mask, scoreboard) -> bool``.

        ``codec`` fixes the symbol ordering (any object with a
        ``bit_of: symbol -> bit`` mapping, typically an
        :class:`~repro.logic.codec.AlphabetCodec`); ``mask`` is the
        input valuation encoded under that ordering.  Symbols absent
        from the codec read false, mirroring :meth:`evaluate` against a
        restricted valuation.  ``Chk_evt`` atoms consult the scoreboard
        argument at call time, so one compiled guard serves every
        scoreboard state.
        """
        raise NotImplementedError

    # -- rewriting ------------------------------------------------------
    def simplify(self) -> "Expr":
        """Return a lightly simplified equivalent expression.

        Performs constant folding, involution (``~~x -> x``), unit and
        absorption laws, and complementary-literal collapse inside a
        single ``And``/``Or``.  It is *not* a full minimiser — see
        :mod:`repro.logic.qm` for two-level minimisation.
        """
        return self

    def nnf(self) -> "Expr":
        """Return an equivalent expression in negation normal form."""
        return self

    def negate_nnf(self) -> "Expr":
        """Return the negation of this expression, in NNF."""
        return Not(self).nnf()


class Const(Expr):
    """Boolean constant (``TRUE`` / ``FALSE``)."""

    __slots__ = ("value",)

    def __init__(self, value: bool):
        object.__setattr__(self, "value", bool(value))

    def __setattr__(self, name, value):
        raise AttributeError("Const is immutable")

    def evaluate(self, valuation, scoreboard=None) -> bool:
        return self.value

    def atoms(self) -> FrozenSet[Expr]:
        return frozenset()

    def compile(self, codec):
        value = self.value
        return lambda mask, scoreboard=None: value

    def simplify(self) -> Expr:
        return TRUE if self.value else FALSE

    def nnf(self) -> Expr:
        return self.simplify()

    def __reduce__(self):
        return (type(self), (self.value,))

    def __eq__(self, other):
        return isinstance(other, Const) and self.value == other.value

    def __hash__(self):
        return hash(("Const", self.value))

    def __repr__(self):
        return "TRUE" if self.value else "FALSE"


TRUE = Const(True)
FALSE = Const(False)


class _Ref(Expr):
    """Common base for named atoms (events and propositions)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name or not isinstance(name, str):
            raise ExprError(f"atom name must be a non-empty string, got {name!r}")
        object.__setattr__(self, "name", name)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def evaluate(self, valuation, scoreboard=None) -> bool:
        return bool(valuation.is_true(self.name))

    def compile(self, codec):
        bit = codec.bit_of.get(self.name)
        if bit is None:
            # Outside the restricted alphabet: always reads false.
            return lambda mask, scoreboard=None: False
        return lambda mask, scoreboard=None: bool(mask & bit)

    def atoms(self) -> FrozenSet[Expr]:
        return frozenset({self})

    def __reduce__(self):
        return (type(self), (self.name,))

    def __eq__(self, other):
        return type(self) is type(other) and self.name == other.name

    def __hash__(self):
        return hash((type(self).__name__, self.name))

    def __repr__(self):
        return self.name


class EventRef(_Ref):
    """Reference to an event symbol (``f2 : EVENTS -> Bool``)."""

    __slots__ = ()


class PropRef(_Ref):
    """Reference to a proposition symbol (``f1 : PROP -> Bool``)."""

    __slots__ = ()


class ScoreboardCheck(Expr):
    """``Chk_evt(e)`` — true iff the scoreboard currently records ``e``.

    The paper's causality checks attach these atoms to guards of
    transitions that depend on a causally-downstream event; they are
    evaluated against the dynamic scoreboard rather than the input
    valuation.
    """

    __slots__ = ("event",)

    def __init__(self, event: str):
        if not event or not isinstance(event, str):
            raise ExprError(f"Chk_evt needs an event name, got {event!r}")
        object.__setattr__(self, "event", event)

    def __setattr__(self, name, value):
        raise AttributeError("ScoreboardCheck is immutable")

    def evaluate(self, valuation, scoreboard=None) -> bool:
        if scoreboard is None:
            raise ExprError(
                f"Chk_evt({self.event}) requires a scoreboard to evaluate"
            )
        return bool(scoreboard.contains(self.event))

    def compile(self, codec):
        event = self.event

        def check(mask, scoreboard=None):
            if scoreboard is None:
                raise ExprError(
                    f"Chk_evt({event}) requires a scoreboard to evaluate"
                )
            return bool(scoreboard.contains(event))

        return check

    def atoms(self) -> FrozenSet[Expr]:
        return frozenset({self})

    def __reduce__(self):
        return (type(self), (self.event,))

    def __eq__(self, other):
        return isinstance(other, ScoreboardCheck) and self.event == other.event

    def __hash__(self):
        return hash(("Chk_evt", self.event))

    def __repr__(self):
        return f"Chk_evt({self.event})"


class Not(Expr):
    """Logical negation."""

    __slots__ = ("operand",)

    def __init__(self, operand: Expr):
        if not isinstance(operand, Expr):
            raise ExprError(f"Not operand must be an Expr, got {operand!r}")
        object.__setattr__(self, "operand", operand)

    def __setattr__(self, name, value):
        raise AttributeError("Not is immutable")

    def evaluate(self, valuation, scoreboard=None) -> bool:
        return not self.operand.evaluate(valuation, scoreboard)

    def compile(self, codec):
        inner = self.operand.compile(codec)
        return lambda mask, scoreboard=None: not inner(mask, scoreboard)

    def atoms(self) -> FrozenSet[Expr]:
        return self.operand.atoms()

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def simplify(self) -> Expr:
        inner = self.operand.simplify()
        if isinstance(inner, Const):
            return FALSE if inner.value else TRUE
        if isinstance(inner, Not):
            return inner.operand.simplify()
        return Not(inner)

    def nnf(self) -> Expr:
        inner = self.operand
        if isinstance(inner, Const):
            return FALSE if inner.value else TRUE
        if isinstance(inner, Not):
            return inner.operand.nnf()
        if isinstance(inner, And):
            return Or(tuple(Not(a).nnf() for a in inner.args))
        if isinstance(inner, Or):
            return And(tuple(Not(a).nnf() for a in inner.args))
        return self

    def __reduce__(self):
        return (type(self), (self.operand,))

    def __eq__(self, other):
        return isinstance(other, Not) and self.operand == other.operand

    def __hash__(self):
        return hash(("Not", self.operand))

    def __repr__(self):
        if isinstance(self.operand, (And, Or)):
            return f"!({self.operand!r})"
        return f"!{self.operand!r}"


def _flatten(cls, args: Iterable[Expr]) -> Tuple[Expr, ...]:
    """Flatten nested same-class n-ary nodes and deduplicate in order."""
    out = []
    seen = set()
    for arg in args:
        if not isinstance(arg, Expr):
            raise ExprError(f"connective argument must be an Expr, got {arg!r}")
        parts = arg.args if isinstance(arg, cls) else (arg,)
        for part in parts:
            if part not in seen:
                seen.add(part)
                out.append(part)
    return tuple(out)


class _Nary(Expr):
    """Common base for ``And`` / ``Or``."""

    __slots__ = ("args",)
    _identity: Const
    _dominator: Const
    _symbol: str

    def __init__(self, args: Iterable[Expr]):
        flat = _flatten(type(self), args)
        object.__setattr__(self, "args", flat)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def atoms(self) -> FrozenSet[Expr]:
        result: FrozenSet[Expr] = frozenset()
        for arg in self.args:
            result |= arg.atoms()
        return result

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def simplify(self) -> Expr:
        cls = type(self)
        parts = []
        seen = set()
        for arg in self.args:
            simp = arg.simplify()
            if simp == self._dominator:
                return self._dominator
            if simp == self._identity:
                continue
            inner = simp.args if isinstance(simp, cls) else (simp,)
            for part in inner:
                if part in seen:
                    continue
                seen.add(part)
                parts.append(part)
        for part in parts:
            complement = part.operand if isinstance(part, Not) else Not(part)
            if complement in seen:
                return self._dominator
        if not parts:
            return self._identity
        if len(parts) == 1:
            return parts[0]
        return cls(tuple(parts))

    def nnf(self) -> Expr:
        return type(self)(tuple(a.nnf() for a in self.args))

    def __reduce__(self):
        return (type(self), (self.args,))

    def __eq__(self, other):
        return type(self) is type(other) and self.args == other.args

    def __hash__(self):
        return hash((type(self).__name__, self.args))

    def __repr__(self):
        if not self.args:
            return repr(self._identity)
        rendered = []
        for arg in self.args:
            text = repr(arg)
            if isinstance(arg, _Nary) and type(arg) is not type(self):
                text = f"({text})"
            rendered.append(text)
        return f" {self._symbol} ".join(rendered)


class And(_Nary):
    """N-ary conjunction (``a & b & ...``)."""

    __slots__ = ()
    _identity = TRUE
    _dominator = FALSE
    _symbol = "&"

    def evaluate(self, valuation, scoreboard=None) -> bool:
        return all(arg.evaluate(valuation, scoreboard) for arg in self.args)

    def compile(self, codec):
        fns = tuple(arg.compile(codec) for arg in self.args)
        if not fns:
            return lambda mask, scoreboard=None: True
        if len(fns) == 1:
            return fns[0]
        return lambda mask, scoreboard=None: all(
            fn(mask, scoreboard) for fn in fns
        )


class Or(_Nary):
    """N-ary disjunction (``a | b | ...``)."""

    __slots__ = ()
    _identity = FALSE
    _dominator = TRUE
    _symbol = "|"

    def evaluate(self, valuation, scoreboard=None) -> bool:
        return any(arg.evaluate(valuation, scoreboard) for arg in self.args)

    def compile(self, codec):
        fns = tuple(arg.compile(codec) for arg in self.args)
        if not fns:
            return lambda mask, scoreboard=None: False
        if len(fns) == 1:
            return fns[0]
        return lambda mask, scoreboard=None: any(
            fn(mask, scoreboard) for fn in fns
        )


def all_of(exprs: Iterable[Expr]) -> Expr:
    """Conjunction of ``exprs`` (``TRUE`` when empty), simplified."""
    return And(tuple(exprs)).simplify()


def any_of(exprs: Iterable[Expr]) -> Expr:
    """Disjunction of ``exprs`` (``FALSE`` when empty), simplified."""
    return Or(tuple(exprs)).simplify()


def _walk(expr: Expr) -> Iterator[Expr]:
    yield expr
    for child in expr.children():
        yield from _walk(child)


def symbols_of(expr: Expr) -> FrozenSet[str]:
    """All event and proposition symbol names referenced by ``expr``.

    ``Chk_evt`` atoms are *not* included: they read the scoreboard, not
    the input valuation, so they do not enlarge the input alphabet.
    """
    return frozenset(
        node.name for node in _walk(expr) if isinstance(node, _Ref)
    )


def event_symbols_of(expr: Expr) -> FrozenSet[str]:
    """Event symbol names referenced by ``expr``."""
    return frozenset(
        node.name for node in _walk(expr) if isinstance(node, EventRef)
    )


def prop_symbols_of(expr: Expr) -> FrozenSet[str]:
    """Proposition symbol names referenced by ``expr``."""
    return frozenset(
        node.name for node in _walk(expr) if isinstance(node, PropRef)
    )


def scoreboard_checks_of(expr: Expr) -> FrozenSet[str]:
    """Event names appearing under ``Chk_evt`` atoms in ``expr``."""
    return frozenset(
        node.event for node in _walk(expr) if isinstance(node, ScoreboardCheck)
    )
