"""Symbolic integral-term expressions attached to trees and woods.

Terms are built from two operator families: the plain processes ``I^0_j``
(j in {0, 1, 2, 1*, 2*}) and the multilinear integrals ``I^i_j[g_1,...,g_i]``
(i >= 1, j in {1, 2, 1*, 2*}).  A starred subscript marks a term that still
depends on the solution path and therefore admits the four-way expansion

    I^i_{k*}[gs] -> I^i_k[gs] + I^{i+1}_{k*}[I^0_0, gs]
                             + I^{i+1}_{k*}[I^0_{1*}, gs]
                             + I^{i+1}_{k*}[I^0_{2*}, gs]

(with the i = 0 case reading the same way).  Applying that rewrite at the
slot addressed by an active tree node reproduces exactly the term set of the
expanded wood, which is the identity the test suite checks term-by-term.

Sums are flat and canonically ordered; multilinear arguments are sorted,
reflecting the symmetry of the operators.  Canonical forms make equality of
term sets a structural comparison.

The sort key is the canonical rendering of :func:`render_compact`.  Every
``I0`` and ``In`` computes it once, at construction, from its arguments'
stored keys, and keeps it in the field ``key``; a ``TermSum``'s ``key``
renders the sum.  The rendering is injective, so terms compare and hash by
their keys alone: rendering, sorting, ``==`` and ``hash`` never walk a
subterm, and any depth works.
The tree-to-term maps read one table per tree, built in one pass from the
last node to the root: the term of every node's subtree and every node's
argument slot in its parent's term.  The table is a pure function of an
immutable tree, and :func:`psi`, :func:`phi_wood` and :func:`phi_with_slot`
meet the same trees again, so each tree keeps its table once built (in
``_table``, as it keeps its other derived data).  The bound lies with the
trees: the tree table of :mod:`.trees` keeps the last ``TREE_TABLE_SIZE``
trees built, and a table lives as long as its tree.  A table's terms skip
the checks of ``In(...)``, which a tree's maps satisfy by construction;
the public ``In(...)`` and :func:`integral` keep them.  The maps take any
depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Union

from .trees import ActiveNode, NodeLabel, STree, SWood

TermExpr = Union["I0", "In", "TermSum"]

#: Path into a term: summand index first (when the root is a sum), then one
#: argument index per multilinear layer.
TermPath = tuple[int, ...]


class TermErrorBase(Exception):
    pass


class NotStarredError(TermErrorBase):
    """The addressed subterm does not carry a starred subscript."""


class BadPathError(TermErrorBase):
    """A path does not address a subterm of the expression."""


# Only the key takes part in == and hash (see the module docstring).
@dataclass(frozen=True)
class I0:
    j: NodeLabel = field(compare=False)
    key: str = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", f"I^0_{self.j.value}")

    @property
    def is_starred(self) -> bool:
        return self.j.is_active


@dataclass(frozen=True)
class In:
    order: int = field(compare=False)
    j: NodeLabel = field(compare=False)
    args: tuple[TermExpr, ...] = field(compare=False)
    key: str = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("multilinear order must be >= 1")
        if self.j is NodeLabel.ZERO:
            raise ValueError("I^i_0 is not an operator for i >= 1")
        if len(self.args) != self.order:
            raise ValueError(
                f"I^{self.order}_{self.j} expects {self.order} arguments, "
                f"got {len(self.args)}"
            )
        inner = ",".join(render_compact(a) for a in self.args)
        object.__setattr__(self, "key", f"I^{self.order}_{self.j.value}[{inner}]")

    @property
    def is_starred(self) -> bool:
        return self.j.is_active


def _in(order: int, j: NodeLabel, args: tuple[TermExpr, ...]) -> In:
    """``In(order, j, args)`` without its checks, for the tree table, whose
    arguments are valid by construction; the key joins the arguments'
    stored keys."""
    term = object.__new__(In)
    term.__dict__.update(
        order=order, j=j, args=args,
        key=f"I^{order}_{j._value_}[{','.join([a.key for a in args])}]",
    )
    return term


@dataclass(frozen=True)
class TermSum:
    terms: tuple[TermExpr, ...]

    @property
    def key(self) -> str:
        """The sum's rendering: a nested sum sorts by it, as a term does."""
        return render_compact(self)


_by_key = attrgetter("key")


def integral(order: int, j: NodeLabel, args: tuple[TermExpr, ...] = ()) -> TermExpr:
    """Canonical operator constructor; sorts multilinear arguments."""
    if order == 0:
        if args:
            raise ValueError("I^0 takes no arguments")
        return I0(j)
    return In(order=order, j=j, args=tuple(sorted(args, key=_by_key)))


def term_sum(terms) -> TermExpr:
    """Flat, canonically ordered sum; singletons collapse to the bare term."""
    flat: list[TermExpr] = []
    for term in terms:
        if isinstance(term, TermSum):
            flat.extend(term.terms)
        else:
            flat.append(term)
    flat.sort(key=_by_key)
    if len(flat) == 1:
        return flat[0]
    return TermSum(terms=tuple(flat))


def summands(expr: TermExpr) -> tuple[TermExpr, ...]:
    if isinstance(expr, TermSum):
        return expr.terms
    return (expr,)


def render_compact(expr: TermExpr) -> str:
    """``I^0_j``, ``I^i_j[arg,...]``, and summands joined by `` + ``."""
    if isinstance(expr, TermSum):
        return " + ".join(render_compact(t) for t in expr.terms) or "0"
    return expr.key


def contains_starred(expr: TermExpr) -> bool:
    """Whether an operator of ``expr`` is starred; walks without recursion."""
    stack = [expr]
    while stack:
        term = stack.pop()
        if isinstance(term, TermSum):
            stack.extend(term.terms)
        elif term.is_starred:
            return True
        elif isinstance(term, In):
            stack.extend(term.args)
    return False


# --------------------------------------------------------------------------
# Tree -> term maps
# --------------------------------------------------------------------------


#: One shared ``I^0_k`` per label: most nodes are leaves.
_LEAVES = {label: I0(label) for label in NodeLabel}


_TreeTable = tuple[tuple[TermExpr, ...], tuple[int | None, ...]]


def _tree_table(tree: STree) -> _TreeTable:
    """The tree's table, built on first use and kept by the tree."""
    table = tree.__dict__.get("_table")
    if table is None:
        table = tree.__dict__["_table"] = _build_tree_table(tree)
    return table


def _build_tree_table(tree: STree) -> _TreeTable:
    """The term of every node's subtree and every node's argument slot.

    ``terms[j - 1]`` is the term of the subtree rooted at node ``j``: ``I^0_k``
    when its label k is 0 or it has no children, else ``I^i_k`` over the
    terms of its i children.  The arguments are sorted by key, stably, so
    equal siblings keep their id order (the order :func:`integral` gives);
    ``slots[j - 1]`` is node j's index among them, ``None`` for the root and
    for the children of a 0-labelled node, which do not surface.  Parents
    have smaller ids than their children, so one pass from the last node to
    the root finishes every child before its parent: any depth works.
    """
    labels, parents = tree.labels, tree.parents
    terms: list = [None] * len(labels)
    slots: list[int | None] = [None] * len(labels)
    children: dict[int, list[int]] = {}  # child ids, last child first
    for j in range(len(labels), 0, -1):
        label = labels[j - 1]
        below = children.pop(j, None)
        if label is NodeLabel.ZERO or below is None:
            terms[j - 1] = _LEAVES[label]
        else:
            below = sorted(reversed(below), key=lambda c: terms[c - 1].key)
            for slot, child in enumerate(below):
                slots[child - 1] = slot
            terms[j - 1] = _in(len(below), label, tuple([terms[c - 1] for c in below]))
        if j > 1:
            children.setdefault(parents[j - 2], []).append(j)
    return tuple(terms), tuple(slots)


def phi(tree: STree) -> TermExpr:
    """Term of one tree: ``I^0_k`` at the base, multilinear nesting above.

    The base case holds when the root label is 0 or the tree is a single
    node; otherwise the root label indexes the operator and the subtrees
    below the root supply the arguments.
    """
    return _tree_table(tree)[0][0]


def phi_wood(wood: SWood) -> TermExpr:
    return term_sum(phi(tree) for tree in wood.trees)


def psi(wood: SWood) -> TermExpr:
    """Computable part of the wood's term: active trees are dropped whole."""
    return term_sum(phi(tree) for tree in wood.trees if not tree.is_active)


def phi_with_slot(tree: STree, node: int) -> tuple[TermExpr, TermPath]:
    """Term of ``tree`` plus the path to the subterm owned by ``node``.

    Only nodes that actually surface in the term are addressable: a
    0-labelled node's term is ``I^0_0`` whatever lies below it, so the
    nodes under it have no slot.  Woods built by repeated expansion never
    hide active nodes that way (0-labelled nodes stay leaves there).
    """
    if not 1 <= node <= tree.length:
        raise BadPathError(f"node {node} outside tree of {tree.length} nodes")
    terms, slots = _tree_table(tree)
    path = []
    while node > 1:
        slot = slots[node - 1]
        if slot is None:
            raise BadPathError("nodes below a 0-labelled node have no term slot")
        path.append(slot)
        node = tree.parents[node - 2]
    path.reverse()
    return terms[0], tuple(path)


def wood_slot(wood: SWood, at: ActiveNode) -> TermPath:
    """Path inside ``phi_wood(wood)`` addressing the starred slot of ``at``."""
    return _slot_in(phi_wood(wood), wood, at)


def _slot_in(total: TermExpr, wood: SWood, at: ActiveNode) -> TermPath:
    """:func:`wood_slot` with the wood's term sum ``total`` supplied."""
    term, path = phi_with_slot(wood.tree(at.tree_index), at.node_index)
    if isinstance(total, TermSum):
        index = total.terms.index(term)
        return (index,) + path
    return path


# --------------------------------------------------------------------------
# Rewrite
# --------------------------------------------------------------------------


#: The first arguments of the grown terms: I^0_0, I^0_{1*} and I^0_{2*}.
_SEEDS = (I0(NodeLabel.ZERO), I0(NodeLabel.ONE_STAR), I0(NodeLabel.TWO_STAR))


def expansion_of(term: TermExpr) -> tuple[TermExpr, ...]:
    """The four-term replacement of a starred operator; ``I^0_j`` reads as
    order 0 with no arguments."""
    if isinstance(term, TermSum):
        raise NotStarredError("a sum cannot be expanded; address one of its terms")
    if not term.is_starred:
        raise NotStarredError(f"{render_compact(term)} is not starred")
    order, args = (0, ()) if isinstance(term, I0) else (term.order, term.args)
    destarred = integral(order, term.j.destarred(), args)
    return (destarred,) + tuple(
        integral(order + 1, term.j, (seed,) + args) for seed in _SEEDS
    )


def _rewrite_term(term: TermExpr, path: TermPath) -> tuple[TermExpr, ...]:
    if not path:
        return expansion_of(term)
    if not isinstance(term, In):
        raise BadPathError(f"path descends into {render_compact(term)}")
    index = path[0]
    if not 0 <= index < term.order:
        raise BadPathError(f"argument index {index} out of range")
    replacements = _rewrite_term(term.args[index], path[1:])
    out = []
    for rep in replacements:
        args = term.args[:index] + (rep,) + term.args[index + 1 :]
        out.append(integral(term.order, term.j, args))
    return tuple(out)


def rewrite_expand(expr: TermExpr, path: TermPath) -> TermExpr:
    """Expand the starred subterm at ``path``; multilinearity keeps sums flat.

    The addressed subterm is replaced by its four-term expansion; every
    enclosing multilinear layer distributes over the replacement, so one
    summand of the input becomes four summands of the canonical output.
    """
    if isinstance(expr, TermSum):
        if not path:
            raise NotStarredError("a sum cannot be expanded; address one of its terms")
        index = path[0]
        if not 0 <= index < len(expr.terms):
            raise BadPathError(f"summand index {index} out of range")
        replaced = _rewrite_term(expr.terms[index], path[1:])
        return term_sum(expr.terms[:index] + replaced + expr.terms[index + 1 :])
    return term_sum(_rewrite_term(expr, path))


def expansion_matches_rewrite(wood: SWood, at: ActiveNode, expanded: SWood) -> bool:
    """Term-level identity check: expanding the wood and rewriting its term
    set at the corresponding slot must produce the same canonical sum."""
    total = phi_wood(wood)
    return phi_wood(expanded) == rewrite_expand(total, _slot_in(total, wood, at))


__all__ = [
    "TermExpr",
    "TermPath",
    "I0",
    "In",
    "TermSum",
    "NotStarredError",
    "BadPathError",
    "integral",
    "term_sum",
    "summands",
    "render_compact",
    "contains_starred",
    "phi",
    "phi_wood",
    "psi",
    "phi_with_slot",
    "wood_slot",
    "expansion_of",
    "rewrite_expand",
    "expansion_matches_rewrite",
]
