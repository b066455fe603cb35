"""Rooted labelled trees and woods driving the expansion calculus.

A tree is a pair of maps: ``parent`` sending each node ``j >= 2`` to a node
``parent(j) < j``, and ``label`` sending every node to one of the five tags
``0, 1, 2, 1*, 2*``.  Woods are ordered tuples of trees.  The starred tags
mark *active* nodes, the sites where the one-step expansion operator may be
applied: expanding a wood at an active node destars that node in place and
appends three copies of its tree, each with one extra child (labelled 0, 1*
and 2* respectively) attached below the expanded node.

Everything here is an immutable value; all operations are pure functions.
Expanding a wood keeps meeting trees it has just built, so every tree built
here (by :meth:`STree.single`, :meth:`STree.with_label`,
:meth:`STree.with_appended_child`, :func:`expand` or :func:`parse`) comes
from one table keyed by (labels, parents) that keeps the last
``TREE_TABLE_SIZE`` trees built: among them, equal trees are one object.
A tree makes the data derived from it on first use and keeps them (see
:class:`STree`), so a recurring tree derives them once, and a wood keeps its
active (tree, node) pairs (see :class:`SWood`).  :func:`expand` hands both
forward rather than have them derived again: the new wood gets its pairs
from the old wood's, and each new tree gets its starred node ids from the
expanded tree's.
"""

from __future__ import annotations

import enum
import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple

import numpy as _np


class NodeLabel(enum.Enum):
    ZERO = "0"
    ONE = "1"
    TWO = "2"
    ONE_STAR = "1*"
    TWO_STAR = "2*"

    def __init__(self, text: str) -> None:
        # A plain member attribute, not a property: the tree queries read
        # it once per node.
        self.is_active = text.endswith("*")

    # Identity hash: enum's own __hash__ is a Python-level call.
    __hash__ = object.__hash__

    def destarred(self) -> "NodeLabel":
        if self is NodeLabel.ONE_STAR:
            return NodeLabel.ONE
        if self is NodeLabel.TWO_STAR:
            return NodeLabel.TWO
        raise ValueError(f"label {self.value} carries no star")

    def __str__(self) -> str:
        return self._value_


LABELS_BY_TEXT = {label.value: label for label in NodeLabel}


class TreeError(Exception):
    """Base class for tree-algebra failures."""


class NotActiveError(TreeError):
    """Raised when an expansion targets a node that is not starred."""


class OutOfRangeError(TreeError):
    """Raised when a (tree, node) pair does not index into the wood."""


class NoActiveTreeError(TreeError):
    """Raised when a wood order is requested but no tree is active."""


class ParseError(TreeError):
    """Wood text could not be parsed; carries position and expectation."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class _cached:
    """``functools.cached_property`` without its lock (Python 3.11): the
    value computed on first access goes into the instance dict, which later
    lookups read before this non-data descriptor."""

    def __init__(self, compute):
        self.compute, self.name = compute, compute.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


@dataclass(frozen=True)
class STree:
    """Rooted tree with 1-based node ids.

    ``labels[k]`` is the label of node ``k + 1``; ``parents[k]`` is the
    parent of node ``k + 2``.  Node 1 is always the root.  Construction does
    not validate the parent map (so that :func:`validate` has something to
    diagnose); every other operation assumes a valid tree.

    The trees this module builds come from the tree table, so there is one
    live tree per (labels, parents) among the last ``TREE_TABLE_SIZE``
    built, and ``==`` tests identity first.  A tree made directly with
    ``STree(labels, parents)`` stays outside the table; it equals, hashes
    and derives as the table's tree does.  The hash, the starred node ids,
    the text (:func:`serialize_tree`), the order triple (:func:`order_wood`)
    and the term table of :mod:`.terms` are computed on first use and
    stored in the instance ``__dict__``: ``_hash``, ``_active``, ``_text``
    and ``_triple`` by a lock-free non-data descriptor here, ``_table`` by
    :mod:`.terms`.  Later reads are plain attribute or dict hits; pickling
    drops them.  :func:`expand` gives each tree it builds its ``_active``
    from the expanded tree's, unless the table's tree already has it.
    """

    labels: tuple[NodeLabel, ...]
    parents: tuple[int, ...] = ()

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not STree:
            return NotImplemented
        return self.labels == other.labels and self.parents == other.parents

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return STree, (self.labels, self.parents)

    @_cached
    def _hash(self) -> int:
        return hash((self.labels, self.parents))

    @_cached
    def _active(self) -> tuple[int, ...]:
        """Ids of the starred nodes, increasing."""
        return tuple(j for j, label in enumerate(self.labels, start=1) if label.is_active)

    @_cached
    def _text(self) -> str:
        return _tree_text(self)

    @_cached
    def _triple(self) -> "OrderTriple":
        return _order_triple(self)

    @staticmethod
    def single(label: NodeLabel) -> "STree":
        return _interned((label,), ())

    @property
    def length(self) -> int:
        return len(self.labels)

    def label_of(self, node: int) -> NodeLabel:
        return self.labels[node - 1]

    def children_of(self, node: int) -> tuple[int, ...]:
        return tuple(j for j, p in enumerate(self.parents, start=2) if p == node)

    @property
    def is_active(self) -> bool:
        return bool(self._active)

    def with_label(self, node: int, label: NodeLabel) -> "STree":
        labels = list(self.labels)
        labels[node - 1] = label
        return _interned(tuple(labels), self.parents)

    def with_appended_child(self, parent: int, label: NodeLabel) -> "STree":
        """Tree with one extra node (id length+1) hanging below ``parent``."""
        return _interned(self.labels + (label,), self.parents + (parent,))


#: Trees the table keeps: the trees of the last thirty or so depth-10
#: woods, few enough that a long run over distinct woods does not keep
#: every tree it built, with its derived data.
TREE_TABLE_SIZE = 1024


@lru_cache(maxsize=TREE_TABLE_SIZE)
def _interned(labels: tuple[NodeLabel, ...], parents: tuple[int, ...]) -> STree:
    """The tree table: the table's tree of these maps, built on a miss."""
    return STree(labels, parents)


@dataclass(frozen=True)
class SWood:
    """Ordered tuple of trees.

    A wood keeps its active pairs, :func:`active_nodes`, in ``_active_nodes``:
    a wood from :func:`parse` or ``SWood(...)`` walks its trees for them on
    first use, and :func:`expand` gives the wood it builds its pairs from
    the expanded wood's.  Pickling drops them.
    """

    trees: tuple[STree, ...]

    def __post_init__(self) -> None:
        if not self.trees:
            raise ValueError("a wood holds at least one tree")

    def __reduce__(self):
        return SWood, (self.trees,)

    @_cached
    def _active_nodes(self) -> "tuple[ActiveNode, ...]":
        # tuple.__new__ skips the named tuple's Python-level constructor.
        new = tuple.__new__
        return tuple([
            new(ActiveNode, (i, j))
            for i, tree in enumerate(self.trees, start=1)
            for j in tree._active
        ])

    @property
    def length(self) -> int:
        return len(self.trees)

    def tree(self, index: int) -> STree:
        """1-based access, matching the active-node indexing convention."""
        return self.trees[index - 1]


class ActiveNode(NamedTuple):
    tree_index: int
    node_index: int


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    message: str = ""

    def __bool__(self) -> bool:
        return self.ok


def initial_wood() -> SWood:
    """The three-tree seed wood with root labels 0, 1*, 2*."""
    return SWood(
        trees=(
            STree.single(NodeLabel.ZERO),
            STree.single(NodeLabel.ONE_STAR),
            STree.single(NodeLabel.TWO_STAR),
        )
    )


def validate(tree: STree) -> ValidationResult:
    """Check the parent/label maps; the message names the first violation."""
    n = tree.length
    if n < 1:
        return ValidationResult(False, "tree has no nodes")
    if len(tree.parents) != n - 1:
        return ValidationResult(
            False,
            f"parent map covers {len(tree.parents)} nodes, expected {n - 1}",
        )
    for j in range(2, n + 1):
        p = tree.parents[j - 2]
        if not 1 <= p <= n:
            return ValidationResult(False, f"parent({j}) = {p} is not a node")
        if p >= j:
            return ValidationResult(False, f"parent(j) < j violated at j={j}")
    return ValidationResult(True)


def active_nodes(wood: SWood) -> tuple[ActiveNode, ...]:
    """All starred (tree, node) pairs in lexicographic order, which the wood
    keeps."""
    return wood._active_nodes


def expand(wood: SWood, at: ActiveNode) -> SWood:
    """Apply the one-step expansion at an active node.

    The targeted tree is replaced in place by its destarred form and three
    modified copies of the original tree are appended, each with a new node
    (labelled 0, 1*, 2* in order) attached as a child of the expanded node.
    The result has three more trees than the input; the input is unchanged.

    The new trees get their starred ids from the expanded tree's, and the
    new wood gets its active pairs from the input's: the pair ``(i, j)``
    goes, the destarred tree keeps index i, and the pairs of the appended
    trees come last, so the pairs stay in lexicographic order.
    """
    i, j = at
    n = wood.length
    if not 1 <= i <= n:
        raise OutOfRangeError(f"tree index {i} outside wood of {n} trees")
    tree = wood.tree(i)
    if not 1 <= j <= tree.length:
        raise OutOfRangeError(f"node index {j} outside tree of {tree.length} nodes")
    label = tree.label_of(j)
    if not label.is_active:
        raise NotActiveError(f"node ({i},{j}) carries label {label}, not 1* or 2*")
    relabelled = tree.with_label(j, label.destarred())
    appended = tuple(
        tree.with_appended_child(j, new_label)
        for new_label in (NodeLabel.ZERO, NodeLabel.ONE_STAR, NodeLabel.TWO_STAR)
    )
    # setdefault: a tree the table already held keeps what it has.
    active = tree._active
    relabelled.__dict__.setdefault("_active", tuple([k for k in active if k != j]))
    grown = active + (tree.length + 1,)
    pairs = list(active_nodes(wood))
    del pairs[bisect_left(pairs, (i, j))]
    new = tuple.__new__  # skips the named tuple's Python-level constructor
    for index, (copy, starred) in enumerate(zip(appended, (active, grown, grown)), start=n + 1):
        starred = copy.__dict__.setdefault("_active", starred)
        pairs += [new(ActiveNode, (index, k)) for k in starred]
    result = SWood(trees=wood.trees[: i - 1] + (relabelled,) + wood.trees[i:] + appended)
    result.__dict__["_active_nodes"] = tuple(pairs)
    return result


# --------------------------------------------------------------------------
# Order functional
# --------------------------------------------------------------------------

#: A linear form n1*1 + n0*gamma + n2*delta as integer counts.
OrderTriple = tuple[int, int, int]

ROOT_ZERO_TRIPLE: OrderTriple = (0, 1, 0)


@dataclass(frozen=True)
class OrderValue:
    """Order of one tree, kept symbolic as label counts.

    When the root carries label 0 the order is gamma regardless of the other
    nodes; otherwise it is n1 + n0*gamma + n2*delta.
    """

    n1: int
    n0: int
    n2: int
    root_is_zero: bool

    @property
    def triple(self) -> OrderTriple:
        if self.root_is_zero:
            return ROOT_ZERO_TRIPLE
        return (self.n1, self.n0, self.n2)

    def evaluate(self, gamma: float, delta: float) -> float:
        _check_exponents(gamma, delta)
        return _triple_value(self.triple, gamma, delta)


def _check_exponents(gamma: float, delta: float) -> None:
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    if not 0.0 < delta <= 0.5:
        raise ValueError(f"delta must lie in (0, 1/2], got {delta}")


def order_tree(tree: STree) -> OrderValue:
    """The label counts of the tree's triple, which the tree keeps."""
    if tree.labels[0] is NodeLabel.ZERO:
        return OrderValue(0, 0, 0, root_is_zero=True)
    return OrderValue(*tree._triple, root_is_zero=False)


def _order_triple(tree: STree) -> OrderTriple:
    """The label counts: drift labels (1, 1*) weigh 1, 0 weighs gamma and
    diffusion labels (2, 2*) weigh delta; a 0 root makes the order gamma."""
    labels = tree.labels
    if labels[0] is NodeLabel.ZERO:
        return ROOT_ZERO_TRIPLE
    count = labels.count
    n1 = count(NodeLabel.ONE) + count(NodeLabel.ONE_STAR)
    n2 = count(NodeLabel.TWO) + count(NodeLabel.TWO_STAR)
    return (n1, count(NodeLabel.ZERO), n2)


def _triple_value(triple: OrderTriple, gamma, delta):
    """The linear form n1 + n0*gamma + n2*delta (scalars or arrays)."""
    n1, n0, n2 = triple
    return n1 + n0 * gamma + n2 * delta


# Probe grid over 0 < gamma < 1, 0 < delta <= 1/2.  All coordinates are
# binary fractions, so float evaluation of the integer-count linear forms is
# exact and min-comparisons are reliable.
_PROBE_GAMMA, _PROBE_DELTA = (
    arr.ravel()
    for arr in _np.meshgrid(
        _np.arange(1, 32) / 32.0, _np.arange(1, 33) / 64.0, indexing="ij"
    )
)


def _prune_triples(triples: frozenset[OrderTriple]) -> frozenset[OrderTriple]:
    """Drop candidates that are nowhere strictly below the min of the rest."""
    kept = sorted(triples)
    values = _np.array([_triple_value(t, _PROBE_GAMMA, _PROBE_DELTA) for t in kept])
    keep_mask = [True] * len(kept)
    for index in range(len(kept)):
        if sum(keep_mask) == 1:
            break
        others = [
            k for k in range(len(kept)) if keep_mask[k] and k != index
        ]
        if _np.all(values[others].min(axis=0) <= values[index]):
            keep_mask[index] = False
    return frozenset(t for t, keep in zip(kept, keep_mask) if keep)


def _render_triple(triple: OrderTriple) -> str:
    n1, n0, n2 = triple
    parts = []
    if n1:
        parts.append(str(n1))
    if n0:
        parts.append("γ" if n0 == 1 else f"{n0}γ")
    if n2:
        parts.append("δ" if n2 == 1 else f"{n2}δ")
    return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class WoodOrder:
    """Order of a wood: the pointwise minimum over its active trees.

    ``candidates`` keeps one linear form per active tree; ``minimal``
    is the same set with forms that can never attain the minimum removed,
    which is the canonical object for symbolic comparisons.
    """

    candidates: tuple[tuple[int, OrderTriple], ...]  # (tree index, form)

    @property
    def minimal(self) -> frozenset[OrderTriple]:
        return _prune_triples(frozenset(t for _, t in self.candidates))

    def evaluate(self, gamma: float, delta: float) -> float:
        _check_exponents(gamma, delta)
        return min(_triple_value(t, gamma, delta) for _, t in self.candidates)

    def argmin_tree(self, gamma: float, delta: float) -> int:
        """1-based index of the first active tree attaining the minimum."""
        _check_exponents(gamma, delta)
        best = self.evaluate(gamma, delta)
        for index, triple in self.candidates:
            if _triple_value(triple, gamma, delta) == best:
                return index
        raise AssertionError("minimum not attained by any candidate")

    def symbolic(self) -> str:
        forms = sorted(self.minimal)
        if len(forms) == 1:
            return _render_triple(forms[0])
        common = tuple(min(f[k] for f in forms) for k in range(3))
        rest = [tuple(f[k] - common[k] for k in range(3)) for f in forms]
        inner = ", ".join(sorted(_render_triple(r) for r in rest))
        if any(common):
            return f"{_render_triple(common)} + min({inner})"
        return f"min({inner})"


def order_wood(wood: SWood) -> WoodOrder:
    """One candidate per active tree: its triple, which the tree keeps."""
    candidates = tuple(
        (i, tree._triple)
        for i, tree in enumerate(wood.trees, start=1)
        if tree.is_active
    )
    if not candidates:
        raise NoActiveTreeError("wood has no active tree; its order is undefined")
    return WoodOrder(candidates=candidates)


# --------------------------------------------------------------------------
# Text format
# --------------------------------------------------------------------------
#
# Wood text: trees separated by ';', each tree a parenthesised walk where a
# node is its label optionally followed by '[child,child,...]'.  Example:
# (0);(1*);(2);(2*[0]);(2*[1*]);(2*[2*]).  Parsing assigns node ids in
# preorder, so serialize . parse canonicalises the numbering; all woods
# reachable in the worked examples are already in that canonical form.
#
# Tokens are '1*', '2*' and every other single non-whitespace character;
# whitespace may separate tokens.  A starred label is one token, so '1 *'
# is the label 1 and a stray '*', an error.  Parse and serialize are
# iterative, so any nesting depth works.  Parse errors name the expected
# token and the one found, with its line and column.


def serialize_tree(tree: STree) -> str:
    """The tree's text, which the tree keeps once made."""
    return tree._text


def _tree_text(tree: STree) -> str:
    # Parents have smaller ids than their children, so one pass from the
    # last node to the root finishes every subtree's text before its
    # parent's; ``inner`` collects child texts, last child first.  A text
    # is held only until its parent's is built: memory linear in the size.
    labels = [label._value_ for label in tree.labels]
    parents = tree.parents
    inner: dict[int, list[str]] = {}
    for j in range(len(labels), 0, -1):
        text = labels.pop()
        children = inner.pop(j, None)
        if children:
            children.reverse()
            text += "[" + ",".join(children) + "]"
        if j > 1:
            inner.setdefault(parents[j - 2], []).append(text)
    return "(" + text + ")"


def serialize(wood: SWood) -> str:
    return ";".join(serialize_tree(t) for t in wood.trees)


_TOKEN = re.compile(r"1\*|2\*|\S")


def _parse_error(text: str, index: int, expected: str) -> ParseError:
    """The error at token ``index`` of ``text`` (the end when past the last)."""
    tokens = list(_TOKEN.finditer(text))
    if index < len(tokens):
        # A starred label is reported by its first character.
        pos, found = tokens[index].start(), tokens[index].group()[0]
    else:
        pos, found = len(text), "end of input"
    line = text.count("\n", 0, pos) + 1
    column = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return ParseError(f"expected {expected}, found {found!r}", line, column)


def parse(text: str) -> SWood:
    """Parse wood text; raises :class:`ParseError` with position info."""
    tokens = _TOKEN.findall(text)
    tokens.append("")  # end of input
    trees = []
    i = 0
    while True:
        if tokens[i] != "(":
            raise _parse_error(text, i, "'('")
        i += 1
        labels: list[NodeLabel] = []
        parents: list[int] = []
        open_nodes: list[int] = []  # nodes whose child list is open
        while True:
            label = LABELS_BY_TEXT.get(tokens[i])
            if label is None:
                raise _parse_error(text, i, "a label in {0,1,2,1*,2*}")
            labels.append(label)
            if open_nodes:
                parents.append(open_nodes[-1])
            i += 1
            if tokens[i] == "[":
                open_nodes.append(len(labels))
                i += 1
                continue
            while open_nodes:
                if tokens[i] == ",":
                    i += 1
                    break
                if tokens[i] != "]":
                    raise _parse_error(text, i, "']'")
                open_nodes.pop()
                i += 1
            else:  # no list left open: the root node is complete
                break
        if tokens[i] != ")":
            raise _parse_error(text, i, "')'")
        trees.append(_interned(tuple(labels), tuple(parents)))
        i += 1
        if not tokens[i]:
            return SWood(trees=tuple(trees))
        if tokens[i] != ";":
            raise _parse_error(text, i, "';'")
        i += 1


def reachable_woods(depth: int) -> Iterator[SWood]:
    """Every wood obtainable from the seed by at most ``depth`` expansions.

    Exhaustive breadth-first walk; woods are compared positionally, so
    expansion sequences that commute to different tree orders count as
    distinct.  Only usable for small depths.
    """
    frontier = [initial_wood()]
    seen = set(frontier)
    yield frontier[0]
    for _ in range(depth):
        next_frontier = []
        for wood in frontier:
            for node in active_nodes(wood):
                grown = expand(wood, node)
                if grown not in seen:
                    seen.add(grown)
                    next_frontier.append(grown)
                    yield grown
        frontier = next_frontier
