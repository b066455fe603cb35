"""Tree algebra: construction, expansion, orders, serialization."""

import pickle
import re
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from spde_taylor.terms import BadPathError, phi, phi_with_slot, render_compact
from spde_taylor.trees import (
    ActiveNode,
    NoActiveTreeError,
    NodeLabel,
    NotActiveError,
    OutOfRangeError,
    ParseError,
    STree,
    SWood,
    WoodOrder,
    active_nodes,
    expand,
    initial_wood,
    order_tree,
    order_wood,
    parse,
    reachable_woods,
    serialize,
    serialize_tree,
    validate,
)

L = {name.value: name for name in NodeLabel}


def worked_woods():
    """The six woods of the worked expansion sequence, by name."""
    w0 = initial_wood()
    w1 = expand(w0, ActiveNode(3, 1))
    w2 = expand(w1, ActiveNode(2, 1))
    w3 = expand(w2, ActiveNode(4, 1))
    w4 = expand(w3, ActiveNode(6, 1))
    w5 = expand(w4, ActiveNode(6, 2))
    return {"w0": w0, "w1": w1, "w2": w2, "w3": w3, "w4": w4, "w5": w5}


WOODS = worked_woods()

# Two reference trees used repeatedly below: a five-node tree with labels
# 1, 1*, 2, 0, 2* and a seven-node tree rooted at a 0-node.
FIVE_NODE = STree(
    labels=(L["1"], L["1*"], L["2"], L["0"], L["2*"]),
    parents=(1, 2, 1, 2),
)
SEVEN_NODE = STree(
    labels=(L["0"], L["0"], L["2"], L["1"], L["1*"], L["1"], L["2*"]),
    parents=(1, 1, 1, 1, 4, 4),
)


class TestValidate:
    def test_single_starred_node_is_valid(self):
        assert validate(STree.single(L["2*"]))

    def test_self_parent_is_invalid(self):
        bad = STree(labels=(L["0"], L["1"]), parents=(2,))
        result = validate(bad)
        assert not result
        assert result.message == "parent(j) < j violated at j=2"

    def test_five_node_reference_tree_is_valid(self):
        assert validate(FIVE_NODE)

    def test_incomplete_parent_map(self):
        bad = STree(labels=(L["0"], L["1"], L["2"]), parents=(1,))
        result = validate(bad)
        assert not result
        assert "parent map" in result.message


class TestInitialWood:
    def test_three_singletons(self):
        wood = initial_wood()
        assert wood.length == 3
        assert [t.label_of(1) for t in wood.trees] == [L["0"], L["1*"], L["2*"]]
        assert all(t.length == 1 for t in wood.trees)

    def test_active_nodes(self):
        assert active_nodes(initial_wood()) == (ActiveNode(2, 1), ActiveNode(3, 1))

    def test_order_is_delta(self):
        order = order_wood(initial_wood())
        assert order.minimal == frozenset({(0, 0, 1)})
        assert order.evaluate(0.245, 0.25) == 0.25


ACTIVE_NODE_SETS = {
    "w1": {(2, 1), (4, 1), (5, 1), (5, 2), (6, 1), (6, 2)},
    "w2": {(4, 1), (5, 1), (5, 2), (6, 1), (6, 2),
           (7, 1), (8, 1), (8, 2), (9, 1), (9, 2)},
    "w3": {(5, 1), (5, 2), (6, 1), (6, 2), (7, 1), (8, 1), (8, 2),
           (9, 1), (9, 2), (10, 1), (11, 1), (11, 3), (12, 1), (12, 3)},
    "w4": {(5, 1), (5, 2), (6, 2), (7, 1), (8, 1), (8, 2), (9, 1), (9, 2),
           (10, 1), (11, 1), (11, 3), (12, 1), (12, 3), (13, 1), (13, 2),
           (14, 1), (14, 2), (14, 3), (15, 1), (15, 2), (15, 3)},
    "w5": {(5, 1), (5, 2), (7, 1), (8, 1), (8, 2), (9, 1), (9, 2), (10, 1),
           (11, 1), (11, 3), (12, 1), (12, 3), (13, 1), (13, 2),
           (14, 1), (14, 2), (14, 3), (15, 1), (15, 2), (15, 3),
           (16, 2), (17, 2), (17, 3), (18, 2), (18, 3)},
}


@pytest.mark.parametrize("name", sorted(ACTIVE_NODE_SETS))
def test_active_node_sets(name):
    assert {tuple(a) for a in active_nodes(WOODS[name])} == ACTIVE_NODE_SETS[name]


class TestExpand:
    def test_w1_trees(self):
        assert serialize(WOODS["w1"]) == "(0);(1*);(2);(2*[0]);(2*[1*]);(2*[2*])"

    def test_w3_has_12_trees(self):
        assert WOODS["w3"].length == 12

    def test_w5_has_18_trees(self):
        assert WOODS["w5"].length == 18

    def test_not_active(self):
        with pytest.raises(NotActiveError):
            expand(initial_wood(), ActiveNode(1, 1))

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            expand(initial_wood(), ActiveNode(9, 1))
        with pytest.raises(OutOfRangeError):
            expand(initial_wood(), ActiveNode(2, 5))

    def test_input_unchanged(self):
        wood = initial_wood()
        expand(wood, ActiveNode(3, 1))
        assert wood == initial_wood()


class TestSevenNodeTerms:
    # Values recorded before the tree-to-term maps were rebuilt.
    def test_zero_root_hides_its_subtrees(self):
        assert render_compact(phi(SEVEN_NODE)) == "I^0_0"
        for node in (5, 7):  # the starred nodes
            with pytest.raises(BadPathError, match="0-labelled"):
                phi_with_slot(SEVEN_NODE, node)

    def test_seven_node_reference_tree(self):
        # With the root relabelled 1, the root's subtrees (0), (2), (1[1,2*])
        # and (1*) are its arguments, sorted by their terms.
        tree = SEVEN_NODE.with_label(1, L["1"])
        term = phi(tree)
        assert render_compact(term) == "I^4_1[I^0_0,I^0_1*,I^0_2,I^2_1[I^0_1,I^0_2*]]"
        paths = {}
        for node in range(1, tree.length + 1):
            owner, paths[node] = phi_with_slot(tree, node)
            assert owner == term
        assert paths == {
            1: (), 2: (0,), 3: (2,), 4: (3,), 5: (1,), 6: (3, 0), 7: (3, 1),
        }


class TestOrderTree:
    def test_five_node_reference_tree(self):
        # two drift nodes, one zero node, two diffusion nodes
        value = order_tree(FIVE_NODE)
        assert (value.n1, value.n0, value.n2) == (2, 1, 2)
        assert value.evaluate(0.25, 0.25) == 2 + 0.25 + 2 * 0.25

    def test_zero_root_is_gamma(self):
        value = order_tree(SEVEN_NODE)
        assert value.root_is_zero
        assert value.evaluate(0.125, 0.25) == 0.125

    def test_singleton_drift_star(self):
        assert order_tree(STree.single(L["1*"])).evaluate(0.3, 0.4) == 1.0


EXPECTED_MINIMAL = {
    "w0": frozenset({(0, 0, 1)}),                 # delta
    "w1": frozenset({(0, 1, 1), (0, 0, 2)}),      # delta + min(gamma, delta)
    "w2": frozenset({(0, 1, 1), (0, 0, 2)}),
    "w3": frozenset({(0, 2, 1), (0, 0, 2)}),      # delta + min(2 gamma, delta)
    "w4": frozenset({(0, 2, 1), (0, 0, 2)}),
    "w5": frozenset({(0, 2, 1), (0, 0, 3)}),      # delta + 2 min(gamma, delta)
}


@pytest.mark.parametrize("name", sorted(EXPECTED_MINIMAL))
def test_wood_order_symbolic(name):
    assert order_wood(WOODS[name]).minimal == EXPECTED_MINIMAL[name]


@pytest.mark.parametrize(
    "name,formula",
    [
        ("w0", lambda g, d: d),
        ("w1", lambda g, d: d + min(g, d)),
        ("w2", lambda g, d: d + min(g, d)),
        ("w3", lambda g, d: d + min(2 * g, d)),
        ("w4", lambda g, d: d + min(2 * g, d)),
        ("w5", lambda g, d: d + 2 * min(g, d)),
    ],
)
def test_wood_order_numeric(name, formula):
    order = order_wood(WOODS[name])
    for g in (0.03125, 0.245, 0.25, 0.5, 0.9375):
        for d in (0.03125, 0.25, 0.5):
            assert order.evaluate(g, d) == pytest.approx(formula(g, d), abs=1e-14)


def test_wood_order_argmin_reports_an_attaining_tree():
    order = order_wood(WOODS["w1"])
    index = order.argmin_tree(0.125, 0.25)
    tree_order = order_tree(WOODS["w1"].tree(index))
    assert tree_order.evaluate(0.125, 0.25) == order.evaluate(0.125, 0.25)


def test_wood_order_without_active_trees():
    with pytest.raises(NoActiveTreeError):
        order_wood(SWood(trees=(STree.single(L["2"]),)))


def test_active_nodes_of_inactive_wood_is_empty():
    assert active_nodes(SWood(trees=(STree.single(L["2"]),))) == ()


class TestSerialization:
    def test_initial_wood_text(self):
        assert serialize(initial_wood()) == "(0);(1*);(2*)"
        assert parse("(0);(1*);(2*)") == initial_wood()

    @pytest.mark.parametrize("name", sorted(WOODS))
    def test_round_trip_on_worked_woods(self, name):
        wood = WOODS[name]
        assert parse(serialize(wood)) == wood

    def test_whitespace_insignificant(self):
        assert parse(" ( 0 ) ;\n(1*) ; (2*) ") == initial_wood()

    def test_bad_label(self):
        with pytest.raises(ParseError, match="label"):
            parse("(3)")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse("(0);\n(4)")
        assert info.value.line == 2
        assert info.value.column == 2

    def test_missing_bracket(self):
        with pytest.raises(ParseError, match="expected"):
            parse("(2*[0)")

    def test_parse_serialize_idempotent(self):
        # A tree whose construction numbering is not preorder: node 4 hangs
        # below node 2 while node 3 is already present.
        tree = STree(
            labels=(L["2*"], L["2*"], L["0"], L["0"]), parents=(1, 1, 2)
        )
        text = serialize_tree(tree)
        assert text == "(2*[2*[0],0])"
        reparsed = parse(text)
        assert serialize(reparsed) == text


LABEL_EXPECTED = "expected a label in {0,1,2,1*,2*}"


@pytest.mark.parametrize(
    "text,message,line,column",
    [
        ("(3)", f"{LABEL_EXPECTED}, found '3'", 1, 2),
        ("(12)", "expected ')', found '2'", 1, 3),
        ("(1**)", "expected ')', found '*'", 1, 4),
        ("(1 *)", "expected ')', found '*'", 1, 4),
        ("(0 2*)", "expected ')', found '2'", 1, 4),
        ("(2*[0)", "expected ']', found ')'", 1, 6),
        ("(1*[])", f"{LABEL_EXPECTED}, found ']'", 1, 5),
        ("(1*[0,])", f"{LABEL_EXPECTED}, found ']'", 1, 7),
        ("(1*[1*]]", "expected ')', found ']'", 1, 8),
        ("(1*[0][1])", "expected ')', found '['", 1, 7),
        ("(1*[0]", "expected ')', found 'end of input'", 1, 7),
        ("((0))", f"{LABEL_EXPECTED}, found '('", 1, 2),
        ("(0)(1)", "expected ';', found '('", 1, 4),
        ("(0);;(1)", "expected '(', found ';'", 1, 5),
        ("(0)x", "expected ';', found 'x'", 1, 4),
        ("(0)1*", "expected ';', found '1'", 1, 4),
        ("0", "expected '(', found '0'", 1, 1),
        ("", "expected '(', found 'end of input'", 1, 1),
        ("  \n\t ", "expected '(', found 'end of input'", 2, 3),
        ("(0);", "expected '(', found 'end of input'", 1, 5),
        ("(0);\n(4)", f"{LABEL_EXPECTED}, found '4'", 2, 2),
        ("(0);\n(1*[0,\n  2*[5]])", f"{LABEL_EXPECTED}, found '5'", 3, 6),
        ("(0)\n;(1*)\n;(2*[0 1])", "expected ']', found '1'", 3, 8),
        ("(0);\r\n(1*[)", f"{LABEL_EXPECTED}, found ')'", 2, 5),
    ],
)
def test_parse_error_message_and_position(text, message, line, column):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == f"{message} (line {line}, column {column})"
    assert (info.value.line, info.value.column) == (line, column)


@pytest.mark.parametrize("shape", ["chain", "star"])
def test_deep_and_wide_text_round_trips(shape):
    # Parse and serialize keep no Python frame per tree level.
    nodes = 5000
    assert sys.getrecursionlimit() < nodes
    if shape == "chain":
        text = "(" + "1[" * (nodes - 1) + "2*" + "]" * (nodes - 1) + ")"
        parents = tuple(range(1, nodes))
    else:
        text = "(2*[" + ",".join(["0"] * (nodes - 1)) + "])"
        parents = (1,) * (nodes - 1)
    wood = parse(text)
    assert wood.length == 1 and wood.tree(1).parents == parents
    assert serialize(wood) == text


def test_serializing_a_chain_takes_memory_linear_in_its_length():
    # Each subtree's text is dropped once its parent's is built.  Keeping
    # every one, as serialize once did, peaked at 37.8 MB on this chain of
    # 5000 nodes, quadratic in its length; the linear pass at 0.1 MB.
    nodes = 5000
    text = "(" + "1[" * (nodes - 1) + "2*" + "]" * (nodes - 1) + ")"
    wood = parse(text)
    tracemalloc.start()
    try:
        assert serialize(wood) == text
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024


def test_reachable_enumeration_is_deterministic():
    first = [serialize(w) for w in reachable_woods(2)]
    second = [serialize(w) for w in reachable_woods(2)]
    assert first == second
    assert len(first) == len(set(first))
    # One seed wood, two single expansions.
    assert sum(1 for w in reachable_woods(0)) == 1
    assert sum(1 for w in reachable_woods(1)) == 3


# --------------------------------------------------------------------------
# Properties over random expansion sequences
# --------------------------------------------------------------------------


@st.composite
def expansion_sequences(draw, max_depth: int = 5):
    wood = initial_wood()
    depth = draw(st.integers(min_value=0, max_value=max_depth))
    for _ in range(depth):
        nodes = active_nodes(wood)
        wood = expand(wood, nodes[draw(st.integers(0, len(nodes) - 1))])
    return wood


@given(expansion_sequences())
@settings(max_examples=120, deadline=None)
def test_expand_grows_by_three_and_stays_valid(wood):
    for at in active_nodes(wood):
        grown = expand(wood, at)
        assert grown.length == wood.length + 3
        for tree in grown.trees:
            assert validate(tree)


@given(expansion_sequences())
@settings(max_examples=120, deadline=None)
def test_expand_label_multiset_change(wood):
    at = active_nodes(wood)[0]
    i, j = at
    source = wood.tree(i)
    starred = source.label_of(j)
    before = [label for tree in wood.trees for label in tree.labels]
    grown = expand(wood, at)
    after = [label for tree in grown.trees for label in tree.labels]
    expected = before.copy()
    expected.remove(starred)
    expected.append(starred.destarred())
    expected.extend(list(source.labels) * 3)
    expected.extend([NodeLabel.ZERO, NodeLabel.ONE_STAR, NodeLabel.TWO_STAR])
    assert sorted(after, key=lambda l: l.value) == sorted(
        expected, key=lambda l: l.value
    )


@given(expansion_sequences())
@settings(max_examples=120, deadline=None)
def test_destarred_tree_keeps_its_order(wood):
    at = active_nodes(wood)[0]
    i, _ = at
    source = wood.tree(i)
    grown = expand(wood, at)
    if source.label_of(1) is not NodeLabel.ZERO:
        assert order_tree(grown.tree(i)).triple == order_tree(source).triple


@given(expansion_sequences())
@settings(max_examples=60, deadline=None)
def test_round_trip_through_canonical_form(wood):
    # serialize . parse canonicalises the numbering; a second pass is stable.
    once = parse(serialize(wood))
    assert parse(serialize(once)) == once
    assert active_nodes(once) != () or not any(t.is_active for t in wood.trees)


@given(expansion_sequences(max_depth=7))
@settings(max_examples=80, deadline=None)
def test_tree_queries_match_the_parent_and_label_maps(wood):
    starred_labels = (NodeLabel.ONE_STAR, NodeLabel.TWO_STAR)
    expected_active = []
    for i, tree in enumerate(wood.trees, start=1):
        nodes = range(1, tree.length + 1)
        for node in range(tree.length + 2):
            assert tree.children_of(node) == tuple(
                j for j in nodes if j > 1 and tree.parents[j - 2] == node
            )
        starred = [j for j in nodes if tree.labels[j - 1] in starred_labels]
        assert tree.is_active == bool(starred)
        expected_active += [(i, j) for j in starred]
    assert active_nodes(wood) == tuple(expected_active)


def test_pickling_drops_the_cached_queries():
    # The cached hash mixes in string hashes, which differ between
    # processes; a pickle must not carry it.
    tree = expand(initial_wood(), ActiveNode(3, 1)).tree(4)
    assert hash(tree) == hash((tree.labels, tree.parents))
    assert tree.children_of(1) == (2,) and tree.is_active
    copy = pickle.loads(pickle.dumps(tree))
    assert copy == tree and not {"_hash", "_active"} & set(vars(copy))


# --------------------------------------------------------------------------
# The tree table
# --------------------------------------------------------------------------


@given(expansion_sequences(max_depth=7))
@settings(max_examples=60, deadline=None)
def test_parsing_a_woods_text_returns_its_own_trees(wood):
    # The wood's trees were built within the table's bound, so they are
    # still the table's trees, and parsing their text finds them.  Parsing
    # numbers nodes in preorder, so a tree numbered otherwise comes back
    # renumbered, as another tree; its text's next round trip finds it.
    twin = parse(serialize(wood))
    for tree, parsed in zip(wood.trees, twin.trees):
        assert (parsed is tree) == (parsed == tree)
    assert any(parsed is tree for tree, parsed in zip(wood.trees, twin.trees))
    for tree, parsed in zip(twin.trees, parse(serialize(twin)).trees):
        assert parsed is tree


def test_a_tree_made_outside_the_table_equals_and_derives_as_the_tables():
    text = "(1*[2[0,1*],2*[2*]])"
    interned = parse(text).tree(1)
    assert parse(text).tree(1) is interned
    direct = STree(interned.labels, interned.parents)
    assert direct is not interned
    assert direct == interned and interned == direct and hash(direct) == hash(interned)
    assert direct != STree(interned.labels[:1]) and direct != text
    assert phi(direct) == phi(interned)
    assert serialize_tree(direct) == serialize_tree(interned) == text
    assert order_tree(direct) == order_tree(interned)
    assert order_wood(SWood((direct,))) == order_wood(SWood((interned,)))
    # Each tree keeps data of its own; none is shared through the table.
    derived = {"_hash", "_text", "_triple", "_table"}
    assert derived <= set(vars(direct)) and derived <= set(vars(interned))
    assert vars(direct)["_table"] is not vars(interned)["_table"]
    # A pickle carries the maps only and loads as an equal tree.
    copy = pickle.loads(pickle.dumps(interned))
    assert not derived & set(vars(copy))
    assert copy == interned and hash(copy) == hash(interned)
    assert serialize_tree(copy) == text


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: L["0"].destarred(), "label 0 carries no star"),
        (lambda: SWood(()), "a wood holds at least one tree"),
        (lambda: order_wood(initial_wood()).evaluate(1.0, 0.25), "gamma must lie in (0, 1), got 1.0"),
        (lambda: order_wood(initial_wood()).evaluate(0.25, 0.75),
         "delta must lie in (0, 1/2], got 0.75"),
    ],
    ids=["destar-unstarred", "empty-wood", "gamma", "delta"],
)
def test_malformed_tree_input_is_rejected(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize(
    "tree, message",
    [
        (STree(labels=(), parents=()), "tree has no nodes"),
        (STree(labels=(L["0"], L["2"]), parents=(5,)), "parent(2) = 5 is not a node"),
    ],
    ids=["no-nodes", "parent-outside"],
)
def test_validate_names_a_malformed_parent_map(tree, message):
    result = validate(tree)
    assert not result and result.message == message


def test_symbolic_order_of_forms_with_a_drift_count_and_no_common_part():
    # 1 and 2 gamma each attain the minimum somewhere (gamma above and
    # below 1/2), and share no part.
    order = WoodOrder(candidates=((1, (1, 0, 0)), (2, (0, 2, 0))))
    assert order.symbolic() == "min(1, 2γ)"
