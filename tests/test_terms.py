"""Term calculus: tree-to-term maps, rewrite rule, canonical forms."""

import copy
import importlib.util
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from spde_taylor.terms import (
    I0,
    BadPathError,
    In,
    NotStarredError,
    TermSum,
    _tree_table,
    contains_starred,
    expansion_matches_rewrite,
    expansion_of,
    integral,
    phi,
    phi_with_slot,
    phi_wood,
    psi,
    render_compact,
    rewrite_expand,
    summands,
    term_sum,
    wood_slot,
)
from spde_taylor.trees import (
    ActiveNode,
    NodeLabel,
    STree,
    active_nodes,
    expand,
    initial_wood,
    parse,
    reachable_woods,
    serialize,
)

L = {name.value: name for name in NodeLabel}


def worked_woods():
    w0 = initial_wood()
    w1 = expand(w0, ActiveNode(3, 1))
    w2 = expand(w1, ActiveNode(2, 1))
    w3 = expand(w2, ActiveNode(4, 1))
    w4 = expand(w3, ActiveNode(6, 1))
    w5 = expand(w4, ActiveNode(6, 2))
    return {"w0": w0, "w1": w1, "w2": w2, "w3": w3, "w4": w4, "w5": w5}


WOODS = worked_woods()


class TestPhi:
    def test_singleton(self):
        assert phi(STree.single(L["2*"])) == I0(L["2*"])

    def test_two_node_tree(self):
        tree = STree(labels=(L["2*"], L["0"]), parents=(1,))
        assert render_compact(phi(tree)) == "I^1_2*[I^0_0]"

    def test_zero_root_short_circuits(self):
        tree = STree(
            labels=(L["0"], L["0"], L["2"], L["1"], L["1*"], L["1"], L["2*"]),
            parents=(1, 1, 1, 1, 4, 4),
        )
        assert phi(tree) == I0(L["0"])


PHI_WOOD_GOLDEN = {
    "w0": "I^0_0 + I^0_1* + I^0_2*",
    "w1": "I^0_0 + I^0_1* + I^0_2 + I^1_2*[I^0_0] + I^1_2*[I^0_1*] + I^1_2*[I^0_2*]",
    "w2": (
        "I^0_0 + I^0_1 + I^0_2"
        " + I^1_1*[I^0_0] + I^1_1*[I^0_1*] + I^1_1*[I^0_2*]"
        " + I^1_2*[I^0_0] + I^1_2*[I^0_1*] + I^1_2*[I^0_2*]"
    ),
}

PSI_GOLDEN = {
    "w0": "I^0_0",
    "w1": "I^0_0 + I^0_2",
    "w2": "I^0_0 + I^0_1 + I^0_2",
    "w3": "I^0_0 + I^0_1 + I^0_2 + I^1_2[I^0_0]",
    "w5": "I^0_0 + I^0_1 + I^0_2 + I^1_2[I^0_0] + I^1_2[I^0_2]",
}


@pytest.mark.parametrize("name", sorted(PHI_WOOD_GOLDEN))
def test_phi_wood_golden(name):
    assert render_compact(phi_wood(WOODS[name])) == PHI_WOOD_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(PSI_GOLDEN))
def test_psi_golden(name):
    assert render_compact(psi(WOODS[name])) == PSI_GOLDEN[name]


def test_psi_w3_equals_psi_w4():
    assert psi(WOODS["w3"]) == psi(WOODS["w4"])


def test_psi_never_starred():
    for wood in WOODS.values():
        assert not contains_starred(psi(wood))


class TestRewrite:
    def test_expand_plain_process(self):
        got = rewrite_expand(I0(L["1*"]), ())
        assert render_compact(got) == (
            "I^0_1 + I^1_1*[I^0_0] + I^1_1*[I^0_1*] + I^1_1*[I^0_2*]"
        )

    def test_expand_multilinear(self):
        term = integral(1, L["2*"], (I0(L["0"]),))
        got = rewrite_expand(term, ())
        assert render_compact(got) == (
            "I^1_2[I^0_0] + I^2_2*[I^0_0,I^0_0]"
            " + I^2_2*[I^0_0,I^0_1*] + I^2_2*[I^0_0,I^0_2*]"
        )

    def test_rewrite_inside_argument_distributes(self):
        term = integral(1, L["2"], (I0(L["2*"]),))
        got = rewrite_expand(term, (0,))
        assert render_compact(got) == (
            "I^1_2[I^0_2] + I^1_2[I^1_2*[I^0_0]]"
            " + I^1_2[I^1_2*[I^0_1*]] + I^1_2[I^1_2*[I^0_2*]]"
        )

    def test_initial_expansion_reproduces_w1(self):
        w0 = WOODS["w0"]
        path = wood_slot(w0, ActiveNode(3, 1))
        assert rewrite_expand(phi_wood(w0), path) == phi_wood(WOODS["w1"])

    def test_not_starred(self):
        with pytest.raises(NotStarredError):
            rewrite_expand(I0(L["2"]), ())

    def test_bad_path(self):
        with pytest.raises(BadPathError):
            rewrite_expand(I0(L["2*"]), (0,))
        with pytest.raises(BadPathError):
            rewrite_expand(phi_wood(WOODS["w0"]), (17,))

    def test_sum_itself_cannot_be_expanded(self):
        with pytest.raises(NotStarredError):
            rewrite_expand(phi_wood(WOODS["w0"]), ())

    def test_expansion_of_starred_slot(self):
        expr = phi_wood(WOODS["w0"])
        (index,) = wood_slot(WOODS["w0"], ActiveNode(3, 1))
        assert render_compact(expr.terms[index]) == "I^0_2*"
        assert [render_compact(t) for t in expansion_of(expr.terms[index])] == [
            "I^0_2",
            "I^1_2*[I^0_0]",
            "I^1_2*[I^0_1*]",
            "I^1_2*[I^0_2*]",
        ]


class TestCanonicalForm:
    def test_argument_order_is_sorted(self):
        a = integral(2, L["2*"], (I0(L["2*"]), I0(L["0"])))
        b = integral(2, L["2*"], (I0(L["0"]), I0(L["2*"])))
        assert a == b
        assert render_compact(a) == "I^2_2*[I^0_0,I^0_2*]"

    def test_sum_flattening_and_multiplicity(self):
        doubled = term_sum([I0(L["0"]), term_sum([I0(L["0"]), I0(L["2"])])])
        assert render_compact(doubled) == "I^0_0 + I^0_0 + I^0_2"

    def test_singleton_sum_collapses(self):
        assert term_sum([I0(L["0"])]) == I0(L["0"])

    def test_empty_sum_renders_zero(self):
        assert render_compact(term_sum([])) == "0"

    def test_canonicalisation_idempotent(self):
        expr = phi_wood(WOODS["w2"])
        assert term_sum(list(expr.terms)) == expr


class TestRender:
    def test_compact_examples(self):
        assert render_compact(I0(L["2"])) == "I^0_2"
        assert render_compact(integral(1, L["2"], (I0(L["0"]),))) == "I^1_2[I^0_0]"

    def test_compact_rendering_is_injective_on_worked_terms(self):
        seen = {}
        for wood in WOODS.values():
            for term in (phi_wood(wood), psi(wood)):
                text = render_compact(term)
                assert seen.setdefault(text, term) == term


# --------------------------------------------------------------------------
# Expansion/rewrite consistency
# --------------------------------------------------------------------------


def test_expansion_matches_rewrite_depth_two_exhaustive():
    for wood in reachable_woods(2):
        for at in active_nodes(wood):
            assert expansion_matches_rewrite(wood, at, expand(wood, at)), (
                serialize(wood),
                tuple(at),
            )


@given(st.integers(min_value=0, max_value=2**30), st.integers(3, 7))
@settings(max_examples=40, deadline=None)
def test_expansion_matches_rewrite_random_deep(seed, depth):
    rnd = random.Random(seed)
    wood = initial_wood()
    for _ in range(depth):
        at = rnd.choice(active_nodes(wood))
        grown = expand(wood, at)
        assert expansion_matches_rewrite(wood, at, grown)
        wood = grown


@given(st.integers(min_value=0, max_value=2**30), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_psi_star_free_random(seed, depth):
    rnd = random.Random(seed)
    wood = initial_wood()
    for _ in range(depth):
        wood = expand(wood, rnd.choice(active_nodes(wood)))
    assert not contains_starred(psi(wood))


# --------------------------------------------------------------------------
# Stored keys and the tree table's memo
# --------------------------------------------------------------------------


def rendered(expr) -> str:
    """The canonical rendering, recomputed from the structure alone."""
    if isinstance(expr, I0):
        return f"I^0_{expr.j.value}"
    if isinstance(expr, In):
        inner = ",".join(rendered(a) for a in expr.args)
        return f"I^{expr.order}_{expr.j.value}[{inner}]"
    return " + ".join(rendered(t) for t in expr.terms) or "0"


def operators(expr):
    """Every ``I0`` and ``In`` inside ``expr``, each before its arguments."""
    for term in summands(expr):
        yield term
        if isinstance(term, In):
            for arg in term.args:
                yield from operators(arg)


def symbolic_pass(wood):
    """The terms of every tree, phi_wood and psi; the slot of every active node."""
    terms = [phi(tree) for tree in wood.trees] + [phi_wood(wood), psi(wood)]
    return terms, [wood_slot(wood, at) for at in active_nodes(wood)]


def random_wood(rnd, depth):
    wood = initial_wood()
    for _ in range(depth):
        wood = expand(wood, rnd.choice(active_nodes(wood)))
    return wood


@given(st.integers(min_value=0, max_value=2**30), st.integers(0, 7))
@settings(max_examples=40, deadline=None)
def test_stored_keys_and_phi_memo_match_a_cold_computation(seed, depth):
    wood = random_wood(random.Random(seed), depth)
    warm = symbolic_pass(wood)
    _tree_table.cache_clear()
    cold = symbolic_pass(wood)
    assert warm == cold
    assert [render_compact(t) for t in warm[0]] == [rendered(t) for t in cold[0]]
    for term in operators(warm[0][-2]):
        assert term.key == rendered(term) == render_compact(term)
        # The rendering is injective, so == and hash read the key alone and
        # walk no subterm; repr leaves the key out.
        twin = copy.copy(term)
        assert twin == term and hash(twin) == hash(term)
        object.__setattr__(twin, "key", "unrelated")
        assert twin != term and hash(twin) != hash(term)
        assert repr(twin) == repr(term)
        if isinstance(term, I0):
            assert repr(term) == f"I0(j={term.j!r})"
        else:
            assert repr(term) == f"In(order={term.order!r}, j={term.j!r}, args={term.args!r})"


def test_phi_memo_stays_within_its_bound():
    info = _tree_table.cache_info
    bound = info().maxsize
    _tree_table.cache_clear()
    rnd = random.Random(11)
    while info().misses <= 3 * bound:
        phi_wood(random_wood(rnd, 8))
        assert info().currsize <= bound
    assert info().currsize == bound


def test_tree_to_term_maps_take_any_depth():
    # The table keeps no Python frame per tree level.
    nodes = 5000
    assert sys.getrecursionlimit() < nodes
    wood = parse("(" + "1[" * (nodes - 1) + "2*" + "]" * (nodes - 1) + ")")
    tree = wood.tree(1)
    try:
        term = phi(tree)
        assert render_compact(term) == (
            "I^1_1[" * (nodes - 1) + "I^0_2*" + "]" * (nodes - 1)
        )
        # Identity, not ==: term equality still recurses per level.
        assert phi_wood(wood) is term
        assert render_compact(psi(wood)) == "0"
        owner, path = phi_with_slot(tree, nodes)
        assert owner is term and path == (0,) * (nodes - 1)
    finally:
        # The chain's stored keys take about 90 MB; do not keep them.
        _tree_table.cache_clear()


def test_symbolic_digest_is_unchanged():
    # The ``woods`` digest of scripts/symbolic_digest.py over the builtins
    # and the first 200 random woods: text, round trip, psi, phi_wood and
    # compiled schemes stay byte-identical across refactors of the layer.
    # The ``slots`` digest over the first 100 depth-8 woods pins every
    # active node's term slot and every wood order the same way.
    path = Path(__file__).resolve().parent.parent / "scripts" / "symbolic_digest.py"
    spec = importlib.util.spec_from_file_location("symbolic_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.woods_digest(200) == (
        "b36eb6e7cf80c3a632f441918f79f09e5b6a4869b3ff4116ce959abe3bc1fc3b"
    )
    assert module.slots_digest(100) == (
        "149fe249087cde4024bc5ad471dcbd6db252f23d6a371e1570e12e7708a79ecc"
    )


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: In(order=0, j=L["2"], args=()), ValueError, "multilinear order must be >= 1"),
        (lambda: In(order=1, j=L["0"], args=(I0(L["0"]),)), ValueError,
         "I^i_0 is not an operator for i >= 1"),
        (lambda: In(order=2, j=L["2"], args=(I0(L["0"]),)), ValueError,
         "I^2_2 expects 2 arguments, got 1"),
        (lambda: integral(0, L["2"], (I0(L["0"]),)), ValueError, "I^0 takes no arguments"),
        (lambda: phi_with_slot(STree.single(L["2*"]), 2), BadPathError,
         "node 2 outside tree of 1 nodes"),
        (lambda: expansion_of(TermSum((I0(L["1*"]), I0(L["2*"])))), NotStarredError,
         "a sum cannot be expanded; address one of its terms"),
        (lambda: rewrite_expand(integral(1, L["2"], (I0(L["2*"]),)), (1,)), BadPathError,
         "argument index 1 out of range"),
    ],
    ids=["order-0", "zero-label", "argument-count", "order-0-arguments", "node-outside",
         "expand-sum", "argument-index"],
)
def test_malformed_term_input_is_rejected(build, error, message):
    with pytest.raises(error, match=re.escape(message)):
        build()


def test_the_slot_in_a_single_tree_wood_is_the_path_in_its_term():
    # The term of a one-tree wood is no sum, so no summand index leads the
    # path.
    wood = parse("(2[2*])")
    at = ActiveNode(1, 2)
    assert wood_slot(wood, at) == (0,)
    assert expansion_matches_rewrite(wood, at, expand(wood, at))
