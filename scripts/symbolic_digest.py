#!/usr/bin/env python3
"""SHA-256 digests of the symbolic layer's outputs.

A refactor of ``trees`` or ``terms`` that keeps every output byte-identical
leaves both digests unchanged; run the script before and after the change
and compare.  It prints two lines:

    woods <hex>   text, terms and compiled schemes of whole woods
    slots <hex>   term slots of every active node and wood orders

Framing: each output string is hashed as its UTF-8 bytes followed by one
0x00 byte (no output contains a NUL), in the order listed below, wood after
wood.  A random wood of depth d is grown from ``initial_wood()`` by d
expansions, the i-th wood at the nodes drawn by
``random.Random(f"digest/{i}").choice(active_nodes(wood))``.

* ``woods``: the builtin woods in sorted name order, then random woods
  0..1999 of depth 10.  Per wood: ``serialize(w)``,
  ``serialize(parse(serialize(w)))``, ``render_compact(psi(w))``,
  ``render_compact(phi_wood(w))`` and ``compile_scheme(psi(w)).describe()``.
* ``slots``: random woods 0..499 of depth 8.  Per wood, for each active
  node ``at`` in order: ``repr(wood_slot(w, at))`` and
  ``repr(phi_with_slot(w.tree(at.tree_index), at.node_index))``; then
  ``repr(order_wood(w))``.

    python3 scripts/symbolic_digest.py
"""

import hashlib
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spde_taylor.engine import BUILTIN_WOODS, compile_scheme
from spde_taylor.terms import phi_wood, phi_with_slot, psi, render_compact, wood_slot
from spde_taylor.trees import active_nodes, expand, initial_wood, order_wood, parse, serialize


def random_wood(index: int, depth: int):
    """The ``index``-th seeded random wood of ``depth`` expansions."""
    rnd = random.Random(f"digest/{index}")
    wood = initial_wood()
    for _ in range(depth):
        wood = expand(wood, rnd.choice(active_nodes(wood)))
    return wood


def _digest(fields) -> str:
    hasher = hashlib.sha256()
    for text in fields:
        data = text.encode("utf-8")
        if b"\0" in data:
            raise ValueError(f"output {text!r} contains a NUL byte")
        hasher.update(data + b"\0")
    return hasher.hexdigest()


def _wood_fields(wood):
    text = serialize(wood)
    kept = psi(wood)
    yield text
    yield serialize(parse(text))
    yield render_compact(kept)
    yield render_compact(phi_wood(wood))
    yield compile_scheme(kept).describe()


def woods_digest(count: int = 2000) -> str:
    """Digest of the builtins and the first ``count`` depth-10 random woods."""
    woods = [BUILTIN_WOODS[name] for name in sorted(BUILTIN_WOODS)]
    woods += [random_wood(index, 10) for index in range(count)]
    return _digest(field for wood in woods for field in _wood_fields(wood))


def _slot_fields(wood):
    for at in active_nodes(wood):
        yield repr(wood_slot(wood, at))
        yield repr(phi_with_slot(wood.tree(at.tree_index), at.node_index))
    yield repr(order_wood(wood))


def slots_digest(count: int = 500) -> str:
    """Digest of the slots and orders of the first ``count`` depth-8 woods."""
    return _digest(
        field for index in range(count) for field in _slot_fields(random_wood(index, 8))
    )


def main() -> int:
    print(f"woods {woods_digest()}")
    print(f"slots {slots_digest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
