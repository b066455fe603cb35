"""BLAS and its kin on one thread, as ``perfbench/run.py`` runs its workers.

Importing this module reads that script's ``THREAD_VARS`` from its source
and sets each of them to 1; import it before numpy.  :func:`use` sets them
to another count, also before numpy is imported.  BLAS products of one
shape can round differently with the thread count, and timings spread
less on one thread.
"""

import ast
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = next(
    ast.literal_eval(node.value)
    for node in ast.parse((ROOT / "perfbench" / "run.py").read_text()).body
    if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "THREAD_VARS"
)


def use(threads: int) -> None:
    """Set each of ``THREAD_VARS`` to ``threads``."""
    os.environ.update(dict.fromkeys(THREAD_VARS, str(threads)))


use(1)
