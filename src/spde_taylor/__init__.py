"""Tree-indexed Taylor schemes for semilinear SPDEs.

The package splits into five layers: ``trees`` (the expansion calculus on
labelled rooted trees), ``terms`` (symbolic integral-term expressions and
their rewrite rule), ``models`` (spectral Galerkin model data), ``engine``
(compilation of term sums into executable one-step maps plus the fine-mesh
reference), and ``harness`` (Monte-Carlo strong-order experiments and
reports).  The ``spde-taylor`` CLI exposes the symbolic and convergence
workflows.
"""

__version__ = "0.1.0"

from .trees import (  # noqa: E402,F401
    ActiveNode,
    NodeLabel,
    STree,
    SWood,
    active_nodes,
    expand,
    initial_wood,
    order_tree,
    order_wood,
    parse,
    serialize,
    validate,
)
from .terms import (  # noqa: E402,F401
    phi,
    phi_wood,
    psi,
    rewrite_expand,
)
from .models import (  # noqa: E402,F401
    GridWorkspace,
    ModelSpec,
    SpectralState,
    apply_diffusion,
    apply_semigroup,
    heat_additive_model,
    heat_multiplicative_model,
    initial_condition,
)
from .engine import (  # noqa: E402,F401
    CompiledScheme,
    NoisePath,
    StepResult,
    builtin_scheme,
    compile_scheme,
    path_generator,
    reference_solve,
    step,
)
from .harness import (  # noqa: E402,F401
    ErrorReport,
    ExperimentConfig,
    report_emit,
    run_convergence,
    symbolic_report,
)
