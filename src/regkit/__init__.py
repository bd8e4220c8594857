"""regkit: decorated-tree algebra, renormalisation combinatorics and
variable-coefficient heat-kernel calculus on anisotropically scaled space-time."""

from .trees import (
    Degree,
    TypeSet,
    DecoratedTree,
    FormalSum,
    unit,
    monomial,
    noise,
    leaf,
    plant,
    tree_product,
    cuts,
    contract,
)
from .rules import Rule, TreeUniverse, generate
from .hopf import (
    Character,
    GammaMap,
    antipode,
    character_inverse,
    convolve,
    counit,
    delta,
    delta_plus,
    delta_r_minus,
    delta_tilde,
    gamma_action,
)
from .renorm import HistoricSet, PreparationMap, age, bphz_functional, hist
from .kernels import (
    CutoffFamily,
    DyadicKernel,
    aniso_taylor,
    dyadic_decompose,
    kernel_norm,
)
from .heatkernel import (
    CoefficientField,
    decompose_green,
    e_kernel,
    frozen_gaussian,
    heat_convolve,
    volterra,
    z_kernel,
)
from .models import (
    Grid,
    GridField,
    ModelInstance,
    build_model,
    bump_kernel,
    check_chain,
    expectation_oracle,
    mollified_noise_sampler,
    mollifier,
    recentering_exponent,
)

__version__ = "0.1.0"
