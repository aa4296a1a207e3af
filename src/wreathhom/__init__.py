"""Exact counting, distributions, and uniform sampling of homomorphisms
from a finite group into wreath products of a finite abelian group with
symmetric groups."""

from .groups import (
    AbelianGroup,
    Abelianization,
    FiniteGroup,
    GroupSpec,
    GroupTableError,
    InvariantError,
    PermutationAction,
    SizeCapError,
    SubgroupClass,
    UnknownGroupError,
    abelianization,
    build_group,
    builtin_group,
    coset_action,
    full_group_class,
    group_from_permutations,
    group_from_table,
    subgroup_classes,
)
from .homs import HomGroup, hom_count_abelian, hom_group
from .orbits import OrbitTypeData, orbit_type_data
from .counting import (
    DecayConstant,
    DistributionTable,
    WreathHomCounter,
    decay_constant,
    delta_distribution,
    fixed_point_free_probability,
    hom_count_direct,
    hom_count_wreath,
    weyl_hom_count,
    weyl_limit_ratio,
)

_ORACLE = ("ExplicitWreath", "build_wreath_group", "enumerate_homs", "fixed_point_strata_uniform", "fold_indices",
           "oracle_delta")
_SAMPLING = ("WreathHom", "sample_hom", "sample_orbit_type", "verify_wreath_hom")


def __getattr__(name: str):
    """The oracle's and the sampler's names, imported on first use (PEP 562)
    so that a run that counts does not compile those modules."""
    if name in _ORACLE:
        from . import oracle as module
    elif name in _SAMPLING:
        from . import sampling as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


__version__ = "0.1.0"

# every name imported above from a submodule, and the lazy ones
__all__ = sorted(
    [name for name, value in globals().items() if getattr(value, "__module__", "").startswith("wreathhom.")]
    + [*_ORACLE, *_SAMPLING]
)
