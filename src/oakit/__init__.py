"""oakit: exact constructions and verification for mixed orthogonal arrays,
irredundancy, and the k-uniform states they induce."""

from .arrays import (
    DistanceSpectrum,
    IrredundancyReport,
    MixedArray,
    StrengthReport,
    concat_columns,
    delete_columns,
    distance_spectrum,
    guaranteed_deletion_budget,
    is_irredundant,
    min_distance,
    select_columns,
    verify_strength,
)
from .algebra import (
    DifferenceScheme,
    FiniteField,
    HadamardMatrix01,
    column_vector,
    cyclic_group,
    ds_linear,
    ds_poly3,
    expand,
    finite_field,
    gf_additive_group,
    hadamard01,
    is_difference_scheme,
    kronecker_sum,
    product_construction,
    repeat_rows_each,
)
from .constructions import (
    ConstructionCertificate,
    OrthogonalPartition,
    bush_oa,
    bush_oa_even,
    certify,
    expansive_replace,
    five_column_feasibility,
    juxtapose_partitions,
    juxtapose_scheme,
    k_uniform_product,
    partition_from_scheme,
    three_uniform_3m2n,
    three_uniform_dm2n,
    trivial_moa,
    two_uniform_3m2n,
    two_uniform_dm2n,
    two_uniform_from_scheme,
    two_uniform_prime_power,
)
from .quantum import (
    DensityMatrix,
    SparseState,
    emit_state,
    is_ame,
    reduced_density,
    render_ket,
    verify_k_uniform,
)
from .search import (
    NonexistenceResult,
    SearchResult,
    SearchSpec,
    exhaustive_nonexistence,
    search_moa,
    search_partition,
    search_scheme,
)
from .formats import parse_any, parse_array, serialize_array, serialize_scheme
from . import catalog
from .errors import (
    ConstructionError,
    FormatError,
    MissingSeedError,
    OakitError,
    ParameterError,
    VerificationError,
)

__version__ = "0.1.0"
