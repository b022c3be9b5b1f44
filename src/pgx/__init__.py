"""pgx: exact power-graph statistics and extremal verification for finite groups.

Groups are dense indexed multiplication tables, built only up to the
brute-force cap; every statistic factors through the order spectrum and is
computed in exact integer arithmetic, with a brute-force graph oracle guarding
the formulas at orders within the cap.
"""

from .errors import InputError, InvariantError, PgxError, ResourceError
from .groups import (
    DEFAULT_SAMPLE_TRIPLES,
    DEFAULT_SEED,
    DEFAULT_TABLE_CAP,
    FULL_ASSOC_CAP,
    GroupTable,
    ValidationFailure,
    ValidationReport,
    read_cayley,
    validate,
    write_cayley,
)
from .spectrum import (
    GroupStats,
    OrderSpectrum,
    directed_arcs,
    divisors,
    factor,
    group_stats,
    is_prime,
    mutual_edges,
    order_spectrum,
    order_sum,
    phi_cyclic_prime_power,
    phi_sum,
    spectrum_cyclic,
    spectrum_product,
    stats_from_spectrum,
    totient,
    undirected_edges,
)
from .constructors import (
    Abelian,
    CatalogEntry,
    Completeness,
    Cyclic,
    Dihedral,
    FileTable,
    GeneralizedQuaternion,
    GroupSpec,
    Heisenberg,
    Modular,
    Product,
    Semidihedral,
    abelian_from_partition,
    build_group,
    cyclic,
    dihedral,
    direct_product,
    generalized_quaternion,
    heisenberg,
    modular_group,
    order_of_spec,
    p_group_catalog,
    parse_group_spec,
    render_spec,
    semidihedral,
    spectrum_of_spec,
)
from .powergraph import (
    DirectedPowerGraph,
    UndirectedPowerGraph,
    build_directed,
    build_undirected,
    degree_sequence,
    export,
    oracle_counts,
)
from .census import (
    CensusMember,
    Factorization,
    VerificationReport,
    Verdict,
    enumerate_nilpotent,
    factorize,
    scan_conjecture_2_9,
    verify_cor_2_3,
    verify_cor_2_6,
    verify_lemma_2_1,
    verify_lemma_2_4,
    verify_lemma_2_5,
    verify_main_theorem,
    verify_prop_2_2,
    verify_prop_2_8,
)

__version__ = "0.1.0"

__all__ = [
    "PgxError", "InputError", "ResourceError", "InvariantError",
    "GroupTable", "ValidationFailure", "ValidationReport",
    "read_cayley", "write_cayley", "validate",
    "DEFAULT_TABLE_CAP", "FULL_ASSOC_CAP", "DEFAULT_SAMPLE_TRIPLES", "DEFAULT_SEED",
    "OrderSpectrum", "GroupStats",
    "is_prime", "factor", "divisors", "totient",
    "order_spectrum", "spectrum_cyclic", "spectrum_product",
    "order_sum", "phi_sum", "directed_arcs", "mutual_edges", "undirected_edges",
    "phi_cyclic_prime_power", "stats_from_spectrum", "group_stats",
    "GroupSpec", "Cyclic", "Abelian", "Modular", "Dihedral",
    "GeneralizedQuaternion", "Semidihedral", "Heisenberg", "FileTable", "Product",
    "parse_group_spec", "render_spec", "build_group", "order_of_spec",
    "spectrum_of_spec", "cyclic", "direct_product", "abelian_from_partition",
    "modular_group", "dihedral", "generalized_quaternion", "semidihedral",
    "heisenberg", "p_group_catalog", "CatalogEntry", "Completeness",
    "DirectedPowerGraph", "UndirectedPowerGraph",
    "build_directed", "build_undirected", "oracle_counts",
    "degree_sequence", "export",
    "Factorization", "factorize", "CensusMember", "enumerate_nilpotent",
    "Verdict", "VerificationReport",
    "verify_main_theorem", "verify_prop_2_2", "verify_cor_2_3",
    "verify_lemma_2_4", "verify_lemma_2_5", "verify_cor_2_6",
    "verify_prop_2_8", "verify_lemma_2_1", "scan_conjecture_2_9",
]
