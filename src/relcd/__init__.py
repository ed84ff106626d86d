"""Constraint-based causal discovery for relational data."""

from .agg import (
    Agg,
    AggSet,
    agg_to_dot,
    build_agg,
    build_all,
    d_separated,
    orient,
    oriented_aggset,
    unshielded_triples,
)
from .ci import (
    CIQuery,
    OracleCI,
    RegressionCI,
    SepsetStore,
    find_sepset,
)
from .errors import Infeasible
from .harness import (
    TrialConfig,
    TrialMetrics,
    brute_force_pattern,
    run_bench,
    score,
)
from .model import (
    RelationalDependency,
    RelationalModel,
    RelationalVariable,
    canonical_pair,
    class_dependency_graph,
    is_acyclic,
    is_canonical,
    model_from_json,
    model_to_json,
    parse_dependency,
    parse_variable,
    potential_dependencies,
    random_model,
    reverse_dependency,
)
from .paths import (
    RelationalPath,
    cardinality,
    enumerate_paths,
    extend,
    is_valid,
    parse_path,
    reverse,
)
from .rcd import (
    LearnConfig,
    LearnedPattern,
    bivariate_orientation,
    collider_detection,
    majority_vote,
    meek_rules,
    phase1,
    rcd_learn,
)
from .schema import (
    AttributeClass,
    Cardinality,
    EntityClass,
    RelationshipClass,
    Schema,
    random_schema,
    relationships_of,
    schema_from_json,
    schema_to_json,
    validate_schema,
)
from .skeleton import (
    GroundGraph,
    Skeleton,
    dsep_ground,
    ground_graph,
    load_skeleton,
    random_skeleton,
    sample_data,
    save_skeleton,
    terminal_set,
)

__version__ = "0.1.0"
