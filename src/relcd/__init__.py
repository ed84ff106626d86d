"""Constraint-based causal discovery for relational data."""

from .agg import (
    Agg,
    AggSet,
    agg_to_dot,
    build_all,
    orient,
    unshielded_triples,
)
from .ci import (
    OracleCI,
    RegressionCI,
    ask,
    find_sepset,
    oriented_agg,
)
from .errors import Infeasible
from .harness import (
    TrialConfig,
    TrialMetrics,
    run_bench,
    score,
)
from .model import (
    RelationalDependency,
    RelationalModel,
    RelationalVariable,
    canonical_pair,
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
    enumerate_paths,
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
    schema_from_json,
    schema_to_json,
    validate_schema,
)
from .skeleton import (
    GroundGraph,
    Skeleton,
    ground_graph,
    load_skeleton,
    random_skeleton,
    sample_data,
    save_skeleton,
)

__version__ = "0.1.0"
