"""Staged tree models for categorical data.

Learning (greedy stage merging, CMI-restricted parent budgets, exact order
search), robustness by bootstrap consensus, compression into labeled DAGs,
and exact hard/soft-evidence queries.
"""

from .aldag import (
    CONTEXT_SPECIFIC,
    LOCAL,
    PARTIAL,
    SYMMETRIC,
    Aldag,
    AldagEdge,
    DependenceSubtree,
    aldag_to_json,
    compress,
    dependence_subtree,
    to_dot,
)
from .consensus import (
    ConsensusOrder,
    ConsensusResult,
    EdgeStrengthRow,
    OrderVoteMatrix,
    StagingEnsemble,
    bootstrap_orders,
    consensus_order,
    consensus_staging,
    ensemble_from_stagings,
    run_bootstrap_consensus,
    staging_heatmap_export,
    tally_orders,
)
from .dataset import (
    Dataset,
    ResamplePlan,
    Schema,
    Variable,
    bootstrap_replicate,
    derived_seed,
    dichotomize,
    kfold_split,
    load_csv,
    schema_to_json,
)
from .errors import ConvergenceError, DataError, ModelError, StagedTreeError
from .harness import CvRecord, CvReport, report_export, run_cv, summarize
from .inference import (
    EvidenceSpec,
    QueryResult,
    SweepRow,
    condition_hard,
    condition_soft,
    condition_virtual,
    joint_table,
    marginal,
    mutual_information,
    run_query,
    whatif_sweep,
)
from .learning import (
    LearnConfig,
    cmi,
    kparents_learn,
    learn,
    order_search_dp,
    order_search_grouped,
    ordering_score,
    variable_score,
)
from .tree import (
    FitConfig,
    StageAssignment,
    StagedTree,
    atom_probability,
    bic,
    encode_bn,
    fit,
    log_likelihood,
    log_likelihood_by_depth,
    n_parameters,
    tree_from_json,
    tree_to_json,
)

__version__ = "0.1.0"
