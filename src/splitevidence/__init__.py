"""Distributed marginal likelihood from sharded subposteriors.

Split a dataset over S workers, sample each subposterior (the local
likelihood times the fractionated prior) independently, then recombine the
per-shard log evidences and Gaussian summary statistics into the full-data
log evidence, Bayes factors and posterior model probabilities.
"""

from .errors import (
    CombinationError,
    ConfigurationError,
    DecodeError,
    DomainError,
    EstimatorError,
    QuadratureError,
    SchemaVersionError,
    SpdError,
    SplitEvidenceError,
    UnexploredModelError,
    WorkerError,
)
from .gaussian import (
    GaussianMoments,
    consensus_moments,
    log_product_integrals,
    natural_params,
)
from .models import (
    Dataset,
    LaplacePrior,
    LinearKnownVar,
    LinearLogNormalVar,
    LogisticLikelihood,
    ModelSpec,
    NormalPrior,
    Shard,
    load_csv,
    log_alpha,
    model_spec_from_json,
    model_spec_to_json,
    save_csv,
    whole_shard,
)
from .samplers import (
    Chain,
    ConditionalGaussianStream,
    SubposteriorDensity,
    chain_moments,
    laplace_fit,
    pg_gibbs_logistic,
    read_stream,
    rwmh_chain,
    sample_pg,
    subposterior_closure,
    write_stream,
)
from .evidence import (
    EvidenceEstimate,
    ModelComparison,
    approx_isub,
    chib_log_evidence,
    combine_evidence,
    compare_models,
    conditional_isub,
    importance_log_evidence,
    laplace_metropolis_log_evidence,
    log_bayes_factor,
    posterior_model_probs,
)
from .diagnostics import (
    EpsilonPair,
    ErrorReport,
    epsilon_metrics,
    error_table_metrics,
    exact_evidence_conjugate_gaussian,
    exact_local_evidence,
    exact_local_moments,
    make_synthetic,
    quadrature_isub_oracle,
)
from .sharding import (
    ShardPlan,
    kmeans_lloyd,
    plan_from_json,
    plan_to_json,
    read_plan,
    stratified_split,
    uniform_split,
    write_plan,
)
from .cluster import (
    RunConfig,
    WorkerResult,
    WorkerTask,
    combine_worker_results,
    decode_worker_result,
    encode_worker_result,
    make_tasks,
    read_worker_result,
    run_cluster,
    run_worker,
    shard_task,
    worker_seed,
    write_worker_result,
)
from .rjmcmc import (
    BetaBinomialPrior,
    ModelIndicator,
    UniformIndicatorPrior,
    RJOutput,
    distributed_log_bf,
    model_log_bf,
    model_posterior_odds,
    rj_output_from_json,
    rj_output_to_json,
    rjmcmc_sample,
    submodel,
)

__version__ = "0.1.0"
