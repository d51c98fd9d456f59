"""Two-tier crowdsourcing mechanism suite.

Tier 1 selects and pays social notifiers under a public budget; tier 2
ranks devices by quality (median voting) and assigns tasks through an
ascending-price auction.  Closed-form estimators, baselines, and a
reproducible experiment harness round out the package.
"""

from .auction import (
    AdditiveValuation,
    AuctionOutcome,
    BruteForceOracle,
    greedy_baseline,
    wipd_run,
)
from .errors import (
    ConfigError,
    CrowdtierError,
    DomainError,
    GraphParseError,
    InvariantError,
    TerminationError,
)
from .estimators import (
    NotifyModel,
    at_least_one,
    chernoff_tail,
    expected_notified,
    lemma1_bound,
    monte_carlo_notified,
    tail_at,
)
from .graph import (
    SocialGraph,
    build_graph,
    load_edge_list,
    parse_edge_list,
)
from .harness import ExperimentConfig, run_experiment, synthetic_graph
from .notifier import (
    NotifierOutcome,
    nam_select,
    notifier_utility,
    npm_prices,
    ntbfm,
    psm,
    tenm_run,
)
from .quality import (
    NormalPeaks,
    QualityRanking,
    UniformPeaks,
    avr_run,
    ectai_run,
    mean_of,
    median_of,
    select_quality,
)
from .report import MechanismReport, canonical_json

__version__ = "0.1.0"

__all__ = [
    "AdditiveValuation",
    "AuctionOutcome",
    "BruteForceOracle",
    "ConfigError",
    "CrowdtierError",
    "DomainError",
    "ExperimentConfig",
    "GraphParseError",
    "InvariantError",
    "MechanismReport",
    "NormalPeaks",
    "NotifierOutcome",
    "NotifyModel",
    "QualityRanking",
    "SocialGraph",
    "TerminationError",
    "UniformPeaks",
    "at_least_one",
    "avr_run",
    "build_graph",
    "canonical_json",
    "chernoff_tail",
    "ectai_run",
    "expected_notified",
    "greedy_baseline",
    "lemma1_bound",
    "load_edge_list",
    "mean_of",
    "median_of",
    "monte_carlo_notified",
    "nam_select",
    "notifier_utility",
    "npm_prices",
    "ntbfm",
    "parse_edge_list",
    "psm",
    "run_experiment",
    "select_quality",
    "synthetic_graph",
    "tail_at",
    "tenm_run",
    "wipd_run",
]
