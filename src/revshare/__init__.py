"""revshare: Stackelberg solver and settlement toolkit for revenue-sharing
AI platforms.

The platform sets a commission rate on application revenue; developers
best-respond with effort (and optionally a price), enter only above their
outside option, and the platform picks the rate maximizing commission
income net of serving costs. Companion modules compare alternative
business models, settle ledgers in exact integer cents, and run seeded
Monte Carlo population sweeps.
"""

__version__ = "0.1.0"

from .model import (
    BusinessModel,
    CommissionPolicy,
    DeveloperProfile,
    DomainError,
    EffortCost,
    FreemiumModel,
    MarketplaceModel,
    PayPerTokenModel,
    PlatformParams,
    RevenueTechnology,
    RsiModel,
    SubscriptionModel,
    effort_cost,
    revenue,
)
from .best_response import (
    BestResponse,
    NonConvergenceError,
    foc_residual,
    solve_effort,
    solve_effort_policy,
)
from .participation import ParticipationResult, SweepResult, participate, sweep
from .optimizer import (
    EquilibriumReport,
    optimize_alpha,
    platform_profit,
)
from .comparator import (
    ComparisonTable,
    ModelOutcome,
    capital_frontier,
    compare_models,
    evaluate_model,
)
from .settlement import (
    SettlementStatement,
    Transaction,
    settle,
    settle_freemium,
)
from .montecarlo import (
    Distribution,
    PopulationSpec,
    generate_population,
    risk_pooling_report,
)
