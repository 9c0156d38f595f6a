"""Desk-scale simulator and RL training loop for profile-grounded dialogue
personalization.

The package splits into: profile and matcher primitives (``profiles``), the
scripted user (``user_sim``), the turn-level judge and reward aggregation
(``reward``), the dialogue environment (``env``), PPO over a factored
categorical policy (``rl``), evaluation metrics (``metrics``), scenario
files (``scenarios``), and the CLI (``cli``).
"""

from .env import (
    AgentAction,
    DialogueEnv,
    EnvView,
    EpisodeRecord,
    EvidenceOracleAgent,
    RewardBreakdown,
    make_response,
    rollout,
)
from .errors import (
    CheckpointError,
    ConfigError,
    DialignError,
    ProtocolError,
    SchemaError,
)
from .metrics import (
    AgreementStats,
    ConfusionMatrix,
    agreement_stats,
    alignment_curve,
    fit_improvement,
    longterm_profile_curve,
    normalize_curve,
    summarize_alignment,
)
from .profiles import (
    ALOE_SLOTS,
    Profile,
    SlotMatcher,
    SlotSchema,
    build_overlap_bench,
    eval_matcher,
    normalize_text,
    overlap_count,
    precision_recall,
    profile_reward,
)
from .reward import (
    JudgeContext,
    ResponseJudgment,
    RuleJudge,
    combined_reward,
    response_reward,
)
from .rl import (
    CategoricalSlotPolicy,
    LinearValue,
    PPOConfig,
    RoundBatch,
    compute_gae,
    load_checkpoint,
    play,
    policy_ratio,
    ppo_surrogate,
    save_checkpoint,
    train,
    update,
)
from .scenarios import Scenario, generate_scenarios, load_scenarios, save_scenarios
from .user_sim import (
    ConflictSpec,
    UserConfig,
    UserState,
    UserUtterance,
    first_utterance,
    initial_state,
    next_utterance,
    theoretical_max,
)

__version__ = "0.1.0"
