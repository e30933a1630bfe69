"""Referential-game communities and estimators for cooperative language
acquisition."""

from .community import (
    Community,
    CommunityConfig,
    ListenerPolicy,
    SpeakerPolicy,
    build_community,
    load_community,
    save_community,
)
from .data import InteractionDataset, InteractionRecord, collect, load, save
from .evaluation import (
    ListenerReport,
    SpeakerReport,
    eval_listener,
    eval_speaker,
    report_csv,
)
from .games import (
    NULL_MESSAGE,
    GameSpec,
    Message,
    StepOutcome,
    Trajectory,
    enumerate_messages,
    enumerate_trajectories,
    game_fingerprint,
    lewis_game,
    make_trajectory,
    step,
    supermarket_game,
    trajectory_return,
)
from .inference import (
    BrocaModel,
    MapConfig,
    WernickeModel,
    boltzmann_message_likelihood,
    broca_emit,
    fit_broca,
    fit_wernicke,
    map_target,
    wernicke_decode,
)
from .semantics import (
    DetectorReport,
    DistanceConfig,
    message_distance,
    optimal_message,
    positive_listening_test,
    positive_signalling_test,
    semantic_distance,
    trajectory_distance,
)

__version__ = "0.1.0"
