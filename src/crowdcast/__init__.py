"""Group-aware pedestrian trajectory prediction.

Detects groups from sustained proximity, scores their cohesion as an
emotion value, retrieves candidate destinations from historical tracks,
rolls each candidate out with a social-force integrator, and reconstructs
member trajectories from the group trajectory and emotion.
"""

from .core import (
    Config,
    DataError,
    SceneGeometry,
    TooFewPointsError,
    Tracks,
    Trajectory,
    TrajectoryDatabase,
    average_direction,
    build_database,
    parse_scene,
    read_canonical_csv,
    resample_trajectory,
    velocity_at,
    write_canonical_csv,
)
from .dynamics import (
    ForceParams,
    ReconstructionPolicy,
    SimState,
    constant_velocity_baseline,
    make_sim_state,
    predict_group_trajectory,
    reconstruct_members,
    step,
)
from .evaluate import (
    MetricReport,
    Window,
    ade,
    fde,
    min_over_candidates,
    run_experiment,
)
from .grouping import (
    GroupState,
    IntimacyGraph,
    build_intimacy_graph,
    extract_groups,
    group_center_trajectory,
    group_emotion,
    make_group_state,
    pairwise_intimacy,
)
from .ingest import Homography, ParseError, parse_obsmat, to_canonical
from .pipeline import (
    GroupPrediction,
    detect_groups,
    group_candidates,
    predict_at_endtime,
)
from .retrieval import (
    Candidate,
    QueryPose,
    candidate_destinations,
    linear_continuation,
    query_similar,
)

__version__ = "0.1.0"

__all__ = [
    "Candidate",
    "Config",
    "DataError",
    "ForceParams",
    "GroupPrediction",
    "GroupState",
    "Homography",
    "IntimacyGraph",
    "MetricReport",
    "ParseError",
    "QueryPose",
    "ReconstructionPolicy",
    "SceneGeometry",
    "SimState",
    "TooFewPointsError",
    "Tracks",
    "Trajectory",
    "TrajectoryDatabase",
    "Window",
    "ade",
    "average_direction",
    "build_database",
    "build_intimacy_graph",
    "candidate_destinations",
    "constant_velocity_baseline",
    "detect_groups",
    "extract_groups",
    "fde",
    "group_candidates",
    "group_center_trajectory",
    "group_emotion",
    "linear_continuation",
    "make_group_state",
    "make_sim_state",
    "min_over_candidates",
    "pairwise_intimacy",
    "parse_obsmat",
    "parse_scene",
    "predict_at_endtime",
    "predict_group_trajectory",
    "query_similar",
    "read_canonical_csv",
    "reconstruct_members",
    "resample_trajectory",
    "run_experiment",
    "step",
    "to_canonical",
    "velocity_at",
    "write_canonical_csv",
]
