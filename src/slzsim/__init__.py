"""Visual safe-landing-zone pipeline and desk-scale landing simulator."""

from .density import (DensityMap, OccupancyGrid, OracleNoiseConfig,
                      load_density, occupancy_from_density,
                      render_oracle_density, save_density)
from .errors import (BehindCamera, ConfigError, DegenerateView,
                     EmptyGroundTruth, MalformedFile, PlacementFailure,
                     SingularInnovation, SlzSimError)
from .geometry import (CameraModel, HeadPlane, PlaneGrid, RigidTransform,
                       back_project_pixel, compose, grid_footprint,
                       project_plane_point, sample_occupancy_to_plane)
from .metrics import (MetricsReport, aggregate, best_iou, ground_truth_slz,
                      replay_annotations, risk_counts)
from .slz import (DistanceMap, SlzConfig, SlzProposal, extract_slz,
                  euclidean_distance_transform)
from .tracking import (StepEvents, TrackManager, TrackState, TrackerConfig,
                       circle_iou, hungarian_assign, kf_predict, kf_update)
from .world import (Actor, DroneState, MissionLog, ScenarioConfig, WorldState,
                    landing_policy_step, random_walk_step, select_target,
                    simulate_mission, spawn_scenario)

__version__ = "0.1.0"
