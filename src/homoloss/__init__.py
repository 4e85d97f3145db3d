"""Homography-slab camera pose loss, baseline pose-regression losses, exact
closed-form gradients, and a desk-scale pose-refinement harness."""

__version__ = "0.1.0"

from .geometry import (
    Intrinsics,
    InvalidInputError,
    Pose,
    RelativePose,
    angle_between,
    project_points,
    quat_to_rotmat,
    relative_pose,
)
from .losses import (
    LossHyperParams,
    SlabParams,
    geometric_loss,
    homography_loss,
    homography_loss_closed,
    homoscedastic_loss,
    max_error_loss,
    posenet_loss,
)
from .diffgrad import (
    GradReport,
    LossContext,
    evaluate_with_grad,
    finite_diff_grad,
    grad_report,
)
from .scene import (
    DepthSlab,
    Frame,
    Scene,
    global_slab,
    local_slabs,
    parse_points,
    parse_pose_list,
    synth_scene,
)
from .optim import (
    OptimConfig,
    RunRecord,
    adam_update,
    landscape_sweep,
    mean_reproj_distance,
    optimize_poses,
    pct_within,
)
