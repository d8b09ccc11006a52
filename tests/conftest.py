import numpy as np
import pytest

from slzsim import CameraModel, DroneState, RigidTransform


@pytest.fixture
def cam400():
    """800x800 camera with fx = fy = 400 and a centered principal point."""
    return CameraModel(fx=400.0, fy=400.0, cx=400.0, cy=400.0,
                       width=800, height=800)


def random_rotation(rng) -> np.ndarray:
    """Uniform random proper rotation: QR of a Gaussian matrix, signs fixed
    so that det = +1."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def nadir_w2c(x: float, y: float, z: float) -> RigidTransform:
    """World-to-camera transform of a straight-down camera at (x, y, z)."""
    return DroneState(np.array([x, y, z])).world_to_camera()
