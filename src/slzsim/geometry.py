"""Reference frames, pinhole projection onto the head plane, and grid resampling.

Coordinate conventions
======================
World frame (right-handed):
  - X, Y span the ground; Z points up (meters). The ground is Z = 0 and the
    head plane is the horizontal plane Z = h_h.

Camera frame (standard computer vision):
  - X right, Y down (in the image), Z forward along the optical axis.

Image coordinates:
  - Continuous (u, v) with the image spanning [0, width] x [0, height];
    pixel (row, col) covers [col, col+1) x [row, row+1), so the pixel
    containing a continuous point is (floor(v), floor(u)).

A RigidTransform maps point coordinates from a source frame to a destination
frame: p_dst = R @ p_src + t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BehindCamera, DegenerateView

ROTATION_TOL = 1e-9


@dataclass(frozen=True)
class RigidTransform:
    """SE(3) transform; validates orthonormality at construction."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        err = np.abs(r.T @ r - np.eye(3)).max()
        if err > ROTATION_TOL:
            raise ValueError(f"rotation not orthonormal (max deviation {err:.3e})")
        if abs(np.linalg.det(r) - 1.0) > ROTATION_TOL:
            raise ValueError("rotation must be a proper rotation (det = +1)")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one point (3,) or many points (n, 3)."""
        p = np.asarray(points, dtype=float)
        return p @ self.rotation.T + self.translation

    def inverse(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform(rt, -rt @ self.translation)


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """Transform applying b first, then a."""
    return RigidTransform(a.rotation @ b.rotation,
                          a.rotation @ b.translation + a.translation)


@dataclass(frozen=True)
class CameraModel:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (0 < self.fx < math.inf and 0 < self.fy < math.inf):
            raise ValueError("focal lengths fx and fy must be finite and positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")

    @property
    def intrinsics(self) -> np.ndarray:
        return np.array([[self.fx, 0.0, self.cx],
                         [0.0, self.fy, self.cy],
                         [0.0, 0.0, 1.0]])


@dataclass(frozen=True)
class HeadPlane:
    """Horizontal plane at average head height; all SLZ reasoning happens here."""

    h_h: float = 1.7

    def __post_init__(self):
        if not 0 < self.h_h < math.inf:
            raise ValueError("head plane height h_h must be finite and positive")


@dataclass
class PlaneGrid:
    """Metric raster on the head plane.

    Cell (i, j) has world-frame center
    (origin_x + j * cell_size, origin_y + i * cell_size).
    values: uint8 array of shape (rows, cols); 0 = occupied, 255 = free.
    """

    origin_x: float
    origin_y: float
    cell_size: float
    rows: int
    cols: int
    values: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.cell_size <= 0 or self.rows <= 0 or self.cols <= 0:
            raise ValueError("grid dimensions must be positive")
        if self.values is None:
            self.values = np.full((self.rows, self.cols), 255, dtype=np.uint8)
        else:
            self.values = np.asarray(self.values, dtype=np.uint8)
            if self.values.shape != (self.rows, self.cols):
                raise ValueError("values shape does not match rows/cols")
            v = self.values
            if not ((v == 0) | (v == 255)).all():
                raise ValueError("grid values must be 0 or 255")

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """World x and y coordinate arrays of shape (rows, cols)."""
        xs = self.origin_x + np.arange(self.cols) * self.cell_size
        ys = self.origin_y + np.arange(self.rows) * self.cell_size
        return np.meshgrid(xs, ys)

    def copy(self) -> "PlaneGrid":
        return PlaneGrid(self.origin_x, self.origin_y, self.cell_size,
                         self.rows, self.cols, self.values.copy())


def apply_geofence(grid: PlaneGrid, roi_side: float) -> None:
    """Mark cells outside the square ROI [0, roi_side]^2 as occupied; the
    world outside the ROI is unobserved and must not attract landing
    proposals."""
    gx, gy = grid.cell_centers()
    outside = (gx < 0) | (gx > roi_side) | (gy < 0) | (gy > roi_side)
    grid.values[outside] = 0


def project_plane_point(p_world, world_to_camera: RigidTransform,
                        cam: CameraModel) -> tuple[float, float, float]:
    """Project a head-plane point to image coordinates.

    Returns (x_I, y_I, lambda) where lambda is the camera-frame depth.
    Raises BehindCamera when the depth is not positive.
    """
    p_cam = world_to_camera.apply(np.asarray(p_world, dtype=float))
    lam = p_cam[2]
    if lam <= 0:
        raise BehindCamera(f"point has non-positive depth {lam:.6g}")
    u = cam.fx * p_cam[0] / lam + cam.cx
    v = cam.fy * p_cam[1] / lam + cam.cy
    return u, v, lam


def back_project_pixel(u: float, v: float, world_to_camera: RigidTransform,
                       cam: CameraModel, plane: HeadPlane) -> np.ndarray:
    """Intersect the ray through image point (u, v) with the head plane.

    Raises DegenerateView when the ray is parallel to the plane or the
    intersection lies behind the camera.
    """
    cam_to_world = world_to_camera.inverse()
    center = cam_to_world.translation
    d_cam = np.array([(u - cam.cx) / cam.fx, (v - cam.cy) / cam.fy, 1.0])
    d_world = cam_to_world.rotation @ d_cam
    if abs(d_world[2]) < 1e-15:
        raise DegenerateView("view ray parallel to head plane")
    s = (plane.h_h - center[2]) / d_world[2]
    if s <= 0:
        raise DegenerateView("view ray does not hit head plane in front of camera")
    return center + s * d_world


def grid_footprint(cam: CameraModel, world_to_camera: RigidTransform,
                   plane: HeadPlane, cell_size: float = 0.10,
                   margin: float = 1.0) -> PlaneGrid:
    """Axis-aligned grid covering the image's head-plane footprint plus margin.

    All cells start free. The camera center must be strictly above the plane.
    """
    center = world_to_camera.inverse().translation
    if center[2] <= plane.h_h:
        raise DegenerateView("camera center must be above the head plane")
    corners = [(0.0, 0.0), (cam.width, 0.0), (0.0, cam.height),
               (cam.width, cam.height)]
    pts = np.array([back_project_pixel(u, v, world_to_camera, cam, plane)
                    for u, v in corners])
    x_min, y_min = pts[:, 0].min() - margin, pts[:, 1].min() - margin
    x_max, y_max = pts[:, 0].max() + margin, pts[:, 1].max() + margin
    cols = int(np.ceil((x_max - x_min) / cell_size))
    rows = int(np.ceil((y_max - y_min) / cell_size))
    return PlaneGrid(x_min + cell_size / 2, y_min + cell_size / 2,
                     cell_size, rows, cols)


def sample_occupancy_to_plane(o, grid: PlaneGrid,
                              world_to_camera: RigidTransform,
                              cam: CameraModel, plane: HeadPlane,
                              return_visible: bool = False):
    """Project every grid cell center into the image and copy the nearest
    occupancy pixel. Cells mapping behind the camera or outside the image
    are marked occupied (safety overestimate).

    The cell centers are written into one (rows, cols, 3) array and
    transformed by a single ``pw @ R.T + t`` over the same (n, 3) layout as
    a stack of the centers, so every cell projects bit-identically. Each
    visible cell becomes a flat pixel index and all cells are read with
    one gather, the others from a 0 appended past the last pixel.

    With ``return_visible`` the result is ``(grid, visible)``: the bool
    (rows, cols) mask of the cells the camera sees, which are the cells an
    all-free image would sample to 255.
    """
    xs = grid.origin_x + np.arange(grid.cols) * grid.cell_size
    ys = grid.origin_y + np.arange(grid.rows) * grid.cell_size
    pw = np.empty((grid.rows, grid.cols, 3))
    pw[:, :, 0] = xs
    pw[:, :, 1] = ys[:, None]
    pw[:, :, 2] = plane.h_h
    p_cam = pw.reshape(-1, 3) @ world_to_camera.rotation.T
    # the translation is added column by column: the same sums as a
    # broadcast "+ t", without numpy's slow length-3 inner loop
    x, y, lam = (p_cam[:, i] + world_to_camera.translation[i]
                 for i in range(3))
    with np.errstate(divide="ignore", invalid="ignore"):
        u = cam.fx * x / lam + cam.cx
        v = cam.fy * y / lam + cam.cy
        # floor(u) lies in [0, width) exactly when u does; NaN fails all
        visible = ((lam > 0) & (u >= 0) & (u < o.width)
                   & (v >= 0) & (v < o.height))
        flat = np.where(visible, np.floor(v) * o.width + np.floor(u),
                        o.values.size).astype(np.intp)
    pixels = np.append(o.values.ravel(), np.uint8(0))
    out = PlaneGrid(grid.origin_x, grid.origin_y, grid.cell_size, grid.rows,
                    grid.cols, pixels[flat].reshape(grid.rows, grid.cols))
    if return_visible:
        return out, visible.reshape(grid.rows, grid.cols)
    return out
