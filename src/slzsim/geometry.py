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
MAX_GRID_CELLS = 2**24     # head-plane grid cap: 16 MiB of uint8 cells
_OFF_DIAGONAL = ~np.eye(3, dtype=bool)


@dataclass(frozen=True)
class RigidTransform:
    """SE(3) transform; the public constructor validates orthonormality.

    Inverses and compositions of valid transforms are valid, so they are
    built by ``_unchecked``, which skips the checks.
    """

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

    @classmethod
    def _unchecked(cls, rotation: np.ndarray,
                   translation: np.ndarray) -> "RigidTransform":
        """Wrap a float (3, 3) rotation and (3,) translation as they are."""
        out = object.__new__(cls)
        object.__setattr__(out, "rotation", rotation)
        object.__setattr__(out, "translation", translation)
        return out

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one point (3,) or many points (n, 3)."""
        p = np.asarray(points, dtype=float)
        return p @ self.rotation.T + self.translation

    def inverse(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform._unchecked(rt, -rt @ self.translation)


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """Transform applying b first, then a."""
    return RigidTransform._unchecked(a.rotation @ b.rotation,
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

    def copy(self) -> "PlaneGrid":
        return PlaneGrid(self.origin_x, self.origin_y, self.cell_size,
                         self.rows, self.cols, self.values.copy())


def apply_geofence(grid: PlaneGrid, roi_side: float) -> None:
    """Mark cells outside the square ROI [0, roi_side]^2 as occupied; the
    world outside the ROI is unobserved and must not attract landing
    proposals. A cell is outside when its column's x or its row's y is, so
    the test runs over the 1-D coordinates of the columns and rows."""
    xs = grid.origin_x + np.arange(grid.cols) * grid.cell_size
    ys = grid.origin_y + np.arange(grid.rows) * grid.cell_size
    grid.values[(ys < 0) | (ys > roi_side)] = 0
    grid.values[:, (xs < 0) | (xs > roi_side)] = 0


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
    return _back_project(u, v, world_to_camera.inverse(), cam, plane)


def _back_project(u: float, v: float, cam_to_world: RigidTransform,
                  cam: CameraModel, plane: HeadPlane) -> np.ndarray:
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

    All cells start free. The camera center must be strictly above the plane,
    and the grid may hold at most ``MAX_GRID_CELLS`` cells; a larger one
    raises DegenerateView before anything is allocated.
    """
    cam_to_world = world_to_camera.inverse()
    if cam_to_world.translation[2] <= plane.h_h:
        raise DegenerateView("camera center must be above the head plane")
    corners = [(0.0, 0.0), (cam.width, 0.0), (0.0, cam.height),
               (cam.width, cam.height)]
    pts = np.array([_back_project(u, v, cam_to_world, cam, plane)
                    for u, v in corners])
    x_min, y_min = pts[:, 0].min() - margin, pts[:, 1].min() - margin
    x_max, y_max = pts[:, 0].max() + margin, pts[:, 1].max() + margin
    cols = int(np.ceil((x_max - x_min) / cell_size))
    rows = int(np.ceil((y_max - y_min) / cell_size))
    if rows * cols > MAX_GRID_CELLS:
        raise DegenerateView(f"head-plane grid of {rows} x {cols} cells "
                             f"exceeds the cap of {MAX_GRID_CELLS} cells")
    return PlaneGrid(x_min + cell_size / 2, y_min + cell_size / 2,
                     cell_size, rows, cols)


def sample_occupancy_to_plane(o, grid: PlaneGrid,
                              world_to_camera: RigidTransform,
                              cam: CameraModel, plane: HeadPlane,
                              return_visible: bool = False):
    """Project every grid cell center into the image and copy the nearest
    occupancy pixel. Cells mapping behind the camera or outside the image
    are marked occupied (safety overestimate).

    In general the cell centers are written into one (rows, cols, 3) array
    and transformed by a single ``pw @ R.T + t`` over the same (n, 3)
    layout as a stack of the centers, so every cell projects
    bit-identically. Each visible cell becomes a flat pixel index and all
    cells are read with one gather, the others from a 0 appended past the
    last pixel.

    An axis-aligned view, whose rotation has every off-diagonal entry
    exactly 0 (a nadir camera at yaw 0, an identity pose), projects
    separably, with bit-identical results: camera x is ``R[0,0]*x + t[0]``
    per column, camera y is ``R[1,1]*y + t[1]`` per row and the depth is one
    scalar, ``R[2,2]*h_h + t[2]``. Each element of ``pw @ R.T`` sums the same
    rounded product ``R[k,k]*c`` with two products by ±0, which are ±0
    exactly; adding ±0 changes no value, in any order and with or without
    FMA, so the result does not depend on the BLAS kernel (at most the sign
    of a zero differs, and every later test reads ±0 alike). The ops after
    it are the same scalar ops, taken per row or per column. At one depth
    ``u`` is monotone in the column and ``v`` in the row, so the visible
    cells form one block, read from the image with one ``np.ix_`` gather.

    With ``return_visible`` the result is ``(grid, visible)``: the bool
    (rows, cols) mask of the cells the camera sees, which are the cells an
    all-free image would sample to 255.
    """
    xs = grid.origin_x + np.arange(grid.cols) * grid.cell_size
    ys = grid.origin_y + np.arange(grid.rows) * grid.cell_size
    sample = (_sample_general if world_to_camera.rotation[_OFF_DIAGONAL].any()
              else _sample_axis_aligned)
    values, visible = sample(o, xs, ys, world_to_camera, cam, plane.h_h)
    out = PlaneGrid(grid.origin_x, grid.origin_y, grid.cell_size, grid.rows,
                    grid.cols, values)
    if return_visible:
        return out, visible
    return out


def _sample_axis_aligned(o, xs, ys, w2c: RigidTransform, cam: CameraModel,
                         h_h: float):
    r, t = w2c.rotation, w2c.translation
    values = np.zeros((len(ys), len(xs)), dtype=np.uint8)
    visible = np.zeros(values.shape, dtype=bool)
    lam = r[2, 2] * h_h + t[2]
    if not lam > 0:
        return values, visible
    u = cam.fx * (r[0, 0] * xs + t[0]) / lam + cam.cx
    v = cam.fy * (r[1, 1] * ys + t[1]) / lam + cam.cy
    cols = np.flatnonzero((u >= 0) & (u < o.width))
    rows = np.flatnonzero((v >= 0) & (v < o.height))
    if cols.size and rows.size:
        block = (slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1))
        values[block] = o.values[np.ix_(np.floor(v[block[0]]).astype(np.intp),
                                        np.floor(u[block[1]]).astype(np.intp))]
        visible[block] = True
    return values, visible


def _sample_general(o, xs, ys, w2c: RigidTransform, cam: CameraModel,
                    h_h: float):
    pw = np.empty((len(ys), len(xs), 3))
    pw[:, :, 0] = xs
    pw[:, :, 1] = ys[:, None]
    pw[:, :, 2] = h_h
    p_cam = pw.reshape(-1, 3) @ w2c.rotation.T
    # the translation is added column by column: the same sums as a
    # broadcast "+ t", without numpy's slow length-3 inner loop
    x, y, lam = (p_cam[:, i] + w2c.translation[i] for i in range(3))
    with np.errstate(divide="ignore", invalid="ignore"):
        u = cam.fx * x / lam + cam.cx
        v = cam.fy * y / lam + cam.cy
        # floor(u) lies in [0, width) exactly when u does; NaN fails all
        visible = ((lam > 0) & (u >= 0) & (u < o.width)
                   & (v >= 0) & (v < o.height))
        flat = np.where(visible, np.floor(v) * o.width + np.floor(u),
                        o.values.size).astype(np.intp)
    pixels = np.append(o.values.ravel(), np.uint8(0))
    return (pixels[flat].reshape(pw.shape[:2]),
            visible.reshape(pw.shape[:2]))
