"""Dataset synthesis and ingestion for the experiment pipeline.

Two synthetic tracks: a correlated bivariate normal for density-based
evaluation, and 8x8 digit-like glyph images for the classifier-based
metrics.  Real digit images can be ingested from IDX files (big-endian
magic/dims header, unsigned bytes) and are resized to the glyph size.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

NORMAL2D_MEAN = np.array([1.0, 1.0])
NORMAL2D_COV = np.array([[1.0, 0.8], [0.8, 1.0]])


def sample_normal2d(n: int, rng: np.random.Generator) -> np.ndarray:
    """IID draws of the correlated bivariate normal via the Cholesky factor
    of its covariance."""
    if n < 1:
        raise ValueError("need at least one sample")
    return NORMAL2D_MEAN + rng.standard_normal((n, 2)) @ np.linalg.cholesky(NORMAL2D_COV).T


# 8x8 glyphs for the image-toy track, one per digit class.  Values are
# {0, 1} masks; rendering maps them into (-1, 1) with additive noise.
_GLYPH_ROWS = [
    ("00111100", "01000010", "01000010", "01000010", "01000010", "01000010", "01000010", "00111100"),
    ("00011000", "00111000", "00011000", "00011000", "00011000", "00011000", "00011000", "01111110"),
    ("00111100", "01000010", "00000010", "00000100", "00011000", "00100000", "01000000", "01111110"),
    ("00111100", "01000010", "00000010", "00011100", "00000010", "00000010", "01000010", "00111100"),
    ("00000100", "00001100", "00010100", "00100100", "01000100", "01111110", "00000100", "00000100"),
    ("01111110", "01000000", "01111100", "00000010", "00000010", "00000010", "01000010", "00111100"),
    ("00111100", "01000000", "01000000", "01111100", "01000010", "01000010", "01000010", "00111100"),
    ("01111110", "00000010", "00000100", "00001000", "00010000", "00100000", "00100000", "00100000"),
    ("00111100", "01000010", "01000010", "00111100", "01000010", "01000010", "01000010", "00111100"),
    ("00111100", "01000010", "01000010", "01000010", "00111110", "00000010", "00000010", "00111100"),
]

GLYPH_SIDE = 8


def glyph_templates(n_classes: int) -> np.ndarray:
    """Flat (n_classes, 64) templates with values in {-0.8, 0.8}."""
    if not 1 <= n_classes <= len(_GLYPH_ROWS):
        raise ValueError(f"n_classes must be in [1, {len(_GLYPH_ROWS)}]")
    grids = []
    for rows in _GLYPH_ROWS[:n_classes]:
        grid = np.array([[int(c) for c in row] for row in rows], dtype=np.float64)
        grids.append(grid.ravel() * 1.6 - 0.8)
    return np.stack(grids)


def make_digit_images(n: int, n_classes: int, noise: float,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Noisy glyph renderings clipped into (-1, 1), with class labels."""
    templates = glyph_templates(n_classes)
    labels = rng.integers(0, n_classes, size=n)
    images = templates[labels] + rng.normal(0.0, noise, size=(n, templates.shape[1]))
    return np.clip(images, -0.999, 0.999), labels


def read_idx(path) -> np.ndarray:
    """Parse one IDX file of unsigned bytes (type code 0x08), images or labels."""
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < 4 or blob[0] != 0 or blob[1] != 0:
        raise ValueError(f"bad IDX magic in {path}")
    if blob[2] != 0x08:
        raise ValueError(f"{path}: IDX type code 0x{blob[2]:02x} is not 0x08, unsigned bytes")
    offset = 4 + 4 * blob[3]
    if len(blob) < offset:
        raise ValueError(f"{path}: IDX header of {blob[3]} dims is cut at {len(blob)} bytes")
    dims = tuple(np.frombuffer(blob, dtype=">u4", count=blob[3], offset=4).tolist())
    data = np.frombuffer(blob, dtype=np.uint8, offset=offset)
    if data.size != math.prod(dims):
        raise ValueError(f"{path}: IDX payload size does not match header dims {dims}")
    return data.reshape(dims)


def _resize_weights(size: int, side: int) -> np.ndarray:
    """(side, size) weights of the corner-aligned linear resize that
    ``ndimage.zoom(order=1)`` runs, at most two per row.  A coordinate
    past the last pixel (27 / 13 * 13 > 27) is clamped to it, not zeroed."""
    coords = np.minimum(np.arange(side) * ((size - 1) / (side - 1)), size - 1)
    low = coords.astype(np.int64)[:, None]
    frac = coords[:, None] - low
    pixels = np.arange(size)
    return (1.0 - frac) * (pixels == low) + frac * (pixels == low + 1)


def load_idx_images(images_path, labels_path=None, side: int = GLYPH_SIDE
                    ) -> tuple[np.ndarray, np.ndarray | None]:
    """IDX images resized to (side, side) and scaled into (-1, 1)."""
    if side < 2:
        raise ValueError(f"IDX images need a side of at least 2, not {side}")
    raw = read_idx(images_path).astype(np.float64)
    if raw.ndim != 3:
        raise ValueError(f"{images_path}: expected a 3-d IDX image file")
    scaled = raw / 255.0 * 1.998 - 0.999
    if raw.shape[1:] != (side, side):
        scaled = (_resize_weights(raw.shape[1], side) @ scaled
                  @ _resize_weights(raw.shape[2], side).T)
    flat = scaled.reshape(len(scaled), -1)
    labels = None
    if labels_path is not None:
        labels = read_idx(labels_path).astype(np.int64)
        if labels.ndim != 1:
            raise ValueError(f"{labels_path}: expected a 1-d IDX label file")
        if len(labels) != len(flat):
            raise ValueError("image and label counts differ")
    return np.clip(flat, -0.999, 0.999), labels


def dataset_checksum(data: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(data, dtype="<f8").tobytes()).hexdigest()
