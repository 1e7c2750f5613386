"""A textured plane's bilinear lookup written out in scene coordinates, for
the tests: an oracle that does not go through ``TexturedPlane``'s methods."""

import numpy as np


def texture_at(plane, x, y):
    """The plane's intensity at the scene points (x, y), of their broadcast
    shape: bilinear between the four texels around each point, with the
    texels of the nearest edge for a point on it, and zero off the texture.
    Column 0 lies at the smallest x and row 0 at the largest y."""
    t = plane.texture
    rows, cols = t.shape
    fc = (np.asarray(x, dtype=float) + plane.half_width_x_mm) \
        / (2 * plane.half_width_x_mm) * (cols - 1)
    fr = (plane.half_width_y_mm - np.asarray(y, dtype=float)) \
        / (2 * plane.half_width_y_mm) * (rows - 1)
    inside = (fc >= 0) & (fc <= cols - 1) & (fr >= 0) & (fr <= rows - 1)
    c0 = np.clip(np.floor(fc).astype(int), 0, cols - 2)
    r0 = np.clip(np.floor(fr).astype(int), 0, rows - 2)
    wc = np.clip(fc - c0, 0.0, 1.0)
    wr = np.clip(fr - r0, 0.0, 1.0)
    vals = ((1 - wr) * (1 - wc) * t[r0, c0] + (1 - wr) * wc * t[r0, c0 + 1]
            + wr * (1 - wc) * t[r0 + 1, c0] + wr * wc * t[r0 + 1, c0 + 1])
    return np.where(inside, vals * plane.intensity_scale, 0.0)
