"""Elemental-image sets as whole images, for the tests: a set built from an
(m, n, pixels_y, pixels_x) array, and the array of a set. The library holds
a set as blocks in windows (``ElementalImageSet``) and has no dense form."""

import numpy as np

from tiltview.reconstruction import ElementalImageSet


def _tightest(on):
    """The [start, stop) range from the first to the last true entry of each
    row of a 2D mask, [0, 0) for a row with none."""
    seen = on.any(axis=1)
    start = np.where(seen, on.argmax(axis=1), 0)
    stop = np.where(seen, on.shape[1] - on[:, ::-1].argmax(axis=1), 0)
    return np.stack([start, stop], axis=1)


def elemental_set(images, pitch, cfg, windows=False):
    """The set of the images ``images[p, q]``: every image a whole block, or
    with ``windows`` each image that holds a nonzero pixel a block in the
    tightest separable windows, the pixel rows where the images of lenslet
    column q hold one and the pixel columns where those of row p do."""
    images = np.asarray(images)
    m, n, rows, cols = images.shape
    if not windows:
        blocks = {(p, q): images[p, q] for p in range(m) for q in range(n)}
        return ElementalImageSet(blocks, rows, cols, pitch, cfg)
    on = images != 0
    row_spans, col_spans = _tightest(on.any(axis=(0, 3))), _tightest(on.any(axis=(1, 2)))
    blocks = {(p, q): images[p, q, slice(*row_spans[q]), slice(*col_spans[p])]
              for p, q in np.argwhere(on.any(axis=(2, 3))).tolist()}
    return ElementalImageSet(blocks, rows, cols, pitch, cfg,
                             row_spans=row_spans, col_spans=col_spans)


def dense(eis, dtype=None):
    """The images of a set as one (m, n, pixels_y, pixels_x) array, each
    block at its windows and zeros around it, in ``dtype`` or else the
    blocks' dtype (float64 for a set without a block)."""
    cfg = eis.capture_config
    if dtype is None:
        dtype = np.result_type(*eis.blocks.values()) if eis.blocks else np.float64
    out = np.zeros((cfg.m, cfg.n, eis.pixels_y, eis.pixels_x), dtype=dtype)
    for (p, q), block in eis.blocks.items():
        out[p, q, slice(*eis.row_spans[q]), slice(*eis.col_spans[p])] = block
    return out
