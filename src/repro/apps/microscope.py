"""Virtual Microscope processing kernels (real NumPy implementations).

The paper's digitized-microscopy server processes client queries
through *Clipping*, *Subsampling* and *Viewing* operations (Section 2,
refs [5, 6, 9]).  The timing experiments only need the measured cost
(18 ns/byte); these kernels are the actual image operations, used by
the examples to show end-to-end data flow with real pixels and by
tests to pin down the semantics:

* :func:`clip` — cut a query region out of a block, padding where the
  region hangs off the block;
* :func:`subsample` — integer down-sampling by block averaging (the
  magnification change of a microscope);
* :func:`compose` — paint processed block fragments onto the output
  grid (the Viewing step).

All functions operate on 2-D ``uint8`` arrays (one byte per pixel,
matching the dataset model).
"""

from __future__ import annotations

from typing import Tuple, TYPE_CHECKING

from repro.apps.dataset import ImageDataset, Region
from repro.errors import WorkloadError

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["make_test_slide", "block_pixels", "clip", "subsample", "compose", "render_query"]


def make_test_slide(dataset: ImageDataset, seed: int = 0) -> np.ndarray:
    """A deterministic synthetic slide: smooth gradient + seeded texture
    (stands in for a scanned specimen; see DESIGN.md substitutions)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    y = np.arange(dataset.height, dtype=np.float64)[:, None]
    x = np.arange(dataset.width, dtype=np.float64)[None, :]
    gradient = (
        127.0 * (1 + np.sin(x / 97.0) * np.cos(y / 131.0))
    )
    texture = rng.integers(0, 32, size=(dataset.height, dataset.width))
    return np.clip(gradient + texture, 0, 255).astype(np.uint8)


def block_pixels(slide: np.ndarray, dataset: ImageDataset, block_id: int) -> np.ndarray:
    """The pixel tile of one storage block (a view, not a copy)."""
    r = dataset.block_region(block_id)
    return slide[r.y0:r.y1, r.x0:r.x1]


def clip(tile: np.ndarray, tile_region: Region, query_region: Region) -> Tuple[np.ndarray, Region]:
    """Clip *tile* (covering *tile_region*) to *query_region*.

    Returns the overlapping pixels and the sub-region they cover.
    Raises when the tile and query do not overlap (the repository
    should never have fetched that block).
    """
    x0 = max(tile_region.x0, query_region.x0)
    y0 = max(tile_region.y0, query_region.y0)
    x1 = min(tile_region.x1, query_region.x1)
    y1 = min(tile_region.y1, query_region.y1)
    if x1 <= x0 or y1 <= y0:
        raise WorkloadError(
            f"block {tile_region} does not intersect query {query_region}"
        )
    out = tile[y0 - tile_region.y0:y1 - tile_region.y0,
               x0 - tile_region.x0:x1 - tile_region.x0]
    return out, Region(x0, y0, x1, y1)


def subsample(pixels: np.ndarray, factor: int) -> np.ndarray:
    """Down-sample by *factor* using block averaging.

    The input dimensions must be divisible by *factor* (the microscope
    magnifications are powers of two over power-of-two tiles).
    """
    if factor < 1:
        raise WorkloadError(f"subsample factor must be >= 1, got {factor}")
    if factor == 1:
        return pixels
    h, w = pixels.shape
    if h % factor or w % factor:
        raise WorkloadError(
            f"{h}x{w} tile not divisible by subsample factor {factor}"
        )
    import numpy as np

    reshaped = pixels.reshape(h // factor, factor, w // factor, factor)
    return reshaped.mean(axis=(1, 3)).astype(np.uint8)


def compose(
    canvas: np.ndarray,
    fragment: np.ndarray,
    fragment_region: Region,
    query_region: Region,
    factor: int,
) -> None:
    """Paint a subsampled fragment onto the query's output canvas.

    The canvas covers ``query_region`` subsampled by ``factor``;
    ``fragment_region`` locates the fragment in full-resolution
    coordinates.
    """
    ox = (fragment_region.x0 - query_region.x0) // factor
    oy = (fragment_region.y0 - query_region.y0) // factor
    h, w = fragment.shape
    canvas[oy:oy + h, ox:ox + w] = fragment


def render_query(
    slide: np.ndarray,
    dataset: ImageDataset,
    query_region: Region,
    factor: int = 1,
) -> np.ndarray:
    """Full pipeline for one query: fetch blocks -> clip -> subsample ->
    compose.  Reference implementation; the distributed examples do the
    same work spread over DataCutter filters."""
    if query_region.width % factor or query_region.height % factor:
        raise WorkloadError("query region must be divisible by the factor")
    import numpy as np

    canvas = np.zeros(
        (query_region.height // factor, query_region.width // factor),
        dtype=np.uint8,
    )
    for block_id in dataset.blocks_for_region(query_region):
        tile_region = dataset.block_region(block_id)
        tile = block_pixels(slide, dataset, block_id)
        clipped, clip_region = clip(tile, tile_region, query_region)
        # Align the clip to the subsample lattice of the query.
        sub = subsample(clipped, factor) if clipped.shape[0] % factor == 0 and clipped.shape[1] % factor == 0 else subsample(
            clipped[: clipped.shape[0] // factor * factor,
                    : clipped.shape[1] // factor * factor], factor
        )
        compose(canvas, sub, clip_region, query_region, factor)
    return canvas
