"""Scrubbing transforms beyond metadata stripping (§3.6 "paranoia levels").

The paper's menu for images: (a) strip EXIF, (b) blur detectable faces
with OpenCV, (c) reduce resolution and add noise to disrupt unknown
watermarks.  For documents: strip metadata, or reconstruct the document
as a series of bitmaps — destroying anything concealed in its text or
vector structure (§4.3's screenshot-reassembly mode).
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Union

from repro.errors import SanitizeError
from repro.sanitize.fileformats import FaceRegion, SimDocument, SimImage
from repro.sanitize.mat import MatScrubber

SimFile = Union[SimImage, SimDocument]
Transform = Callable[[SimFile], SimFile]

_mat = MatScrubber()


def strip_metadata(parsed: SimFile) -> SimFile:
    """Transform (a): MAT metadata removal."""
    if isinstance(parsed, SimImage):
        return _mat.scrub_image(parsed)
    if isinstance(parsed, SimDocument):
        return _mat.scrub_document(parsed)
    raise SanitizeError(f"cannot strip metadata from {type(parsed).__name__}")


def blur_faces(parsed: SimFile) -> SimFile:
    """Transform (b): blur every detectable face (the OpenCV path)."""
    if not isinstance(parsed, SimImage):
        return parsed
    return SimImage(
        width=parsed.width,
        height=parsed.height,
        pixel_seed=parsed.pixel_seed,
        exif=dict(parsed.exif),
        faces=[
            FaceRegion(f.x, f.y, f.width, f.height, blurred=True)
            for f in parsed.faces
        ],
        watermark_id=parsed.watermark_id,
        noise_level=parsed.noise_level,
    )


def add_noise(parsed: SimFile, amount: float = 0.15, downscale: float = 0.5) -> SimFile:
    """Transform (c): downscale and add noise to disrupt watermarks.

    Each application degrades the image; once accumulated noise crosses
    the detectability threshold, embedded watermarks no longer read out.
    """
    if not isinstance(parsed, SimImage):
        return parsed
    if not 0 < downscale <= 1:
        raise SanitizeError(f"downscale must be in (0, 1], got {downscale}")
    return SimImage(
        width=int(parsed.width * downscale),
        height=int(parsed.height * downscale),
        pixel_seed=parsed.pixel_seed,
        exif=dict(parsed.exif),
        faces=list(parsed.faces),
        watermark_id=parsed.watermark_id,
        noise_level=parsed.noise_level + amount,
    )


def rasterize_document(parsed: SimFile) -> SimFile:
    """Document -> bitmap pages: only what a viewer *displays* survives.

    Reconstructing the document as screenshots drops metadata, revision
    history, and hidden text in one stroke (§4.3's second scrubbing mode);
    a page of visible text becomes a page image of the same visible text.
    """
    if not isinstance(parsed, SimDocument):
        return parsed
    return SimDocument(
        pages=[f"[bitmap render] {page}" for page in parsed.pages],
        metadata={},
        revision_history=[],
        hidden_text=[],
    )


class ParanoiaLevel(enum.Enum):
    """User-selectable scrubbing aggressiveness."""

    LOW = "low"  # metadata only
    MEDIUM = "medium"  # + face blurring
    HIGH = "high"  # + watermark disruption, document rasterization


def _high_image_pipeline(parsed: SimFile) -> SimFile:
    result = strip_metadata(parsed)
    result = blur_faces(result)
    # Two noise passes push accumulated noise past the watermark threshold.
    result = add_noise(result, amount=0.15)
    result = add_noise(result, amount=0.15)
    return result


PARANOIA_LEVELS: Dict[ParanoiaLevel, List[Transform]] = {
    ParanoiaLevel.LOW: [strip_metadata],
    ParanoiaLevel.MEDIUM: [strip_metadata, blur_faces],
    ParanoiaLevel.HIGH: [_high_image_pipeline, rasterize_document],
}


def apply_level(parsed: SimFile, level: ParanoiaLevel) -> SimFile:
    """Run every transform of a paranoia level in order."""
    result = parsed
    for transform in PARANOIA_LEVELS[level]:
        result = transform(result)
    return result
