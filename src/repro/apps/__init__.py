"""The five SPLASH-style benchmark applications (paper §3.3)."""

from . import locus, lu, mp3d, ocean, pthor
from .common import Workload
from .registry import APP_NAMES, PRESETS, build_app

__all__ = [
    "APP_NAMES",
    "PRESETS",
    "Workload",
    "build_app",
    "locus",
    "lu",
    "mp3d",
    "ocean",
    "pthor",
]
