"""The five SPLASH-style benchmark applications (paper §3.3)."""

from . import locus, lu, mp3d, ocean, pthor
from .common import Workload, first_owned, owner_of
from .registry import APP_NAMES, PRESETS, build_app

__all__ = [
    "APP_NAMES",
    "PRESETS",
    "Workload",
    "build_app",
    "first_owned",
    "locus",
    "lu",
    "mp3d",
    "ocean",
    "owner_of",
    "pthor",
]
