"""Application registry: build any of the five benchmarks by name.

Three size presets are provided:

* ``tiny``  — seconds-scale runs for unit/integration tests;
* ``default`` — the sizes used by the experiment harness (reduced from
  the paper's, see DESIGN.md for the scaling argument);
* ``large`` — closer to paper scale, for patient machines.
"""

from __future__ import annotations

from typing import Callable

from . import locus, lu, mp3d, ocean, pthor
from .common import Workload

APP_NAMES = ("mp3d", "lu", "pthor", "locus", "ocean")

_BUILDERS: dict[str, Callable[..., Workload]] = {
    "mp3d": mp3d.build,
    "lu": lu.build,
    "pthor": pthor.build,
    "locus": locus.build,
    "ocean": ocean.build,
}

_PRESETS: dict[str, dict[str, dict]] = {
    "tiny": {
        "mp3d": {"n_particles": 160, "steps": 2, "grid": (8, 4, 4)},
        "lu": {"n": 24},
        "pthor": {"n_elements": 300, "n_inputs": 32, "clocks": 2,
                  "window": 60},
        "locus": {"n_wires": 64, "rows": 12, "cols": 48},
        "ocean": {"n": 20, "steps": 2},
    },
    "default": {
        "mp3d": {},
        "lu": {},
        "pthor": {},
        "locus": {},
        "ocean": {},
    },
    "large": {
        "mp3d": {"n_particles": 10000, "grid": (64, 8, 8)},
        "lu": {"n": 200},
        "pthor": {"n_elements": 11000, "n_inputs": 256, "clocks": 5,
                  "window": 120},
        "locus": {"n_wires": 1266, "rows": 18, "cols": 481},
        "ocean": {"n": 98},
    },
}

#: The size presets, smallest first.
PRESETS = tuple(_PRESETS)


def build_app(
    name: str,
    n_procs: int = 16,
    preset: str = "default",
    **overrides,
) -> Workload:
    """Build application ``name`` at a given size preset.

    Any keyword argument of the application's ``build`` function can be
    overridden explicitly.
    """
    if name not in _BUILDERS:
        raise ValueError(
            f"unknown application {name!r}; choose from {APP_NAMES}"
        )
    if preset not in _PRESETS:
        raise ValueError(
            f"unknown preset {preset!r}; choose from {sorted(_PRESETS)}"
        )
    kwargs = dict(_PRESETS[preset][name])
    kwargs.update(overrides)
    return _BUILDERS[name](n_procs=n_procs, **kwargs)
