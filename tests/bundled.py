"""The data files bundled with indlab, for tests to read directly."""

import os

import indlab
from indlab import ks

DATA_DIR = os.path.join(os.path.dirname(indlab.__file__), "data")


def bundled_path(filename: str) -> str:
    return os.path.join(DATA_DIR, filename)


def bundled_problem(name: str) -> ks.ColoringProblem:
    """A bundled ray set: "peres33" or "demo_colorable"."""
    return ks.load_rays_file(bundled_path(f"{name}.rays"))
