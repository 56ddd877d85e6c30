"""Exact verifier for the graded match between the minimal nilpotent
orbit closure of a simply laced Lie algebra and the cohomology of the
minimal resolution of the matching Kleinian singularity.

Import from the submodules, for example ``minorbit.cli`` or
``minorbit.rootsys``; the package itself exports nothing else."""

__version__ = "0.1.0"
