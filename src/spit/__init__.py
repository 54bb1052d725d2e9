"""Spectral-projected interior trajectories for periodic sphere packings.

Import names from the module that defines them (`spit.geometry`,
`spit.barrier`, `spit.projection`, `spit.dynamics`, `spit.spectral`,
`spit.rigidity`, `spit.harness`, `spit.errors`); the package itself
re-exports nothing.
"""

__version__ = "0.1.0"
