"""Rotationally symmetric Kahler-Ricci flow toolkit.

Submodules:
  geometry  - metric profiles, coordinate changes, curvature
  soliton   - shrinking-soliton construction and constants
  grids     - nonuniform stencils, adapted meshes, the monotone resample
  states    - state and record types shared by the engines and analysis
  flow      - moving-boundary and dilated evolution engines
  analysis  - dilation, blow-up rate fits, the type-one monitor, series files
  barriers  - class membership, sub/supersolutions, comparison harness
  acceptance- the pinned verification criteria (A1..A14)
"""

from . import analysis, barriers, flow, geometry, grids, soliton, states

__version__ = "0.1.0"
