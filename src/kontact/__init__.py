"""kontact: a symbolic/numeric engine for k-contact geometry.

Exact-rational expression trees feed an exterior-calculus layer on explicit
charts; on top sit k-contact structure verification, Reeb frames, Legendrian
parametrizations, the pointwise field-equation solver with its pseudo-gauge
nullspace, the extensive-hydrodynamics chart, and the boost-invariant
expansion worked example.  Import from the modules themselves
(kontact.forms, kontact.zerotest, ...); kontact.cli is the command line.
"""

__version__ = "0.1.0"
