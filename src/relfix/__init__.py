"""relfix: a workbench for relational structures over recursive domain
equations on finite pointed posets.

Solve D = F(D, D) by the inverse-limit chain at finite depth, construct
the canonical relation on the solution by three independent fixed-point
methods, and exercise the surrounding theory: gluing duality, uniformity,
the ordered family of equivalences with its Cauchy limits and the
contractiveness of the relational operator, and the Karoubi envelope
machinery (idempotents, splittings, E_D, the slice equivalence).

Each name is imported from the module that defines it (for example
`from relfix.chain import build_chain`); importing the package itself
loads nothing else.
"""

from .version import __version__
