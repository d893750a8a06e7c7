"""Exact calculus for deformed Heisenberg mode algebras and their modules.

Subpackages:

* :mod:`qheis.scalar` -- the coefficient field Q(q, l) with exact arithmetic;
* :mod:`qheis.series` -- truncated formal Laurent distributions with
  certified exactness windows;
* :mod:`qheis.kernels` -- rational kernels with restricted denominators,
  parsing, printing and directed expansion;
* :mod:`qheis.liealg` -- the bracket catalog for the deformed mode algebras
  and their graded limit;
* :mod:`qheis.fock` -- vacuum modules, normal ordering and matrix elements
  of products of generating functions;
* :mod:`qheis.vertexops` -- ordinary and exponential-coordinate products of
  fields, with the identity catalog behind the verifier;
* :mod:`qheis.cli` -- the command-line interface.
"""

__version__ = "0.1.0"
