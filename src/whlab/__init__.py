"""whlab: desk-scale numerics for Wiener-Hopf operators and the Moebius
geometry of positive-matrix semigroups.

Modules:
  spectra   Hermitian/unitary spectral decompositions, Cayley transform
  jordan    special Euclidean Jordan algebras and their positive cones
  moebius   the Moebius action on unitaries, Z geometry, pair encoding
  fell      Fell-topology convergence and order-compactification models
  toeplitz  truncated Wiener-Hopf operators on l^2({0..N}) tensor M_k
  groupoid  the discrete Wiener-Hopf groupoid convolution algebra
  fibers    quotient fibers (surjective case) and dilations (injective case)
  homotopy  contracting-homotopy verification on the compactifications
  suites    named verification suites behind the CLI
  cli       the `whlab` command
"""

__version__ = "0.1.0"

__all__ = [
    "spectra",
    "jordan",
    "moebius",
    "fell",
    "toeplitz",
    "groupoid",
    "fibers",
    "homotopy",
    "suites",
    "serialize",
    "cli",
]
