"""Physical constants used throughout the package: the CODATA values as
`scipy.constants` gives them, written out as literals because the
package has no runtime scipy.  A test pins each against scipy bit for
bit."""

import math

c = 299792458.0                 # m/s
h = 6.62607015e-34              # J s
hbar = h / (2 * math.pi)        # J s
k_B = 1.380649e-23              # J/K
mu_0 = 1.25663706127e-06        # N/A^2
mu_B = 9.2740100657e-24         # J/T
mu_N = 5.0507837393e-27         # J/T
atomic_mass = 1.66053906892e-27  # kg

GAUSS = 1e-4  # Tesla per Gauss
CM = 1e-2     # m per cm

__all__ = [
    "c", "h", "hbar", "k_B", "mu_0", "mu_B", "mu_N", "atomic_mass",
    "GAUSS", "CM",
]
