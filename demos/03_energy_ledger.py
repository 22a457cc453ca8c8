"""Every run carries its own energy audit: half the squared norm plus the
accumulated dissipation integral must stay at its initial value.  The ledger
residual is the trapezoid's quadrature error, so halving the step divides it
by four.  The ledger also works out that error, q, from the snapshots alone;
what q leaves unexplained (the defect) is the solver's own.  For the
cellular vortex q is the closed form (2h coth 2h - 1)(E0 - E(T))/2, which
reduces to the textbook trapezoid error formula at small h.
"""

import numpy as np

from gevrey_ns import energy_ledger, integrate, make_grid, random_spectrum_field, taylor_green

grid = make_grid(32)

print("random data, |u0| = 1, t_end = 1:")
u0 = random_spectrum_field(grid, decay=3.0, k_max=6, seed=11, l2_norm=1.0)
prev = None
for dt in (2e-3, 1e-3, 5e-4):
    led = energy_ledger(integrate(u0, dt=dt, t_end=1.0, snapshot_times=[0.0, 0.5, 1.0]))
    note = "" if prev is None else f"  (ratio {prev / led.max_abs:.2f})"
    print(f"  dt={dt:7.1e}: max |residual| = {led.max_abs:.3e}, "
          f"max |q| = {np.max(np.abs(led.quadrature)):.3e}, "
          f"defect = {led.defect:.1e} <= {led.tolerance:.1e}{note}")
    prev = led.max_abs

print("\ncellular vortex (one shell, lam = 2), dt = 1e-3, t_end = 1:")
led = energy_ledger(integrate(taylor_green(grid, 1.0), dt=1e-3, t_end=1.0))
print(f"  measured residual {led.max_abs:.6e}")
print(f"  q                 {led.quadrature[-1]:.6e}   "
      f"(2h coth 2h - 1)(E0 - E(T))/2 ~ dt^2/12 * [g'(0) - g'(T)], g = 2 E0 e^-4t")
