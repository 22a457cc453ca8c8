"""The momentum equation turns the velocity at one instant into the whole
tuple of its time derivatives: differentiate the equation k-1 times, expand
the quadratic term with the Leibniz rule, and project out the pressure.
Stacks are built in the scaled variables v_k = t^k u^(k) / (2^k k!), where
the Leibniz coefficients cancel; stack.raw(k) rescales back to u^(k).

For the closed-form flows every entry is an exact multiple of the initial
pattern.  For generic data the entries are validated against centered
finite differences of a resolved trajectory.
"""

from gevrey_ns import (fd_convergence_check, integrate, make_grid, norm_l2,
                       random_spectrum_field, taylor_green, time_derivative_stack)

grid = make_grid(32)
tg = taylor_green(grid, 1.0)

print("cellular vortex: entry k must equal (-2)^k u")
stack = time_derivative_stack(tg, K=8, t=1.0)
for k in range(stack.depth + 1):
    ref = ((-2.0) ** k) * tg
    print(f"  k={k}: rel err {norm_l2(stack.raw(k) - ref) / norm_l2(ref):.2e}")

print("\nfinite-difference cross-check (random data, order-2 differences):")
u0 = random_spectrum_field(grid, decay=2.0, k_max=6, seed=12, l2_norm=0.25)
dt = 2.5e-3
hs = [4 * dt, 2 * dt, dt]
snaps = sorted({0.0, 0.5} | {round(0.5 + s * h, 10) for h in hs for s in (1, -1)})
traj = integrate(u0, dt=dt, t_end=0.5 + max(hs), snapshot_times=snaps)
res = fd_convergence_check(traj, 0.5, k=1, dt_list=hs)
for h, err in zip(res.spacings, res.errors):
    print(f"  h={h:7.1e}: |FD - recursion| = {err:.3e}")
print(f"  observed order {res.observed_order:.3f} (second-order differences)")

print("\nscaled entries v_k = t^k u^(k) / (2^k k!) of u(0.5) stay bounded at any depth:")
sc = time_derivative_stack(traj.fields[traj.times.index(0.5)], K=20, t=0.5)
print("  |v_k| =", ", ".join(f"{norm_l2(e):.2e}" for e in sc.entries[::4]))
