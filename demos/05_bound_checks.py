"""The four audited bounds, end to end: solver -> derivative stacks ->
weighted functionals -> margins.  Each report row carries its own error
budget (trapezoid quadrature estimate plus series truncation), and the
verdict requires margin >= -budget at every checked time.
"""

from gevrey_ns import check_theorem, config_from_dict

# a fixed C0 for the demo; it lies below estimate-c0's 0.23207 at n = 32, itself a
# lower bound of the sharp constant (which is at least 0.2389)
C0 = 0.227

base = {
    "n": 32, "dt": 0.005, "t_end": 2.0,
    "snapshot_times": [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0],
    "stack_depth": 8, "alpha": 1.0,
    "c0": {"mode": "fixed", "value": C0},
}


def show(rep, label):
    print(f"\n{label}: status={rep.status} verdict={rep.verdict}")
    for row in rep.rows[:4]:
        extra = f" (n={int(row['n'])})" if "n" in row else ""
        print(f"  t={row['t']:<10.4g} lhs={row['lhs']:.4e} rhs={row['rhs']:.4e} "
              f"margin={row['margin']:+.3e}{extra}")
    if len(rep.rows) > 4:
        print(f"  ... {len(rep.rows) - 4} more rows")


# small data: global bound by the initial energy
small = dict(base)
small["initial_data"] = {"kind": "random_spectrum", "decay": 2.0, "k_max": 8,
                         "seed": 3, "l2_norm": 0.3}
show(check_theorem(1, config_from_dict(small)), "bound 1 (small data, RHS = |u0|^2)")

# large data: doubling bound, one row set per depth n
large = dict(base)
large["dt"] = 0.002
large["t_end"] = 1.0
large["snapshot_times"] = [0.0, 0.25, 0.5, 0.75, 1.0]
large["initial_data"] = {"kind": "random_spectrum", "decay": 2.0, "k_max": 8,
                         "seed": 5, "l2_norm": 5.0}
large["theorem2_n_max"] = 3
show(check_theorem(2, config_from_dict(large)), "bound 2 (large data, doubling RHS)")

# fluctuation bound: the run is rescoped to the analytic existence time T0, in
# 8 snapshot intervals with dt as the largest step (here T0 < 8 dt: 8 steps)
rep3 = check_theorem(3, config_from_dict(large))
show(rep3, f"bound 3 (fluctuation, T0 = {rep3.params['T0']:.3e})")

# accelerated decay: envelope fitted on [1, 5], checked from the admissible origin
decay = dict(base)
decay["t_end"] = 5.0
decay["snapshot_times"] = [round(0.25 * i, 3) for i in range(21)]
decay["initial_data"] = {"kind": "random_spectrum", "decay": 3.0, "k_max": 6,
                         "seed": 7, "l2_norm": 1.0}
decay["decay_window"] = [1.0, 5.0]
rep4 = check_theorem(4, config_from_dict(decay))
show(rep4, f"bound 4 (decay envelope, K={rep4.params['K_fit']:.3f}, "
           f"gamma={rep4.params['gamma_fit']:.3f}, t0={rep4.params['t0']:.3f})")
