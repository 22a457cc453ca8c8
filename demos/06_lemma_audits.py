"""Desk-scale audits of the two auxiliary inequalities, plus the empirical
interpolation constant.

The factorial-ratio bound is checked with exact integer arithmetic: the
printed form min(2^-ja, 2^-(k-j)a) fails already at (k, j) = (6, 1), while
the corrected form 2^(-a min(j, k-j)) survives exhaustive enumeration.
The l^{4/3} x l^{4/3} x l^2 convolution pairing never exceeds its bound.
"""

from gevrey_ns import config_from_dict, lemma_audit_ccc0, lemma_audit_convolution
from gevrey_ns.verify import estimate_c0_from_config

audit = lemma_audit_ccc0(k_max=20, alphas=[0.5, 1.0, 2.0])
print(f"factorial-ratio audit to k = 20: {len(audit.rows)} rows")
print(f"  printed-bound violations:   {len(audit.printed_violations)}")
print(f"  corrected-bound violations: {len(audit.corrected_violations)}")
sample = next(r for r in audit.rows if (r.k, r.j, r.alpha) == (6, 1, 1.0))
print(f"  example (k=6, j=1, a=1): ratio {sample.ratio:.5f} vs printed bound "
      f"{sample.printed_bound:.5f} -> violated; corrected bound "
      f"{sample.corrected_bound:.5f} -> holds")

conv = lemma_audit_convolution(trials=10_000, n_max=32, seed=0)
print(f"\nconvolution inequality, {conv.trials} random triples: "
      f"worst pairing/bound ratio {conv.worst_ratio:.12f}")

print("\nempirical interpolation constant (preconditioned gradient ascent on the "
      "Rayleigh ratio), as runs on two grids read it:")
for n in (32, 64):
    cfg = config_from_dict({"n": n, "c0": {"mode": "estimate", "n_samples": 5,
                                           "ascent_steps": 80}})
    est = estimate_c0_from_config(cfg)
    print(f"  n={n}: C0 ~ {est.value:.6f}  "
          f"(trials per start {est.trials}, at most {est.ascent_steps})")
