"""Distributed hypothesis testing over a channel: separation vs uncoded.

A sensor sees U, the tester sees V locally and receives a description of U
over a noisy channel. Two achievability schemes for the type-II exponent at
type-I exponent budget kappa_alpha:

  * separation (SHTCC): quantize U, protect the description with channel
    coding, combine E_x / E_sp with the quantized testing exponent (this
    demo prints only its zero-rate expurgated line E_x(0), an upper bound
    on the channel term);
  * joint uncoded (JHTCC): send U through the channel directly and test the
    (V, Y) pair, via a KL-ball information projection.

On the bundled Example-1 model (uniform P_UV versus anti-diagonal Q_UV over
BSC(0.35)) the uncoded scheme wins at small kappa_alpha and the separation
scheme's zero-rate expurgated line takes over past a crossover near 0.004.
"""

import numpy as np

from errexp import (AuxiliaryDesign, Channel, JointPmf, SourceModel,
                    compare_schemes, jhtcc_uncoded, jhtcc_uncoded_opt,
                    kl_ball_projection)

# --- the KL-ball projection primitive ------------------------------------
ref = JointPmf((0, 1), (0, 1), [[0.4, 0.1], [0.1, 0.4]])
tgt = JointPmf((0, 1), (0, 1), [[0.25, 0.25], [0.25, 0.25]])
for kappa in (0.0, 0.02, 1.0):
    minimizer, value = kl_ball_projection(ref, tgt, kappa)
    print(f"kappa_alpha = {kappa:.2f}: projected divergence = {value:.6f}")
print("(0 -> reference itself; large radius -> reaches the target, value 0)\n")

# --- Example-1 model ------------------------------------------------------
p_uv = JointPmf(("0", "1"), ("0", "1"), np.full((2, 2), 0.25))
q_uv = JointPmf(("0", "1"), ("0", "1"), [[0.0, 0.5], [0.5, 0.0]])
model = SourceModel(p_uv, q_uv)
ch = Channel.bsc(0.35)

# Uncoded bound at kappa_alpha = 0 with the identity input map: a closed-form
# divergence between the induced (V, Y) laws.
identity = AuxiliaryDesign.identity_uncoded(2)
at_zero = jhtcc_uncoded(model, ch, 0.0, identity)
oracle = 0.5 * np.log(0.25 / 0.325) + 0.5 * np.log(0.25 / 0.175)
print(f"uncoded bound at kappa_alpha = 0: {at_zero:.7f} (closed form {oracle:.7f})")

# Optimizing the input map helps little here; the identity is near-optimal.
report = jhtcc_uncoded_opt(model, ch, 0.002)
print(f"optimized uncoded at kappa_alpha = 0.002: {report.value:.6f} "
      f"(feasible = {report.feasible})\n")

# --- scheme comparison and crossover --------------------------------------
rows, crossover = compare_schemes(model, ch, [0.001, 0.004, 0.008])
print("kappa_alpha   separation(E_x0)   uncoded")
for sep, joint in rows:
    print(f"  {sep.kappa_alpha:.3f}       {sep.value:.6f}         {joint.value:.6f}")
print(f"crossover at kappa_alpha ~= {crossover:.4f}")
