"""Remote hypothesis testing over a noisy channel.

The observer sees the source, but the decision maker only sees the output of
a discrete memoryless channel fed by a two-codeword scheme. The achievable
region is the intersection of a source branch (the direct region of P vs Q)
and a channel branch (the region generated by a transmitted-pair law on the
channel input); the corner as kappa_alpha -> 0 is
min{D(P||Q), E_c} with E_c the largest pairwise row divergence.
"""

import numpy as np

from errexp import (Channel, ChannelPairLaw, Pmf, channel_d_bounds,
                    channel_max_divergence, channel_region_point, kappa0,
                    kl_divergence, rht_tradeoff)

p = Pmf((0, 1), [0.5, 0.5])
q = Pmf((0, 1), [0.2, 0.8])
ch = Channel.bsc(0.35)

# E_c: the best single-bit protection the channel can offer.
e_c, pair = channel_max_divergence(ch)
print(f"E_c(BSC(0.35)) = {e_c:.6f} nats, achieved by input pair {pair}")
print(f"D(P||Q)        = {kl_divergence(p, q):.6f} nats")
print(f"kappa0         = {kappa0(p, q, ch):.6f} nats (Stein corner)")

# The channel branch for a fixed transmitted-pair law: a point mass on the
# maximally separated input pair gives the widest threshold interval.
law = ChannelPairLaw.point_mass((0, 1), (0, 1))
d_min, d_max = channel_d_bounds(ch, law)
print(f"\npoint-mass law interval: (-{d_min:.6f}, {d_max:.6f})")
for theta in (-d_min + 1e-6, 0.0, d_max - 1e-6):
    pt = channel_region_point(ch, law, theta)
    print(f"theta = {theta:+.6f}  ->  "
          f"kappa_alpha = {pt.kappa_alpha:.6f}  kappa_beta = {pt.kappa_beta:.6f}")

# The full trade-off maximizes over transmitted-pair laws, a maximum attained
# by a point mass on one input pair, and couples the two branches through a
# shared kappa_alpha.
print("\nremote trade-off (max over pair laws):")
print("  kappa_alpha  kappa_beta")
kas = np.array([1e-4, 0.005, 0.02, 0.05, 0.10])
for ka, kb in zip(kas, rht_tradeoff(p, q, ch, kas)):
    print(f"  {ka:11.4f}  {kb:10.6f}")

# Sanity: the remote region is inside the direct region of the source pair,
# so the remote kappa_beta never exceeds the direct one.
from errexp import direct_tradeoff
for ka in (0.005, 0.02, 0.05):
    assert rht_tradeoff(p, q, ch, ka) <= direct_tradeoff(p, q, ka) + 1e-9
print("containment in the direct region verified")
