"""Finding the period of f(x) = a^x mod L by Fourier interference.

Measuring the value register collapses the argument register onto an
arithmetic progression whose step is the period r. The Fourier transform
turns that comb into sharp peaks at multiples of N/r, and a continued
fraction expansion of peak/N recovers r classically.
"""

from collections import Counter

import numpy as np

from qregsim import outcome_distribution, run_shor_period

a, L = 7, 15
rng = np.random.default_rng(1)

# Classical ground truth for this desk-scale instance.
true_period = next(p for p in range(1, L) if pow(a, p, L) == 1)
print(f"f(x) = {a}^x mod {L}, true period {true_period}")
print("first table values:", [pow(a, x, L) for x in range(8)], "...")
print()

# One run with the value-register outcome pinned, so the comb is visible.
trace, result = run_shor_period(a, L, rng, force_v_outcome=7)
t3 = trace.state_at("t3")
support = sorted(
    t3.layout.label_of(int(i))["a"]
    for i in np.nonzero(np.abs(t3.amplitudes) > 1e-14)[0]
)
print(f"after measuring [v] = 7 the argument support is {support[:5]} ...")
print(f"an arithmetic progression of step {support[1] - support[0]}"
      f" with {len(support)} points")

peaks = outcome_distribution(trace.state_at("t4"), "a").as_dict()
print("transform peaks:", {z: round(p, 3) for z, p in peaks.items()})
print()

print(f"measured peak z = {result.measured_z} out of N = 256")
print("convergents of z/N:", [f"{c.numerator}/{c.denominator}" for c in result.convergents])
print("recovered period  :", result.recovered_period)
print()

# Statistics over independent runs: the peak z = 0 carries no information,
# so the single-run success probability is 3/4 here.
outcomes = Counter()
for seq in np.random.SeedSequence(99).spawn(300):
    _, res = run_shor_period(a, L, np.random.default_rng(seq))
    outcomes[res.recovered_period] += 1
print("recovered periods over 300 runs:", dict(outcomes))
