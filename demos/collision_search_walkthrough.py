"""Walk through one run of the hidden-spacing collision algorithm.

The oracle is a 2-to-1 table over 2-bit arguments whose collision partners
sit a fixed spacing r apart. A single quantum evaluation of the table,
followed by a measurement of the value register, leaves the argument
register holding a superposition of exactly the two arguments that collide,
something a classical solver can only find by inverting the table.
"""

import numpy as np

from qregsim import build_two_to_one, classical_collision_solve, run_simon, solve_simon

rng = np.random.default_rng(7)

# The smallest interesting instance: n = 2, spacing r = 2, table [0, 1, 0, 1].
oracle = build_two_to_one(2, 2, (0, 1), family="two_to_one_arith")
print("oracle table :", dict(enumerate(oracle.table.tolist())))
print("spacing r    :", oracle.params["r"])
print()

# One run, forcing the value-register outcome to 1 so the printout is stable.
trace = run_simon(oracle, rng, force_v_outcome=1)
for label, state in trace.checkpoints:
    print(f"{label}:  {state}")
print()

record_v, record_a = trace.measurements
print(f"measured [v] = {record_v.outcome}  (probability {record_v.probability:.2f})")
print(f"measured [a] = {record_a.outcome}  (probability {record_a.probability:.2f})")
print("note: after t3 the argument register holds BOTH preimages of f =",
      record_v.outcome)
print()

# Each run contributes one linear constraint on r (popcount(r & z) even).
# A handful of runs pins r exactly.
result = solve_simon(oracle, rng)
print(f"constraints gathered : {result.constraints}")
print(f"recovered spacing    : {result.recovered_r}  after {result.runs_used} runs,"
      f" one oracle evaluation each")
print()

# The classical baseline can only evaluate the table forward.
solution = classical_collision_solve(oracle, strategy="exhaustive")
print(f"classical collision  : f({solution.x1}) = f({solution.x2}) = "
      f"{solution.f_value} after {solution.queries_used} lookups")

# The gap widens with n: the quantum side still uses one evaluation per run.
print()
print("growth of the classical search (birthday probing, one seed):")
for n in (4, 6, 8):
    big = build_two_to_one(n, int(rng.integers(1, 1 << n)), rng)
    queries = classical_collision_solve(big, strategy="birthday", rng=rng).queries_used
    runs = solve_simon(big, rng).runs_used
    print(f"  n={n}: classical {queries:3d} lookups vs quantum {runs} runs x 1 evaluation")
