"""Speed probe: times a fixed pure-Python workload and prints the seconds it took.

    python3 perfbench/probe.py

run.py starts one probe per core between rounds.  The probe does the kinds
of work racahmod does: interpreter-bound Fraction arithmetic, dict updates
and big-int products, then random reads over a few MB of int objects, which
is slowed by contention for the shared caches as racahmod's matrices are.
It imports nothing from racahmod, so no change to the program can move it:
it measures only how fast the machine runs Python at that moment.
"""

import random
import time
from fractions import Fraction

start = time.perf_counter()
acc, table = Fraction(0), {}
for i in range(1, 20000):
    acc += Fraction(i % 7, i % 5 + 1)
    table[i % 97] = table.get(i % 97, 0) + i * i
rng = random.Random(1)
data = [rng.getrandbits(62) for _ in range(60_000)]
order = list(range(len(data)))
rng.shuffle(order)
total = 0
for i in order:
    total = (total + data[i] * data[i - 1]) % 1_000_000_007
    table[data[i] & 4095] = total
print(time.perf_counter() - start)
