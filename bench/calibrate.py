"""A fixed CPU load, timed as a child beside every CLI child to gauge how
fast the host runs at that moment (see CALIBRATION_REFERENCE_S in
workloads.py).

It does the kind of work epimc spends its time on (tuple keys, frozensets,
dict inserts and iteration) and never changes, so its time moves only with
the speed of the host.
"""

table = {}
for i in range(150_000):
    table[(i, i % 7)] = frozenset((i % 5, i % 3))
total = 0
for members in table.values():
    total += len(members)
