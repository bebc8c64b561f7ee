"""The identity suite end to end: individual relationship checks, then the
aggregated report the `verify` command emits.

Run:  python demos/identity_suite_tour.py
"""

import json
from fractions import Fraction as F

from biperiodic import SeqParams, family_checks, run_full_suite

p = SeqParams(2, 3)
print("=" * 72)
print(f"Individual identity records, a = {p.a}, b = {p.b}")
print("=" * 72)
for check in family_checks("thm6", p, 3):
    print(f"  {check.name:<14} n={check.index_args} holds={check.holds}")
for check in family_checks("thm7", p, 3, 4):
    print(f"  {check.name:<14} (m,n)={check.index_args} holds={check.holds}")
for check in family_checks("thm8 power", p, 2, 4) + family_checks("thm8 spread", p, 4, 1):
    print(f"  {check.name:<14} idx={check.index_args} holds={check.holds}")
print()

variant = family_checks("thm6 control", p, 1)[0]
print("A negative control (inverted middle-member ratio) at odd n:")
print(f"  {variant.name}: holds={variant.holds}")
print(f"  lhs = {variant.lhs}")
print(f"  rhs = {variant.rhs}")
print()

grid = [SeqParams(2, 3), SeqParams(F(1, 2), 4), SeqParams(2, -2)]
report = run_full_suite(grid, 8)
print(f"Aggregated run over {len(grid)} parameter pairs, indices <= 8:")
print(f"  checks run        : {report.checks_run}")
print(f"  failures          : {len(report.failures)}")
print(f"  skipped           : {[s.name for s in report.skipped]}")
print(f"  expected failures : {[x.check.name for x in report.expected_failures]}")
print()

print("The JSON shape the CLI's `verify` prints (truncated):")
doc = report.to_json_dict()
doc["expected_failures"] = doc["expected_failures"][:1]
print(json.dumps(doc, indent=2)[:1200], "...")
