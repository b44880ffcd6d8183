#!/usr/bin/env python3
# Ground truth by counting: for EVERY c, how many pi pass verification,
# compared against the audit oracle. The census tabulates verify's right
# side pair(h, pi) over all pi and looks up its left side pair(c, c/g),
# once on each factor of G = G_p x G_q, since a pairing across the two is
# 1. No argument about the forgery, just counting.

from paircommit import (
    accepting_census,
    audit,
    binding_key_from_exponent,
    forge,
    setup_transparent,
)

print("== census over n = 15 (p=3, q=5), h = g^3 ==")
ctx = setup_transparent(3, 5)
ck, _ = binding_key_from_exponent(ctx, 1)
result = accepting_census(ctx, ck)

print(f"{'c':>3}  {'#accepting pi':>13}  verdict")
for row in result.rows:
    print(f"{row.c_exp:>3}  {row.accepting_pi_count:>13}  {row.verdict_label}")
print(f"accepting pairs in total: {result.accepting_pairs}")
print(f"accepting c by verdict:   {result.accepting_c_by_verdict}")

accepting = result.accepting_exponents()
non_invalid = result.non_invalid_exponents()
print(f"\naccepting-c set equals the audit's non-Invalid set: "
      f"{accepting == non_invalid}")
print("that equality is the decisive check: an accepting proof exists exactly")
print("for the c the audit already calls a bit commitment.")

print("\n== where the forged pair lands, over n = 35 ==")
ctx35 = setup_transparent(5, 7)
ck35, _ = binding_key_from_exponent(ctx35, 3)
census35 = accepting_census(ctx35, ck35)
rec = forge(ck35, 5, 7, beta1=2)
c_exp = rec.c.c.value
row = census35.rows[c_exp]
verdict = audit(7, ck35, rec.c)
print(f"forged c = g^{c_exp}; census row: accepting_pi_count={row.accepting_pi_count}, "
      f"verdict={row.verdict_label}")
print(f"audit probes: c^q = 1? {verdict.c_in_gq};  (c/g)^q = 1? {verdict.c_over_g_in_gq}")
print(f"verdict: {verdict.label}")
if verdict.label == "CommitsTo1":
    # exhibit a witness: an r with c = g * h^r (h = g^15 here)
    w = next(w for w in range(35) if 15 * w % 35 == (c_exp - 1) % 35)
    print(f"indeed c = g * h^{w} = commit(m=1, r={w}): "
          f"g^(1 + 15*{w} mod 35) = g^{(1 + 15 * w) % 35}")
