"""The pole scan as it was before it told points apart by exact integers:
every candidate (c, d, l, k) forms t0 = (k/l)(c tau + d), and each hit is
kept once per t0 rounded to nine decimals, component and symbol.  Kept as
the reference ``lefschetz.pole_scan`` must match hit for hit.
"""

import math

from ellrig.lefschetz import PoleHit
from ellrig.theta import TauPoint


def reference_pole_scan(data, tau, c_range, d_range, l_max):
    tau = TauPoint.coerce(tau)
    hits = []
    seen = set()
    for c in c_range:
        for d in d_range:
            if math.gcd(c, d) != 1:
                continue
            for l in range(1, int(l_max) + 1):
                for k in range(0, l + 1):
                    t0 = (k / l) * (c * tau.value + d)
                    for ctx in data.contexts:
                        for sym, m in ctx.comp.normal:
                            if (m * k * c) % l or (m * k * d) % l:
                                continue
                            key = (round(t0.real, 9), round(t0.imag, 9),
                                   ctx.comp.name, sym)
                            if key in seen:
                                continue
                            seen.add(key)
                            hits.append(PoleHit(
                                t=t0, k=k, l=l, c=c, d=d,
                                component=ctx.comp.name, symbol=sym, rotation=m,
                                lattice=(m * k * d // l, m * k * c // l),
                            ))
    return hits
