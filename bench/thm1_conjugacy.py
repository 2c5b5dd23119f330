"""Workload `thm1-conjugacy`: Theorem 1 conjugacies for perturbed shifts.

Inputs: seeded `digit_local` perturbations phi of `shift_zp` on Z_3 at
10 digits (M = 59,049 residues), delta = 3^-2, recursion depth 6, as in
acceptance criterion 4.  One certificate is, for one perturbation
g = f + phi, the conjugacy h (f o h = h o g), its inverse h-tilde and
`verify_conjugacy` on h.  A round is BATCH certificates.
"""

from __future__ import annotations

import random

from padic_dynamics import conjugacy, dynamics
from padic_dynamics.errors import PadicDynamicsError
from padic_dynamics.padic import NormValue, PrecisionContext

from common import first_failure, norm_key, val

P, DIGITS, DELTA_EXP, DEPTH = 3, 10, 2, 6
BATCH = 2            # perturbations per round
SAMPLE = 2000        # residues re-derived by the benchmark's own recursion


class Thm1Conjugacy:
    name = "thm1-conjugacy"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.ctx = ctx = PrecisionContext(P, DIGITS)
        self.delta = NormValue(P, DELTA_EXP)
        self.f = dynamics.builtin_map("shift_zp", ctx)
        self.family = dynamics.shift_right_inverses(ctx)
        for mp in (self.f, *self.family.members):
            mp.tabulate()
        self.phis = [dynamics.make_lipschitz_perturbation(
            ctx, "digit_local", self.delta, s)
            for s in rng.sample(range(1 << 20), BATCH)]
        self.sample = rng.sample(range(ctx.modulus), SAMPLE)

    def run_round(self, tick=lambda: None):
        """One batch of certificates: (outputs, attempted, failed).  tick()
        is called between steps, where the runner may probe its speed."""
        f, family, delta = self.f, self.family, self.delta
        certs = []
        failed = 0
        for phi in self.phis:
            g = dynamics.perturb(f, phi)
            try:
                h = conjugacy.build_conjugacy_thm1(f, family, g, delta, DEPTH)
                tick()
                hinv = conjugacy.build_inverse_conjugacy_thm1(
                    f, family, g, delta, DEPTH)
                tick()
                rep = conjugacy.verify_conjugacy(f, g, h)
            except PadicDynamicsError:
                failed += 1
                continue
            finally:
                tick()
            certs.append({
                "seed": phi.map.params["seed"], "g": g.tabulate(),
                "h": h.table, "hinv": hinv.table,
                "report": (norm_key(rep.max_defect), rep.injective,
                           norm_key(rep.closeness), rep.residues),
            })
        return {"certs": certs}, len(self.phis), failed

    # -- independent checks -------------------------------------------

    def check(self, out) -> dict:
        """Each check's failure message, or None when it holds."""
        certs = out["certs"]
        return {
            "intertwining": first_failure(certs, _bad_intertwining),
            "bijection": first_failure(certs, _bad_bijection),
            "closeness": first_failure(certs, _bad_closeness),
            "round_trip": first_failure(certs, _bad_round_trip),
            "recursion_sample": first_failure(certs, self._bad_recursion),
            "verify_report": first_failure(certs, _bad_report),
        }

    def _bad_recursion(self, c):
        h, g = c["h"], c["g"]
        for x in self.sample:
            if (h[x] - _recursion(g, x)) % P ** DEPTH:
                return (f"seed {c['seed']}: h({x}) disagrees with the "
                        "backward recursion")
        return None

    # -- corruptions for the self-test ----------------------------------

    def mutations(self) -> dict:
        """For each check, a corruption of one output that it must catch."""
        M = self.ctx.modulus
        x0 = self.sample[0]

        def edit(key, fn):
            def mutate(out):
                c = dict(out["certs"][0])
                c[key] = fn(c[key])
                return {"certs": [c] + out["certs"][1:]}
            return mutate

        def shifted(d):
            def fn(table):
                table = list(table)
                table[x0] = (table[x0] + d) % M
                return table
            return fn

        def collide(table):
            table = list(table)
            table[x0] = table[(x0 + 1) % M]
            return table

        return {
            "intertwining": edit("h", shifted(P ** (DELTA_EXP + 1))),
            "bijection": edit("h", collide),
            "closeness": edit("h", shifted(1)),
            "round_trip": edit("hinv", shifted(1)),
            "recursion_sample": edit("h", shifted(P ** (DELTA_EXP + 1))),
            "verify_report": edit(
                "report", lambda r: (_norm_of(DEPTH - 1),) + r[1:]),
        }


def _norm_of(v: int) -> tuple:
    """norm_key of the norm p^-v at DIGITS digits (v == DIGITS is zero)."""
    return (P, None, DIGITS) if v >= DIGITS else (P, v, None)


# The shift f(x) = x // p is evaluated here, not through the program.

def _recursion(g: list, x: int) -> int:
    """h(x) = x + z_0 from the depth-6 backward recursion along the
    g-orbit of x, with R_i(y) = i + p*y and index i = x_n mod p."""
    M = len(g)
    orbit = [x]
    for _ in range(DEPTH):
        orbit.append(g[orbit[-1]])
    z = 0
    for n in range(DEPTH - 1, -1, -1):
        i = orbit[n] % P
        z = ((i + P * ((orbit[n + 1] + z) % M)) - orbit[n]) % M
    return (x + z) % M


def _bad_intertwining(c):
    h, g = c["h"], c["g"]
    for x in range(len(h)):
        if (h[x] // P - h[g[x]]) % P ** DEPTH:
            return f"seed {c['seed']}: f(h({x})) != h(g({x})) mod 3^{DEPTH}"
    return None


def _bad_bijection(c):
    if sorted(c["h"]) != list(range(len(c["h"]))):
        return f"seed {c['seed']}: h is not a permutation of the residues"
    return None


def _bad_closeness(c):
    h = c["h"]
    for x in range(len(h)):
        if (h[x] - x) % P ** (DELTA_EXP + 1):
            return f"seed {c['seed']}: |h({x}) - {x}| > delta/p"
    return None


def _bad_round_trip(c):
    h, hinv = c["h"], c["hinv"]
    for x in range(len(h)):
        if (hinv[h[x]] - x) % P ** DEPTH:
            return f"seed {c['seed']}: h~(h({x})) != {x} mod 3^{DEPTH}"
    return None


def _bad_report(c):
    """verify_conjugacy's report against the benchmark's own scan."""
    h, g = c["h"], c["g"]
    M = len(h)
    defect = min(val((h[x] // P - h[g[x]]) % M, P, DIGITS) for x in range(M))
    close = min(val((h[x] - x) % M, P, DIGITS) for x in range(M))
    expected = (_norm_of(defect), True, _norm_of(close), M)
    if c["report"] != expected:
        return f"seed {c['seed']}: report {c['report']} != recomputed {expected}"
    return None
