"""Workload `contraction-metrics`: Theorem 3 conjugacies, exhaustive
metric scans, the padic norm laws and ball-swap homeomorphisms.

A round holds these certificates, all built from the seed:

* three Theorem 3 conjugacies at 3^10 residues, one per contraction R
  below, each under a seeded `digit_local` perturbation T = R + phi with
  delta = 3^-3, followed by `verify_conjugacy` (criterion 7 at 3^10);
* nine exhaustive metric scans (`estimate_lipschitz`, `scaling_profile`
  and `image_openness` of one map): each R and one seeded perturbation T
  of it with delta = p^-(k+1) at 3^5 residues, where |v| = p^-k is R's
  scaling factor, and `example2_R` at 2^6, 2^8 and 2^10 residues;
* TRIPLES seeded norm-law triples per prime p in {2, 3, 5} at 8 digits
  (criterion 1), each one certificate;
* HOMOG_CASES seeded `homogeneity_homeomorphism` cases at 3^5 residues
  (criterion 12).
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

from padic_dynamics import analysis, conjugacy, dynamics, padic
from padic_dynamics.errors import PadicDynamicsError
from padic_dynamics.padic import NormValue, PrecisionContext

from common import first_failure, norm_key, val

P = 3
THM3_DIGITS, THM3_DELTA_EXP = 10, 3
SCAN_DIGITS = 5
# (catalog name, parameters, k with R scaling distances by exactly p^-k)
CONTRACTIONS = (
    ("affine", {"v": 3, "w": 1}, 1),
    ("scaled_isometry", {"m": 1, "iso": "triangular", "seed": 4}, 1),
    ("scaled_isometry", {"m": 2, "iso": "alphabet", "seed": 9, "c": 2}, 2),
)
EXAMPLE2_DIGITS = (6, 8, 10)
NORM_PRIMES, NORM_DIGITS, TRIPLES = (2, 3, 5), 8, 1000
HOMOG_DIGITS, HOMOG_DELTA_EXP, HOMOG_CASES = 5, 2, 10


class ContractionMetrics:
    name = "contraction-metrics"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        big = PrecisionContext(P, THM3_DIGITS)
        small = PrecisionContext(P, SCAN_DIGITS)
        self.thm3_delta = NormValue(P, THM3_DELTA_EXP)
        self.thm3 = []                   # (R, phi) at 3^10
        self.scans = []                  # (k, R, phi) at 3^5
        for name, params, k in CONTRACTIONS:
            R = dynamics.builtin_map(name, big, **params)
            R.tabulate()
            self.thm3.append((R, dynamics.make_lipschitz_perturbation(
                big, "digit_local", self.thm3_delta, rng.randrange(1 << 20))))
            r = dynamics.builtin_map(name, small, **params)
            r.tabulate()
            self.scans.append((k, r, dynamics.make_lipschitz_perturbation(
                small, "digit_local", NormValue(P, k + 1),
                rng.randrange(1 << 20))))
        self.example2 = []
        for n in EXAMPLE2_DIGITS:
            e = dynamics.builtin_map("example2_R", PrecisionContext(2, n))
            e.tabulate()
            self.example2.append(e)
        self.triples = []
        for p in NORM_PRIMES:
            ctx = PrecisionContext(p, NORM_DIGITS)
            M = ctx.modulus
            self.triples += [(ctx, rng.randrange(M), rng.randrange(M),
                              rng.randrange(M)) for _ in range(TRIPLES)]
        self.homog_ctx = PrecisionContext(P, HOMOG_DIGITS)
        self.homog_delta = NormValue(P, HOMOG_DELTA_EXP)
        self.homog = [_proper_pair(rng, self.homog_ctx)
                      for _ in range(HOMOG_CASES)]

    def run_round(self, tick=lambda: None):
        """One batch of certificates: (outputs, attempted, failed).  tick()
        is called between certificates, where the runner may probe its
        speed."""
        out = {"thm3": [], "scans": [], "norms": [], "homog": []}
        failed = 0

        def attempt(key, fn, *args):
            nonlocal failed
            try:
                out[key].append(fn(*args))
            except PadicDynamicsError:
                failed += 1
            tick()

        for i, (R, phi) in enumerate(self.thm3):
            attempt("thm3", self._thm3, i, R, phi)
        for i, (k, r, phi) in enumerate(self.scans):
            attempt("scans", _scan, ("R", i, k), r, tick)
            attempt("scans", _scan, ("T", i, k), dynamics.perturb(r, phi), tick)
        for e in self.example2:
            attempt("scans", _scan, ("example2", 0, None), e, tick)
        for t in self.triples:
            attempt("norms", _norm_laws, *t)
        for ys, zs in self.homog:
            attempt("homog", self._homogeneity, ys, zs)
        attempted = (len(self.thm3) + 2 * len(self.scans) + len(self.example2)
                     + len(self.triples) + len(self.homog))
        return out, attempted, failed

    def _thm3(self, i, R, phi):
        T = dynamics.perturb(R, phi)
        h = conjugacy.build_conjugacy_thm3(R, T, THM3_DIGITS, self.thm3_delta)
        rep = conjugacy.verify_conjugacy(R, T, h)
        return {"i": i, "T": T.tabulate(), "h": h.table,
                "report": (norm_key(rep.max_defect), rep.injective,
                           norm_key(rep.closeness), rep.residues)}

    def _homogeneity(self, ys, zs):
        phi = conjugacy.homogeneity_homeomorphism(
            self.homog_ctx, ys, zs, self.homog_delta)
        return {"ys": ys, "zs": zs, "table": phi.table}

    # -- independent checks -------------------------------------------

    def check(self, out) -> dict:
        """Each check's failure message, or None when it holds."""
        scans = [s for s in out["scans"] if s["role"] != "example2"]
        return {
            "thm3_intertwining": first_failure(out["thm3"], self._bad_intertwining),
            "thm3_bijection_close": first_failure(out["thm3"], _bad_bijection),
            "thm3_fixed_point": first_failure(out["thm3"], self._bad_fixed_point),
            "thm3_report": first_failure(out["thm3"], _bad_thm3_report),
            "scaling_constants": first_failure(scans, _bad_constants),
            "scaling_profiles": first_failure(scans, _bad_profile),
            "openness": first_failure(
                scans, lambda s: None if s["rho"] == (P, s["k"], None)
                else f"{s['role']}{s['i']}: openness radius {s['rho']}"),
            "example2_constants": first_failure(
                [s for s in out["scans"] if s["role"] == "example2"],
                _bad_example2),
            "padic_values": first_failure(out["norms"], _bad_padic_values),
            "padic_laws": first_failure(
                out["norms"],
                lambda t: None if t["laws"] else f"norm laws fail on {t['abc']}"),
            "homogeneity": first_failure(out["homog"], _bad_homogeneity),
        }

    def _bad_intertwining(self, c):
        R, h, T = self.thm3[c["i"]][0].tabulate(), c["h"], c["T"]
        for x in range(len(h)):
            if R[h[x]] != h[T[x]]:
                return f"contraction {c['i']}: R(h({x})) != h(T({x}))"
        return None

    def _bad_fixed_point(self, c):
        R = self.thm3[c["i"]][0].tabulate()
        xr, xt = _fixed_point(R), _fixed_point(c["T"])
        if xr is None or xt is None or c["h"][xt] != xr:
            return (f"contraction {c['i']}: h(fix T) = h({xt}) is not "
                    f"fix R = {xr}")
        return None

    # -- corruptions for the self-test ----------------------------------

    def mutations(self) -> dict:
        """For each check, a corruption of one output that it must catch."""

        def edit(key, index, field, fn):
            def mutate(out):
                items = list(out[key])
                item = dict(items[index])
                item[field] = fn(item[field])
                items[index] = item
                return dict(out, **{key: items})
            return mutate

        def swap01(table):
            table = list(table)
            table[0], table[1] = table[1], table[0]
            return table

        def bump(x, d):
            def fn(table):
                table = list(table)
                table[x] = (table[x] + d) % len(table)
                return table
            return fn

        return {
            "thm3_intertwining": edit("thm3", 0, "h", swap01),
            "thm3_bijection_close": edit("thm3", 0, "h", bump(0, 1)),
            "thm3_fixed_point": lambda out: edit(
                "thm3", 0, "h", bump(_fixed_point(out["thm3"][0]["T"]),
                                     P ** THM3_DELTA_EXP))(out),
            "thm3_report": edit("thm3", 0, "report",
                                lambda r: ((P, THM3_DIGITS - 1, None),) + r[1:]),
            "scaling_constants": edit("scans", 0, "c1", lambda c: c / P),
            "scaling_profiles": edit(
                "scans", 1, "profile", lambda t: {**t, 0: t[0] + 1}),
            "openness": edit("scans", 0, "rho", lambda r: (P, r[1] + 1, None)),
            "example2_constants": edit("scans", -1, "c2", lambda c: c * 2),
            "padic_values": edit("norms", 0, "sum", _bump_padic),
            "padic_laws": edit("norms", 0, "laws", lambda ok: False),
            "homogeneity": lambda out: edit(
                "homog", 0, "table",
                bump(out["homog"][0]["ys"][0], 1))(out),
        }


def _proper_pair(rng, ctx):
    """Two proper sequences (length 2..10) within p^-3 of each other."""
    n = rng.randrange(2, 11)
    step = P ** (HOMOG_DELTA_EXP + 1)
    ys, zs = [], []
    while len(ys) < n:
        y = rng.randrange(ctx.modulus)
        z = (y + step * rng.randrange(ctx.modulus // step)) % ctx.modulus
        if y not in ys and z not in zs:
            ys.append(y)
            zs.append(z)
    return ys, zs


def _scan(tag, m, tick):
    role, i, k = tag
    est = analysis.estimate_lipschitz(m)
    tick()
    prof = analysis.scaling_profile(m)
    tick()
    rho = analysis.image_openness(m)
    return {"role": role, "i": i, "k": k, "digits": m.ctx.total_digits,
            "modulus": m.ctx.modulus,
            "c1": est.c1_lower, "c2": est.c2_upper,
            "exhaustive": est.exhaustive, "pairs": est.pairs,
            "profile": prof.table, "consistent": prof.consistent,
            "rho": None if rho is None else norm_key(rho)}


def _norm_laws(ctx, a, b, c):
    """Criterion 1 on one triple: ultrametric inequality (equality at
    distinct norms), multiplicativity where resolvable, translation
    isometry.  Calls go through the padic module's attributes."""
    p, N = ctx.prime, ctx.digit_budget
    x, y, z = ctx.from_int(a), ctx.from_int(b), ctx.from_int(c)
    nx, ny = padic.norm(x), padic.norm(y)
    s = padic.add(x, y)
    ns = padic.norm(s)
    laws = ns <= max(nx, ny) and (nx == ny or ns == max(nx, ny))
    pr = padic.mul(x, y)
    if not nx.is_zero and not ny.is_zero and nx.exponent + ny.exponent < N:
        laws = laws and padic.norm(pr) == NormValue(p, nx.exponent + ny.exponent)
    d1 = padic.sub(padic.add(x, z), padic.add(y, z))
    d2 = padic.sub(x, y)
    laws = laws and padic.norm(d1) == padic.norm(d2)
    return {"abc": (p, a, b, c), "sum": s, "product": pr, "shifted": d1,
            "difference": d2, "norms": (norm_key(nx), norm_key(ny)),
            "laws": laws}


def _value(x) -> Fraction:
    """The rational number a truncated p-adic digit vector encodes."""
    return sum((Fraction(d) * Fraction(x.prime) ** (x.base_exp + i)
                for i, d in enumerate(x.digits)), Fraction(0))


def _bad_padic_values(t):
    """Compare with exact rational arithmetic reduced mod p^N."""
    p, a, b, c = t["abc"]
    N = NORM_DIGITS
    mod = Fraction(p ** N)
    va, vb = val(a, p, N), val(b, p, N)
    expect = {
        "sum": (Fraction(a) + Fraction(b)) % mod,
        "difference": (Fraction(a) - Fraction(b)) % mod,
        "shifted": ((Fraction(a) + c) - (Fraction(b) + c)) % mod,
    }
    for key, want in expect.items():
        got = t[key]
        if len(got.digits) != N or got.base_exp != 0 or _value(got) != want:
            return f"{key} of {t['abc']} is {_value(got)}, expected {want}"
    pr = t["product"]
    known = min(N + va, N + vb)                # mul's provable precision
    if pr.base_exp != 0 or len(pr.digits) != known \
            or _value(pr) != (Fraction(a) * b) % (Fraction(p) ** known):
        return f"product of {t['abc']} is {_value(pr)} to {len(pr.digits)} digits"
    norm = lambda v: (p, None, N) if v >= N else (p, v, None)
    if t["norms"] != (norm(va), norm(vb)):
        return f"norms of {t['abc']} are {t['norms']}"
    return None


def _bump_padic(x):
    return dataclasses.replace(
        x, digits=((x.digits[0] + 1) % x.prime,) + x.digits[1:])


def _bad_constants(s):
    k, M = s["k"], s["modulus"]
    want = Fraction(1, P ** k)
    if not (s["c1"] == s["c2"] == want and s["exhaustive"]
            and s["pairs"] == M * (M - 1) // 2):
        return (f"{s['role']}{s['i']}: c1 {s['c1']}, c2 {s['c2']} over "
                f"{s['pairs']} pairs, expected {want} exhaustively")
    return None


def _bad_profile(s):
    """A map scaling every distance by p^-k has profile j -> j + k on every
    input level whose image distance stays above the resolution."""
    k = s["k"]
    want = {j: j + k for j in range(SCAN_DIGITS - k)}
    if not s["consistent"] or s["profile"] != want:
        return f"{s['role']}{s['i']}: profile {s['profile']}, expected {want}"
    return None


def _bad_example2(s):
    n, M = s["digits"], s["modulus"]
    if not (s["c1"] == Fraction(1, 2 ** (n // 2)) and s["c2"] == Fraction(1, 2)
            and s["exhaustive"] and s["pairs"] == M * (M - 1) // 2):
        return f"example2_R at 2^{n}: c1 {s['c1']}, c2 {s['c2']}"
    return None


def _fixed_point(table):
    """The fixed residue of a contraction table, by iterating from 0."""
    x = 0
    for _ in range(4 * len(table).bit_length()):
        if table[x] == x:
            return x
        x = table[x]
    return None


def _bad_bijection(c):
    h = c["h"]
    if sorted(h) != list(range(len(h))):
        return f"contraction {c['i']}: h is not a permutation"
    near = P ** THM3_DELTA_EXP
    for x in range(len(h)):
        if (h[x] - x) % near:
            return f"contraction {c['i']}: |h({x}) - {x}| > delta"
    return None


def _bad_thm3_report(c):
    h = c["h"]
    close = min(val((h[x] - x) % len(h), P, THM3_DIGITS)
                for x in range(len(h)))
    expected = ((P, None, THM3_DIGITS), True,
                (P, close, None) if close < THM3_DIGITS
                else (P, None, THM3_DIGITS), len(h))
    if c["report"] != expected:
        return (f"contraction {c['i']}: report {c['report']} != "
                f"recomputed {expected}")
    return None


def _bad_homogeneity(case):
    t = case["table"]
    if sorted(t) != list(range(len(t))):
        return "ball-swap product is not a permutation"
    if any(t[y] != z for y, z in zip(case["ys"], case["zs"])):
        return "ball-swap product misses a target"
    near = P ** HOMOG_DELTA_EXP
    if any((t[x] - x) % near for x in range(len(t))):
        return "ball-swap product moves a point by more than delta"
    return None
