"""Workload inputs, calls and output checks for the wittcalc benchmark.

Each workload is a sequence of rounds.  A round has a fixed composition:
the expensive sizes appear in every round, and the cheap calls take their
parameters from a pool.  Pools are built from a fixed pool seed, so every
call the benchmark can make has a pinned result digest in ``pinned.json``;
the run seed only chooses which pool items each round takes and the order
of the calls.  A fixed composition keeps the cost of a round nearly the
same for every seed, which is what makes the end-to-end figures steady.

Nothing here imports wittcalc at module level: the calls look functions up
on the package when they run, so the tracer's patched bindings are seen.
"""
from __future__ import annotations

import hashlib
import importlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

POOL_SEED = 20180626
WORKLOADS = ("counts", "forms", "cli")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURE = ROOT / "tests" / "fixtures" / "lines_counts.txt"
PINNED = HERE / "pinned.json"


@dataclass
class Call:
    kind: str
    key: str  # a readable description of the input; pins are keyed by it
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    probe: bool = False  # a known-defect probe: expected to fail today
    deadline_s: float | None = None
    argv: tuple[str, ...] | None = None  # cli calls only


def pin_key(call: Call) -> str:
    return hashlib.sha1(f"{call.kind}:{call.key}".encode()).hexdigest()[:12]


def result_digest(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()[:12]


def load_pins() -> dict[str, dict[str, str]]:
    return json.loads(PINNED.read_text())


def lines_fixture() -> dict[int, int]:
    out = {}
    for line in FIXTURE.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            d, n = line.split()
            out[int(d)] = int(n)
    return out


def wc():
    return importlib.import_module("wittcalc")


# ---------------------------------------------------------------------------
# independent arithmetic for building inputs and checking outputs


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


SMALL_PRIMES = [p for p in range(3, 400) if is_probable_prime(p)]


def double_factorial(m: int) -> int:
    out = 1
    while m > 1:
        out, m = out * m, m - 2
    return out


def cell_signature(dims) -> tuple[int, int]:
    dims = list(dims)
    even = sum(1 for d in dims if d % 2 == 0)
    return len(dims), even - (len(dims) - even)


def gr2_dims(n: int):
    return [a + b for a in range(n - 1) for b in range(a + 1)]


def describe(x: Any) -> str:
    """Canonical result text for digests, computed outside the timed call.

    GW classes are shown grouped by multiplicity, which stays short when a
    class has a large rank but few distinct square classes.
    """
    w = wc()
    if isinstance(x, w.GWClass):
        return f"{w.format_gw_grouped(x)} rank {x.rank} sig {x.signature}"
    if isinstance(x, w.QForm):
        return f"{x.field} {w.format_form(x)}"
    if isinstance(x, w.FormInvariants):
        hasse = sorted((str(k), v) for k, v in x.hasse.items())
        return f"rank {x.rank} sig {x.signature} disc {x.disc} hasse {hasse}"
    if isinstance(x, w.WittClass):
        return f"{x.field} {w.format_witt(x)}"
    if isinstance(x, tuple):
        return "(" + ", ".join(describe(v) for v in x) + ")"
    return str(x)


# ---------------------------------------------------------------------------
# rounds


class Rounds:
    """Round r of a workload: the fixed calls plus, for each pooled kind,
    the next slice of that pool in a seed-dependent order."""

    def __init__(self, fixed: list[Call], pooled: list[tuple[list[Call], int]], seed: int):
        self.fixed = fixed
        self.pooled = pooled
        self.seed = seed
        rng = random.Random(seed)
        self.orders = [rng.sample(range(len(pool)), len(pool)) for pool, _ in pooled]

    def round(self, r: int) -> list[Call]:
        calls = list(self.fixed)
        for (pool, k), order in zip(self.pooled, self.orders):
            for i in range(r * k, (r + 1) * k):
                calls.append(pool[order[i % len(pool)]])
        random.Random(f"{self.seed}:{r}").shuffle(calls)
        return calls

    def all_calls(self) -> list[Call]:
        out = list(self.fixed)
        for pool, _ in self.pooled:
            out.extend(pool)
        return out


def build(workload: str, seed: int) -> Rounds:
    return {"counts": counts_rounds, "forms": forms_rounds, "cli": cli_rounds}[workload](seed)


# ---------------------------------------------------------------------------
# counts: large-rank GW classes with few distinct square classes


def _gw_check(rank: int, signature: int) -> Callable[[Any], bool]:
    return lambda x: x.rank == rank and x.signature == signature


def _bundle_tree(rng: random.Random, depth: int = 0):
    """A random bundle expression over E1..E4, as nested tuples tagged
    gen, sum, tensor, sym or det."""
    g = lambda: ("gen", rng.randint(1, 4))
    choice = rng.random()
    if depth == 0 and choice < 0.5:
        parts = [_bundle_tree(rng, 1) for _ in range(rng.randint(2, 3))]
        return ("sum", parts)
    if choice < 0.3:
        return ("tensor", g(), g())
    if choice < 0.55:
        return ("sym", rng.choice((1, 2, 3)), g())
    if choice < 0.75:
        return ("det", rng.choice((1, -1)), _bundle_tree(rng, depth + 1) if depth == 0 else g())
    return g()


def _bundle_text(t) -> str:
    tag = t[0]
    if tag == "gen":
        return f"E{t[1]}"
    if tag == "sum":
        return " (+) ".join(_bundle_text(p) for p in t[1])
    if tag == "tensor":
        return f"{_bundle_text(t[1])} (x) {_bundle_text(t[2])}"
    if tag == "sym":
        return f"Sym({t[1]},{_bundle_text(t[2])})"
    return f"det{'+' if t[1] > 0 else '-'}({_bundle_text(t[2])})"


def _labels(t, out: set) -> set:
    if t[0] == "gen":
        out.add(t[1])
    elif t[0] == "sum":
        for p in t[1]:
            _labels(p, out)
    elif t[0] == "tensor":
        _labels(t[1], out)
        _labels(t[2], out)
    else:
        _labels(t[2], out)
    return out


class IntPoly:
    """Reference polynomials with integer coefficients in e_1..e_n."""

    def __init__(self, gens, terms):
        self.gens, self.terms = gens, {k: c for k, c in terms.items() if c}

    @classmethod
    def const(cls, gens, c):
        return cls(gens, {(0,) * len(gens): c})

    @classmethod
    def gen(cls, gens, label):
        return cls(gens, {tuple(int(g == label) for g in gens): 1})

    def __add__(self, o):
        t = dict(self.terms)
        for k, c in o.terms.items():
            t[k] = t.get(k, 0) + c
        return IntPoly(self.gens, t)

    def __mul__(self, o):
        t: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in o.terms.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                t[k] = t.get(k, 0) + c1 * c2
        return IntPoly(self.gens, t)

    def scale(self, c):
        return IntPoly(self.gens, {k: c * v for k, v in self.terms.items()})


def reference_class(t, gens, kind: str) -> IntPoly:
    """Euler or total Pontryagin class of a bundle tree, by the closed
    formulas of the charclass module docstring, over the integers."""
    one = IntPoly.const(gens, 1)
    tag = t[0]
    if tag == "gen":
        e = IntPoly.gen(gens, t[1])
        return e if kind == "euler" else one + e * e
    if tag == "sum":
        out = one
        for p in t[1]:
            out = out * reference_class(p, gens, kind)
        return out
    if tag == "tensor":
        e1, e2 = IntPoly.gen(gens, t[1][1]), IntPoly.gen(gens, t[2][1])
        diff = e1 * e1 + (e2 * e2).scale(-1)
        if kind == "euler":
            return diff
        return one + (e1 * e1 + e2 * e2).scale(2) + diff * diff
    if tag == "sym":
        m, e = t[1], IntPoly.gen(gens, t[2][1])
        if kind == "euler":
            if m % 2 == 0:
                return IntPoly(gens, {})
            out = IntPoly.const(gens, double_factorial(m))
            for _ in range((m + 1) // 2):
                out = out * e
            return out
        out = one
        for i in range(m // 2 + 1):
            out = out * (one + (e * e).scale((m - 2 * i) ** 2))
        return out
    inner = reference_class(t[2], gens, kind)
    return inner.scale(t[1]) if kind == "euler" else inner


def _witt_poly_matches(x, ref: IntPoly) -> bool:
    # every coefficient of these classes is an integer multiple of <1>
    got = {}
    for k, c in x.terms.items():
        if set(c.plus.entries) - {1} or set(c.minus.entries) - {1}:
            return False
        got[k] = c.signature
    return x.gens == ref.gens and got == ref.terms


def _charclass_call(kind: str, tree) -> Call:
    text = _bundle_text(tree)
    gens = tuple(sorted(_labels(tree, set())))
    ref = reference_class(tree, gens, kind)
    fn = "euler" if kind == "euler" else "pontryagin_total"
    return Call(
        f"{kind}",
        text,
        lambda: getattr(wc(), fn)(wc().parse_bundle(text)),
        lambda x: _witt_poly_matches(x, ref),
    )


def _unit_class(rng: random.Random):
    """A rank-1, signature-1 virtual class: k+1 entries minus k entries,
    with as many negative entries on each side."""
    k = rng.randint(1, 3)
    neg = rng.randint(0, k)
    sq = [1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 30]

    def entries(count, negatives):
        return [rng.choice(sq) * (-1 if i < negatives else 1) for i in range(count)]

    return entries(k + 1, neg), entries(k, neg)


def _invert_call(rng: random.Random) -> Call:
    plus, minus = _unit_class(rng)
    text = f"<{','.join(map(str, plus))}> - <{','.join(map(str, minus))}>"

    def run():
        w = wc()
        return w.invert_unit(w.GWClass.make(w.Q, plus, minus))

    def check(v):
        w = wc()
        u = w.GWClass.make(w.Q, plus, minus)
        return w.gw_equal(w.gw_mul(u, v), w.gw_one(w.Q))

    return Call("invert_unit", text, run, check)


def _hnf_call(rng: random.Random) -> Call:
    """a<1> + b<-1> plus hyperbolic pairs <c, -c> has the normal form
    (a+h)<1> + (b+h)<-1>; adding one <q> for a prime q > 2 leaves a
    residue at q, and then there is none."""
    a, b = rng.randint(0, 40), rng.randint(0, 40)
    pairs = [rng.choice((2, 3, 5, 6, 7, 10, 11, 13)) for _ in range(rng.randint(0, 6))]
    odd = rng.choice(SMALL_PRIMES[:20]) if rng.random() < 0.3 else None
    plus = [1] * a + [-1] * b + [c for c in pairs] + [-c for c in pairs]
    if odd:
        plus.append(odd)
    rng.shuffle(plus)
    key = ",".join(map(str, plus))
    h = len(pairs)

    def run():
        w = wc()
        return w.hyperbolic_normal_form(w.GWClass.make(w.Q, plus, ()))

    def check(x):
        if odd:
            return x is None
        return (
            x is not None
            and set(x.plus.entries) <= {1, -1}
            and not x.minus.entries
            and x.plus.entries.count(1) == a + h
            and x.plus.entries.count(-1) == b + h
        )

    return Call("hyperbolic_normal_form", key, run, check)


def counts_rounds(seed: int) -> Rounds:
    counts = lines_fixture()
    prng = random.Random(POOL_SEED)

    def qlc(d: int, probe: bool = False) -> Call:
        return Call(
            "quadratic_lines_class",
            str(d),
            lambda: wc().quadratic_lines_class(d),
            _gw_check(counts[d], double_factorial(2 * d - 1)),
            probe=probe,
        )

    def proj(n: int) -> Call:
        return Call(
            "cellular_euler",
            f"P{n}",
            lambda: wc().cellular_euler(wc().ProjectiveSpace(n)),
            _gw_check(*cell_signature(range(n + 1))),
        )

    def gr(n: int) -> Call:
        return Call(
            "cellular_euler",
            f"Gr2,{n}",
            lambda: wc().cellular_euler(wc().Grassmannian(2, n)),
            _gw_check(*cell_signature(gr2_dims(n))),
        )

    def flag(m: int) -> Call:
        expect = 1
        for j in range(2, m + 1):
            expect *= cell_signature(gr2_dims(2 * j))[1]
        return Call("flag_chi_top", str(m), lambda: wc().flag_chi_top(m), lambda x: x == expect)

    # the largest sizes run in every round; the pools are split into size
    # strata, one item of each per round, so rounds cost nearly the same
    fixed = [qlc(d) for d in (2, 3, 4)] + [qlc(5, probe=True)]
    fixed += [_charclass_call("euler", ("sym", m, ("gen", 1))) for m in (1, 3, 5, 7, 9, 11)]
    fixed += [_charclass_call("pontryagin", ("sym", m, ("gen", 1))) for m in range(1, 8)]
    fixed += [proj(5000), gr(200), flag(20)]
    pooled = [([proj(n) for n in prng.sample(range(lo, lo + 1000), 60)], 2) for lo in range(1, 5000, 1000)]
    pooled += [([gr(n) for n in range(lo, lo + 50)], 1) for lo in (2, 52, 102, 150)]
    pooled += [([flag(m) for m in range(lo, lo + 5)], 1) for lo in (1, 6, 11, 15)]
    pooled += [
        ([_charclass_call("euler", _bundle_tree(prng)) for _ in range(150)], 8),
        ([_charclass_call("pontryagin", _bundle_tree(prng)) for _ in range(150)], 8),
        ([_invert_call(prng) for _ in range(150)], 8),
        ([_hnf_call(prng) for _ in range(150)], 8),
    ]
    return Rounds(fixed, pooled, seed)


# ---------------------------------------------------------------------------
# forms: elimination, Hilbert symbols and factoring of distinct large entries


def _unimodular(rng: random.Random, n: int, steps: int = 6) -> list[list[int]]:
    """Elementary integer moves, one swap and one sign flip at most, as
    the unimodular builder of the test suite does: det is +-1."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        for k in range(n):
            m[i][k] += c * m[j][k]
    if n > 1 and rng.random() < 0.5:
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            m[i], m[j] = m[j], m[i]
    if rng.random() < 0.5:
        i = rng.randrange(n)
        m[i] = [-x for x in m[i]]
    return m


def _gram(rng: random.Random, n: int) -> tuple[list[int], list[list[int]]]:
    """(D, P^T D P) for a random nonzero diagonal D and unimodular P."""
    d = [rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)) for _ in range(n)]
    p = _unimodular(rng, n)
    dp = [[d[i] * p[i][j] for j in range(n)] for i in range(n)]
    g = [[sum(p[k][i] * dp[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return d, g


def _gram_calls(rng: random.Random, n: int) -> list[Call]:
    d, g = _gram(rng, n)
    key = f"{d} {g}"

    def diag():
        return wc().diagonalize(g, wc().Q)

    def diag_check(q):
        w = wc()
        return w.is_isometric(q, w.QForm.make(w.Q, d))

    def inv():
        w = wc()
        return w.invariants(w.diagonalize(g, w.Q))

    def inv_check(x):
        w = wc()
        return x == w.invariants(w.QForm.make(w.Q, d))

    def iso():
        w = wc()
        return w.is_isometric(w.diagonalize(g, w.Q), w.QForm.make(w.Q, d))

    return [
        Call("diagonalize", key, diag, diag_check),
        Call("invariants", key, inv, inv_check),
        Call("is_isometric", key, iso, lambda x: x is True),
    ]


def _gram_fp_call(rng: random.Random, n: int) -> Call:
    d, g = _gram(rng, n)
    p = rng.choice([q for q in SMALL_PRIMES if 7 <= q <= 97])

    def run():
        w = wc()
        return w.is_isometric(w.diagonalize(g, w.Fp(p)), w.QForm.make(w.Fp(p), d))

    return Call("is_isometric_fp", f"F{p} {d} {g}", run, lambda x: x is True)


def _random_prime(rng: random.Random, bits: int) -> int:
    while True:
        x = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(x):
            return x


def _classify_call(kind: str, factored: list[tuple[int, list[int]]]) -> Call:
    """invariants and Witt class of <a_1..a_n>, where a_i = sign * prod of
    the listed primes (each prime once, so a_i is its own square class)."""
    entries = []
    for sign, primes in factored:
        a = sign
        for p in primes:
            a *= p
        entries.append(a)
    rank = len(entries)
    signature = sum(1 if a > 0 else -1 for a in entries)
    disc_primes: dict[int, int] = {}
    for _, primes in factored:
        for p in primes:
            disc_primes[p] = disc_primes.get(p, 0) + 1
    disc = 1
    for p, e in disc_primes.items():
        if e % 2:
            disc *= p
    if (rank - signature) // 2 % 2:
        disc = -disc

    def run():
        w = wc()
        q = w.QForm.make(w.Q, entries)
        return w.invariants(q), w.witt_class(q)

    def check(x):
        inv, witt = x
        return (inv.rank, inv.signature, inv.disc) == (rank, signature, disc) and witt.data[0] == signature

    return Call(kind, ",".join(map(str, entries)), run, check)


def _prime_product_call(rng: random.Random, rank: int) -> Call:
    factored = [
        (rng.choice((1, -1)), rng.sample(SMALL_PRIMES, rng.randint(10, 20)))
        for _ in range(rank)
    ]
    return _classify_call("classify_products", factored)


def _semiprime_call(rng: random.Random, bits: int, rank: int, kind: str) -> Call:
    factored = []
    for _ in range(rank):
        half = bits // 2
        factored.append((rng.choice((1, -1)), [_random_prime(rng, half), _random_prime(rng, bits - half)]))
    return _classify_call(kind, factored)


def forms_rounds(seed: int) -> Rounds:
    """Each round runs the same sizes: the pools are split into size
    strata and a round takes one item from each, so the seed changes the
    inputs but hardly the cost of a round."""
    prng = random.Random(POOL_SEED + 1)

    def verify(fn: str, p: int) -> Call:
        return Call(fn, str(p), lambda: getattr(wc(), fn)(p), lambda x: x is True)

    def degree(m: int, sign: int) -> Call:
        return Call(
            "a1_degree",
            f"G{m}{'+' if sign > 0 else '-'}",
            lambda: wc().a1_degree(wc().build_G(m, sign)),
            lambda x: x.rank == m and abs(x.signature) == m,
        )

    fns = ("verify_Tp", "serre_w2_check", "verify_bayer_suarez")
    fixed = [verify(fn, p) for fn in fns for p in (5, 13, 31, 61)]
    fixed += [degree(m, s) for m in (40, 60) for s in (1, -1)]
    # known-defect probe: factoring a 100-bit semiprime has no iteration
    # budget, so the call runs far past its deadline instead of failing
    # with a DomainError
    probe = _semiprime_call(prng, 100, 1, "classify_semiprimes")
    probe.probe, probe.deadline_s = True, 0.25
    fixed.append(probe)
    strata = (3, 6, 9, 12, 15, 18, 21, 24)
    pooled = [([degree(m, 1), degree(m, -1)], 1) for m in (4, 8, 12, 16, 20)]
    for n in strata:
        pooled += [(list(pool), 1) for pool in zip(*(_gram_calls(prng, n) for _ in range(20)))]
    pooled += [([_gram_fp_call(prng, n) for _ in range(20)], 1) for n in strata[1::2]]
    pooled += [([_prime_product_call(prng, rank) for _ in range(20)], 1) for rank in (2, 3, 4, 6)]
    pooled += [
        ([_semiprime_call(prng, prng.randint(lo, hi), 1, "classify_semiprimes") for _ in range(30)], 1)
        for lo, hi in ((40, 52), (53, 64))
    ]
    return Rounds(fixed, pooled, seed)


# ---------------------------------------------------------------------------
# cli: cold processes computing for milliseconds


@dataclass
class CliOutcome:
    code: int
    stdout: str
    stderr: str

    def text(self) -> str:
        # exit code and stdout; for failures also the last line of stderr,
        # which names the error class (a traceback's frames are dropped)
        last = self.stderr.strip().splitlines()[-1:] if self.code else []
        return "\n".join([str(self.code), self.stdout, *last])


def _cli_ok_check(argv: tuple[str, ...], counts: dict[int, int]) -> Callable[[CliOutcome], bool]:
    def check(o: CliOutcome) -> bool:
        if o.code != 0 or "Traceback" in o.stderr:
            return False
        if argv[0] != "--json":
            return bool(o.stdout.strip())
        payload = json.loads(o.stdout)
        if payload.get("status") != "ok":
            return False
        if payload.get("operation") == "lines.count":
            return payload["result"] == counts[int(argv[argv.index("--d") + 1])]
        return True

    return check


def _cli_error_check(argv: tuple[str, ...], error: str) -> Callable[[CliOutcome], bool]:
    def check(o: CliOutcome) -> bool:
        if o.code != 2 or "Traceback" in o.stderr:
            return False
        if argv[0] == "--json":
            payload = json.loads(o.stdout)
            return payload.get("status") == "error" and payload.get("error") == error
        return error in o.stderr

    return check


def _cli_call(argv: tuple[str, ...], check, kind: str = "cli", probe: bool = False) -> Call:
    return Call(kind, " ".join(argv), None, check, probe=probe, argv=argv)  # type: ignore[arg-type]


def _small_form(rng: random.Random, n: int) -> str:
    vals = [rng.choice((1, 2, 3, 5, 6, 7, 10, 11, 13)) * rng.choice((1, -1)) for _ in range(n)]
    return "<" + ",".join(map(str, vals)) + ">"


def _cli_families(rng: random.Random) -> list[tuple[list[tuple[str, ...]], int]]:
    """Successful argvs by subcommand, each in human and --json mode, with
    the number a round takes from each."""
    def units():
        plus, minus = _unit_class(rng)
        return f"<{','.join(map(str, plus))}> - <{','.join(map(str, minus))}>"

    families: list[tuple[list[tuple[str, ...]], int]] = [
        ([("gw", "classify", _small_form(rng, rng.randint(1, 5))) for _ in range(6)], 2),
        ([("gw", "isometric", _small_form(rng, 3), _small_form(rng, 3)) for _ in range(6)], 2),
        ([("gw", "residue", _small_form(rng, 4), "-p", str(rng.choice((2, 3, 5, 7, 11, 13)))) for _ in range(6)], 2),
        ([("gw", "invert", units()) for _ in range(6)], 2),
        (
            [("degree", "--map", f"G{m}{rng.choice('+-')}") for m in range(1, 9)]
            + [("degree", "--num", "0,-3,0,1", "--den=-1,0,3"), ("degree", "--num", "0,0,1", "--den=1")],
            3,
        ),
    ]
    for p in (3, 5, 7):
        flags = ((), ("--verify-tp",), ("--bayer-suarez",), ("--serre-w2",))
        families.append(([("traceform", "--p", str(p), *f) for f in flags], 1))
    families += [
        ([("charclass", rng.choice(("euler", "pontryagin")), _bundle_text(_bundle_tree(rng))) for _ in range(8)], 3),
        ([("lines", "--d", str(d)) for d in range(2, 7)] + [("lines", "--d", "2", "--quadratic")], 4),
        (
            [("euler-cellular", "--space", f"P{n}") for n in (1, 2, 5, 12, 40)]
            + [("euler-cellular", "--space", f"Gr2,{n}") for n in (3, 4, 6, 10)]
            + [("euler-cellular", "--space", f"Fl{m}") for m in (1, 3, 6)],
            5,
        ),
    ]
    return [(argvs + [("--json", *a) for a in argvs], k) for argvs, k in families]


CLI_ERRORS: list[tuple[tuple[str, ...], str]] = [
    (("gw", "invert", "<1,1>"), "NotAUnit"),
    (("gw", "classify", "<0>"), "InvalidEntry"),
    (("gw", "classify", "<1,x>"), "FormSyntaxError"),
    (("gw", "residue", "<3>", "-p", "9"), "InvalidEntry"),
    (("lines", "--d", "1"), "InvalidEntry"),
    (("traceform", "--p", "4"), "InvalidEntry"),
    (("euler-cellular", "--space", "X9"), "FormSyntaxError"),
    (("charclass", "euler", "Sym(2,E1) (x) E1"), "UnsupportedTensor"),
    (("charclass", "euler", "E1 (+"), "FormSyntaxError"),
    (("degree", "--map", "H3+"), "FormSyntaxError"),
    (("degree", "--num", "1,1", "--den=1,1"), "NotPointed"),
]


def _probe_lines5(counts: dict[int, int]) -> Call:
    argv = ("--json", "lines", "--d", "5", "--quadratic")

    def check(o: CliOutcome) -> bool:
        if "Traceback" in o.stderr:
            return False
        if o.code == 2:
            return True
        if o.code != 0:
            return False
        res = json.loads(o.stdout)["result"]
        return res["rank"] == counts[5] and res["signature"] == double_factorial(9)

    return _cli_call(argv, check, probe=True)


def _probe_nested() -> Call:
    argv = ("charclass", "euler", "(" * 3000 + "E1" + ")" * 3000)

    def check(o: CliOutcome) -> bool:
        if "Traceback" in o.stderr:
            return False
        return o.code == 2 or (o.code == 0 and o.stdout.strip() == "e1")

    return _cli_call(argv, check, probe=True)


def cli_rounds(seed: int) -> Rounds:
    prng = random.Random(POOL_SEED + 2)
    counts = lines_fixture()
    pooled = [([_cli_call(a, _cli_ok_check(a, counts)) for a in argvs], k) for argvs, k in _cli_families(prng)]
    errors = [_cli_call(a, _cli_error_check(a, e)) for a, e in CLI_ERRORS]
    errors += [_cli_call(("--json", *a), _cli_error_check(("--json", *a), e)) for a, e in CLI_ERRORS]
    # four slow successful calls of about the same cost run in every round,
    # so the 90th percentile falls among them whatever the pools give
    heavy = [
        ("traceform", "--p", "13", "--bayer-suarez"),
        ("--json", "traceform", "--p", "13", "--bayer-suarez"),
        ("lines", "--d", "3", "--quadratic"),
        ("--json", "lines", "--d", "3", "--quadratic"),
    ]
    fixed = [_cli_call(a, _cli_ok_check(a, counts)) for a in heavy]
    fixed += [_probe_lines5(counts), _probe_nested()]
    return Rounds(fixed, pooled + [(errors, 4)], seed)
