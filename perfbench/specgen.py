"""Seeded spec documents for the benchmark workloads, with what each report
must say.

Stdlib only and independent of torsionlab: the documents and the expected
answers are derived here from the constructor grammar and elementary ring
theory, so a change to the code under test cannot change the workload or
the answers it is checked against.

Each workload is a list of ``(spec_json, expect)`` pairs.  ``spec_json`` is
the document text handed to the CLI entry points; ``expect`` tells the
checker which known answers apply.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("sweep10", "query-mix")

# Irreducible monic polynomials the catalog uses for the finite fields,
# coefficients low-to-high.
_IRREDUCIBLE = {
    (2, 2): [1, 1, 1],
    (2, 3): [1, 1, 0, 1],
    (2, 4): [1, 1, 0, 0, 1],
    (3, 2): [1, 0, 1],
}


def _zmod(n: int) -> dict:
    return {"zmod": n}


def _product(a: dict, b: dict) -> dict:
    return {"product": [a, b]}


def catalog(max_size: int) -> list[dict]:
    """The catalog universe of the `suite` sweep: every Z/n, the two-factor
    products Z/a x Z/b, Z/2 x Z/2 x Z/m, F_p[x]/(x^d), the fields F_4..F_16
    and F_2[x,y]/(x,y)^2, each of size at most ``max_size``."""
    terms = [_zmod(n) for n in range(2, max_size + 1)]
    for a in range(2, max_size + 1):
        for b in range(a, max_size + 1):
            if a * b <= max_size:
                terms.append(_product(_zmod(a), _zmod(b)))
    for m in (2, 3, 4):
        if 4 * m <= max_size:
            terms.append(_product(_product(_zmod(2), _zmod(2)), _zmod(m)))
    for p in (2, 3):
        d = 2
        while p**d <= max_size:
            terms.append({"polyquot": {"p": p, "f": [0] * d + [1]}})
            if (p, d) in _IRREDUCIBLE:
                terms.append({"polyquot": {"p": p, "f": _IRREDUCIBLE[(p, d)]}})
            d += 1
    if 8 <= max_size:
        terms.append({"squarezero": {"p": 2, "k": 2}})
    return terms


# ---------------------------------------------------------------------------
# Ring facts from the constructor term alone
# ---------------------------------------------------------------------------


def _prime_powers(n: int) -> list[int]:
    """The prime-power factors of n, by increasing prime."""
    out, p = [], 2
    while n > 1:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            out.append(q)
        p += 1
    return out


def _divisor_count(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def _subspace_count(p: int, k: int) -> int:
    """Number of subspaces of F_p^k: the sum of Gaussian binomials."""
    total = 0
    for j in range(k + 1):
        num = den = 1
        for i in range(j):
            num *= p ** (k - i) - 1
            den *= p ** (i + 1) - 1
        total += num // den
    return total


def _is_nilpotent_power(f: list[int]) -> bool:
    return all(c == 0 for c in f[:-1]) and f[-1] == 1


def ring_facts(term: dict) -> dict:
    """Size, number of local factors and number of ideals of a catalog term.

    A finite commutative ring is the product of its local factors; ideals
    multiply across factors.  Z/p^a has a+1 ideals, F_p[x]/(x^d) has d+1, a
    field has 2, and the square-zero ring F_p[x_1..x_k]/(x_i x_j) has one
    ideal per subspace of its maximal ideal plus the ring itself.
    """
    (kind, arg), = term.items()
    if kind == "zmod":
        return {
            "size": arg,
            "local": len(_prime_powers(arg)),
            "ideals": _divisor_count(arg),
        }
    if kind == "product":
        left, right = ring_facts(arg[0]), ring_facts(arg[1])
        return {key: left[key] * right[key] if key != "local" else left[key] + right[key]
                for key in left}
    if kind == "polyquot":
        p, f = arg["p"], arg["f"]
        d = len(f) - 1
        if not (_is_nilpotent_power(f) or _IRREDUCIBLE.get((p, d)) == f):
            raise ValueError(f"no known ideal count for {term!r}")
        return {"size": p**d, "local": 1, "ideals": d + 1 if _is_nilpotent_power(f) else 2}
    if kind == "squarezero":
        p, k = arg["p"], arg["k"]
        return {"size": p ** (k + 1), "local": 1, "ideals": 1 + _subspace_count(p, k)}
    raise ValueError(f"unknown constructor {kind!r}")


def unit(term: dict) -> int:
    """Element index of 1: a product packs its element as
    ``left * right_size + right``, and every other ring numbers 1 as 1."""
    (kind, arg), = term.items()
    if kind == "product":
        return unit(arg[0]) * ring_facts(arg[1])["size"] + unit(arg[1])
    return 1


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

SWEEP_MAX_SIZE = 10

# Eleven kinds of 114 specs.  114 is three times the 38 catalog rings of
# size <= 16, so each ring task takes every ring exactly three times and the
# seed cannot change how often the heaviest rings appear.
QUERY_MIX_SPECS = 1254


def _spec(doc: dict, expect: dict) -> tuple[str, dict]:
    return json.dumps(doc, sort_keys=True), expect


def _sweep(max_size: int) -> list[tuple[str, dict]]:
    reports = sum(2 ** ring_facts(t)["local"] for t in catalog(max_size))
    doc = {"task": "suite", "params": {"sweep_max_size": max_size}, "format": "json"}
    return [_spec(doc, {"check": "suite", "reports": reports})]


def _random_monomial(rng: random.Random, variables: range, max_exp: int, max_vars: int) -> dict:
    chosen = rng.sample(list(variables), rng.randint(0, max_vars))
    return {str(v): rng.randint(1, max_exp) for v in sorted(chosen)}


def _max_var(vars_: dict) -> int:
    return max((int(v) for v in vars_), default=0)


def _random_monomial_ideal(rng: random.Random) -> dict:
    """A monomial ideal that respects the fresh-tail discipline: every
    family starts past every variable of its base and of the finite
    generators."""
    gens = [_random_monomial(rng, range(1, 5), 3, 2) for _ in range(rng.randint(0, 3))]
    gens = [g for g in gens if g]
    floor = max((_max_var(g) for g in gens), default=0)
    families = []
    for _ in range(rng.randint(1, 2)):
        base = _random_monomial(rng, range(1, 5), 2, 2)
        start = max(floor, _max_var(base)) + rng.randint(1, 3)
        families.append({
            "base": {"vars": base},
            "start": start,
            "step": rng.randint(1, 2),
            "e": rng.randint(1, 2),
        })
    return {"gens": [{"vars": g} for g in gens], "families": families}


def _random_pattern(rng: random.Random) -> dict:
    pattern = {}
    finite = sorted(rng.sample(range(1, 7), rng.randint(0, 2)))
    if finite:
        pattern["finite"] = finite
    if not finite or rng.random() < 0.5:
        pattern["tail"] = {"start": rng.randint(2, 8), "step": rng.randint(1, 2)}
    return pattern


def _monomial_spec(rng: random.Random, op: str) -> tuple[str, dict]:
    s = _random_monomial(rng, range(1, 8), 2, 2)
    params: dict = {"op": op, "mult_set": {"s": {"vars": s}}}
    if op in ("decide", "saturate", "in_filter"):
        params["ideal"] = _random_monomial_ideal(rng)
    elif op == "cohen":
        params["primes"] = [_random_pattern(rng) for _ in range(rng.randint(1, 3))]
    return _spec({"task": "monomial-decide", "params": params, "format": "json"},
                 {"check": "monomial"})


# Acceptance criteria 7 and 8, with their golden answers.
GOLDEN_MONOMIAL = (
    ({"op": "decide", "mult_set": {"s": {"vars": {"1": 1}}},
      "ideal": {"families": [{"base": {"vars": {}}, "start": 1, "step": 1, "e": 1}]}},
     {"verdict": "certified", "power": 1, "prefix": ["x1"]}),
    ({"op": "decide", "mult_set": {"s": {"vars": {"1": 1}}},
      "ideal": {"families": [{"base": {"vars": {}}, "start": 2, "step": 1, "e": 1}]}},
     {"verdict": "refuted"}),
    ({"op": "saturate", "mult_set": {"s": {"vars": {"2": 1}}},
      "ideal": {"gens": [{"vars": {"1": 2, "2": 1}}, {"vars": {"1": 1, "2": 3}}]}},
     {"saturation": "<x1>"}),
    ({"op": "cohen", "mult_set": {"s": {"vars": {"1": 1}}},
      "primes": [{"finite": [1]}, {"finite": [2]}, {"tail": {"start": 2}}]},
     {"verdict": "not-totally-noetherian", "sides": ["Z", "K", "K"],
      "cross_check_verdict": "refuted"}),
)


def _random_filter(rng: random.Random, size: int):
    form = rng.choice(["lambda", "trivial", "improper", "seeds", "seeds"])
    if form != "seeds":
        return form
    return {"seeds": [sorted(rng.sample(range(size), rng.randint(1, 2)))
                      for _ in range(rng.randint(1, 2))]}


def ring_spec(rng: random.Random, task: str, term: dict) -> tuple[str, dict]:
    facts = ring_facts(term)
    doc: dict = {"task": task, "ring": term, "format": "json"}
    if task in ("partition", "closure", "certify"):
        doc["filter"] = _random_filter(rng, facts["size"])
    if task in ("closure", "certify"):
        doc["params"] = {"ideal_gens": sorted(rng.sample(range(facts["size"]), rng.randint(1, 2)))}
    return _spec(doc, {"check": task, "facts": facts, "filter": doc.get("filter")})


def _invalid_spec(rng: random.Random, rings: list[dict], kind: int) -> tuple[str, dict]:
    """A document the workbench must reject, with the error class it must raise."""
    term = rng.choice(rings)
    if kind == 0:
        doc, error = {"task": "census", "ring": term, "params": {"depth": 1}}, "SpecValidationError"
    elif kind == 1:
        doc, error = {"task": "partition", "ring": term}, "SpecValidationError"
    elif kind == 2:
        doc, error = {"task": "enumerate", "ring": {"zmod": rng.randint(257, 400)}}, "SizeCapExceeded"
    elif kind == 3:
        facts = ring_facts(term)
        mult_set = sorted({0} | {rng.randrange(facts["size"]) for _ in range(2)} - {unit(term)})
        doc = {"task": "partition", "ring": term, "filter": {"mult_set": mult_set}}
        error = "NotMultiplicativelyClosed"  # the set misses 1
    else:
        ideal = _random_monomial_ideal(rng)
        fam = ideal["families"][0]
        fam["base"]["vars"][str(fam["start"])] = 1  # base reaches its own tail
        doc = {"task": "monomial-decide",
               "params": {"op": "decide", "mult_set": {"s": {"vars": {"1": 1}}}, "ideal": ideal}}
        error = "TailDisciplineViolation"
    return _spec(doc, {"check": "reject", "error": error})


# The kinds of short spec: the five ring tasks, the five monomial ops, and
# invalid documents.  No usage data exists, so each kind gets the same
# share and none is weighted above another.
_QUERY_KINDS = (
    "enumerate", "partition", "closure", "certify", "census",
    "decide", "saturate", "in_filter", "cohen", "almost_jansian",
    "invalid",
)


def _query_mix(rng: random.Random, count: int, rings: list[dict]) -> list[tuple[str, dict]]:
    """Short interactive specs over repeating catalog rings, the monomial
    goldens, and a fixed share of invalid documents.

    Each kind gets an equal share of ``count`` and each ring task cycles
    through the whole catalog, so the seed varies the filters, ideals,
    monomials and order but not the mix (when the share is a multiple of
    the catalog's size).
    """
    out = [
        _spec({"task": "monomial-decide", "params": params, "format": "json"},
              {"check": "monomial", "golden": golden})
        for params, golden in GOLDEN_MONOMIAL
    ]
    n = count // len(_QUERY_KINDS)
    for kind in _QUERY_KINDS:
        if kind in ("enumerate", "partition", "closure", "certify", "census"):
            cycle = rng.sample(rings, len(rings))
            out += [ring_spec(rng, kind, cycle[i % len(cycle)]) for i in range(n)]
        elif kind == "invalid":
            out += [_invalid_spec(rng, rings, i % 5) for i in range(n)]
        else:
            out += [_monomial_spec(rng, kind) for _ in range(n)]
    rng.shuffle(out)
    return out


def make_specs(workload: str, seed: int, smoke: bool = False) -> list[tuple[str, dict]]:
    """The spec list of one workload; the same seed gives the same list.

    ``smoke`` shrinks each workload to a few cheap specs for the
    benchmark's own tests.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep10":
        return _sweep(4 if smoke else SWEEP_MAX_SIZE)
    if workload == "query-mix":
        return _query_mix(rng, 55 if smoke else QUERY_MIX_SPECS, catalog(16))
    raise ValueError(f"unknown workload {workload!r}")


def spec_digest(specs: list[tuple[str, dict]]) -> str:
    h = hashlib.sha256()
    for text, _ in specs:
        h.update(text.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()
