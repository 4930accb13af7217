import json
import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from tightcycle.errors import InvariantViolation, PreconditionError
from tightcycle.fractional import (
    FarkasCertificate,
    FractionalMatching,
    tight_perfect_fractional_matching,
    max_fractional_matching,
    perfect_or_certificate,
)
from tightcycle.generators import (
    extremal,
    min_degree_bound,
    random_3graph,
    random_min_degree_3graph,
)
from tightcycle.hypergraph import Hypergraph3, complete_3graph
from tightcycle.tight import tight_components


def test_max_weight_small_cases():
    assert max_fractional_matching(complete_3graph(6)).total_weight == 2
    fm = max_fractional_matching(Hypergraph3(3, [(1, 2, 3)]))
    assert fm.total_weight == 1 and fm.perfect


def test_max_weight_extremal():
    H = extremal(9, 2).hypergraph
    fm = max_fractional_matching(H)
    assert fm.total_weight == 2  # both A-vertices carry full load
    assert not fm.perfect


def test_empty_restriction_is_zero_matching():
    H = Hypergraph3(6, [(1, 2, 3), (4, 5, 6)])
    fm = max_fractional_matching(H, restrict_to=1)
    assert fm.total_weight == 1  # single-edge component
    empty = max_fractional_matching(Hypergraph3(5, []))
    assert empty.total_weight == 0 and empty.weights == {}


def test_optimum_never_exceeds_n_over_3():
    rng = random.Random(0)
    for i in range(80):
        n = rng.randint(3, 12)
        H = random_3graph(n, rng.uniform(0, 1), i)
        fm = max_fractional_matching(H)
        assert 3 * fm.total_weight <= n
        fm.validate(H)  # exact feasibility, zero tolerance


def test_perfect_on_complete():
    out = perfect_or_certificate(complete_3graph(9), 0)
    assert isinstance(out, FractionalMatching)
    assert out.total_weight == 3 and out.perfect


def test_integer_matching_implies_perfect():
    # a perfect integral matching is feasible, so the LP must reach n/3
    H = Hypergraph3(6, [(1, 2, 3), (4, 5, 6), (3, 4, 5), (2, 3, 4)])
    lab = tight_components(H)
    assert lab.component_count == 1
    out = perfect_or_certificate(H, 0)
    assert isinstance(out, FractionalMatching) and out.perfect


def test_extremal_certificate_matches_known_vector():
    H = extremal(9, 2).hypergraph
    out = perfect_or_certificate(H, 0)
    assert isinstance(out, FarkasCertificate)
    assert out.a == (Fraction(-2), Fraction(-2)) + (Fraction(1),) * 7
    # exhaustive recheck of every edge inequality
    out.validate(H.edges)


def test_certificate_scaling_invariance():
    H = extremal(9, 2).hypergraph
    out = perfect_or_certificate(H, 0)
    for scale in (Fraction(1, 3), Fraction(7, 2), 5):
        FarkasCertificate(tuple(scale * x for x in out.a)).validate(H.edges)


def _fraction_verdict(a, edges):
    """The Fraction form of FarkasCertificate.validate, as (message, witness)
    of the first broken check, or None."""
    if sum(a) <= 0:
        return f"certificate has a.1 = {sum(a)} <= 0", None
    for e in edges:
        s = a[e[0] - 1] + a[e[1] - 1] + a[e[2] - 1]
        if s > 0:
            return f"certificate violated on edge {e}: {s} > 0", e
    return None


def _integer_verdict(a, edges):
    try:
        FarkasCertificate(a).validate(edges)
    except InvariantViolation as exc:
        return str(exc), exc.witness
    return None


def test_certificate_validate_matches_fraction_form():
    rng = random.Random(4)
    certs = []
    for n, a in ((9, 2), (12, 3), (15, 4)):
        H = extremal(n, a).hypergraph
        certs.append((perfect_or_certificate(H, 0).a, list(H.edges)))
    for i in range(40):
        H = random_3graph(9, rng.uniform(0.1, 0.5), 2000 + i)
        if not H.edges:
            continue
        lab = tight_components(H)
        cid = max(range(lab.component_count), key=lambda c: lab.component_sizes[c])
        out = perfect_or_certificate(H, cid)
        if isinstance(out, FarkasCertificate):
            certs.append((out.a, [e for e in H.edges if lab.labels[e] == cid]))
    verdicts = Counter()
    for a, edges in certs:
        variants = [a, tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) * x for x in a)]
        for _ in range(4):
            v = rng.randrange(len(a))
            bump = Fraction(rng.randint(-3, 3), rng.randint(1, 5))
            variants.append(a[:v] + (a[v] + bump,) + a[v + 1:])
        variants.append(tuple(-x for x in a))
        variants.append((Fraction(0),) * len(a))
        variants.append(tuple(int(x) for x in a))
        for b in variants:
            got = _integer_verdict(b, edges)
            assert got == _fraction_verdict(b, edges)
            verdicts[got is None or got[0].split(" ")[1]] += 1
    # valid certificates, a.1 <= 0, and edge violations all occur
    assert verdicts[True] and verdicts["has"] and verdicts["violated"]


def test_disjunction_on_mixed_instances():
    rng = random.Random(9)
    seen = {"perfect": 0, "certificate": 0}
    for i in range(60):
        n = rng.choice((6, 9))
        H = random_3graph(n, rng.uniform(0.2, 0.95), 1000 + i)
        if not H.edges:
            continue
        lab = tight_components(H)
        cid = max(range(lab.component_count), key=lambda c: lab.component_sizes[c])
        out = perfect_or_certificate(H, cid)
        if isinstance(out, FractionalMatching):
            seen["perfect"] += 1
            assert out.perfect
            out.validate(H)
        else:
            seen["certificate"] += 1
            out.validate([e for e in H.edges if lab.labels[e] == cid])
    assert seen["perfect"] > 0 and seen["certificate"] > 0


def test_tight_perfect_fractional_matching_complete():
    res = tight_perfect_fractional_matching(complete_3graph(9))
    assert res.subgraph_edges == complete_3graph(9).edge_set
    assert res.matching.total_weight == 3
    assert 9 * res.subgraph_min_degree >= 4 * comb(9, 2)


def test_tight_perfect_fractional_matching_random_conditioned():
    n = 12
    target = min_degree_bound(n)
    assert target == 37  # strict 5/9 bound + 1
    H = random_min_degree_3graph(n, target, seed=424, p=0.8)
    res = tight_perfect_fractional_matching(H)
    assert res.matching.total_weight == 4
    res.matching.validate(H)  # support inside one tight component


def test_tight_perfect_fractional_matching_preconditions():
    with pytest.raises(PreconditionError):
        tight_perfect_fractional_matching(extremal(9, 2).hypergraph)  # delta = 13 <= 20
    with pytest.raises(PreconditionError):
        tight_perfect_fractional_matching(complete_3graph(10))  # 3 does not divide n


def test_exact_budget():
    # the exact LP has no size cap: n 33 decides and optimizes exactly
    H = complete_3graph(33)
    out = perfect_or_certificate(H, 0)
    assert isinstance(out, FractionalMatching) and out.perfect
    out.validate(H)
    fm = max_fractional_matching(H)
    assert fm.total_weight == 11
    assert all(isinstance(w, Fraction) for w in fm.weights.values())


def _highs_optimum(n, edges):
    """Independent reference: the same LP solved in floating point by HiGHS."""
    import numpy as np
    from scipy.optimize import linprog

    if not edges:
        return 0.0
    A = np.zeros((n, len(edges)))
    for j, e in enumerate(edges):
        for v in e:
            A[v - 1, j] = 1
    res = linprog(-np.ones(len(edges)), A_ub=A, b_ub=np.ones(n), bounds=(0, None), method="highs")
    assert res.success
    return -res.fun


# hosts on 31..45 vertices: id -> (host builder, |A| of an extremal host or None)
ABOVE_THIRTY = {
    "complete-33": (lambda: complete_3graph(33), None),
    "complete-36": (lambda: complete_3graph(36), None),
    "extremal-31-4": (lambda: extremal(31, 4).hypergraph, 4),
    "extremal-36-7": (lambda: extremal(36, 7).hypergraph, 7),
    "extremal-42-3": (lambda: extremal(42, 3).hypergraph, 3),
    "random-31-p0.3": (lambda: random_3graph(31, 0.3, 1), None),
    "random-36-p0.5": (lambda: random_3graph(36, 0.5, 3), None),
    "random-45-p0.3": (lambda: random_3graph(45, 0.3, 5), None),
    "random-42-p0.05": (lambda: random_3graph(42, 0.05, 6), None),
    "random-35-p0.02": (lambda: random_3graph(35, 0.02, 35), None),
}


@pytest.mark.parametrize("name", ABOVE_THIRTY)
def test_above_thirty_corpus_is_exact_and_matches_highs(name):
    build, a = ABOVE_THIRTY[name]
    H = build()
    fm = max_fractional_matching(H)
    fm.validate(H)
    assert a is None or fm.total_weight == a
    assert abs(float(fm.total_weight) - _highs_optimum(H.n, list(H.edges))) <= 1e-6

    lab = tight_components(H)
    cid = max(range(lab.component_count), key=lambda c: (lab.component_sizes[c], -c))
    restricted = [e for e in H.edges if lab.labels[e] == cid]
    out = perfect_or_certificate(H, cid)
    reference = _highs_optimum(H.n, restricted)
    if isinstance(out, FractionalMatching):
        out.validate(H)
        assert out.perfect and abs(reference - H.n / 3) <= 1e-6
    else:
        out.validate(restricted)
        assert reference < H.n / 3 - 1e-6
    if a is not None:  # 3a < n: the extremal certificate, a.1 = n - 3a
        assert isinstance(out, FarkasCertificate) and sum(out.a) == H.n - 3 * a


def test_matching_json_shape():
    fm = max_fractional_matching(Hypergraph3(3, [(1, 2, 3)]))
    payload = fm.to_json_dict()
    assert payload["total_weight"] == "1"
    assert payload["edges"] == [{"e": [1, 2, 3], "w": "1"}]
    json.dumps(payload)  # serializable

    cert = perfect_or_certificate(extremal(9, 2).hypergraph, 0)
    assert json.loads(json.dumps(cert.to_json_dict()))["a"][0] == "-2"
