"""Acceptance suite: one gated check per criterion, each printing a pass/fail
line. Run with `pytest tests/test_acceptance.py -v -s` to see the report.
"""

import math
import random
import statistics
from fractions import Fraction

import pytest

from xorcert.avoid import AvoidParams, CertifyParams, avoid, certify_not_in_range
from xorcert.circuits import (
    JuntaGate,
    random_junta_circuit,
    random_parity_circuit,
    random_tree_circuit,
    to_layered,
)
from xorcert.core import Dyadic, make_instance
from xorcert.fourier import expand_junta
from xorcert.oracle import (
    brute_bias,
    brute_independence,
    brute_min_distance,
    brute_range_member,
    brute_val,
    check_decomposition,
)
from xorcert.prg import GeneratorSpec, sample_int, seed_count
from xorcert.refuter import RefuteParams, build_kikuchi, refute
from xorcert.reduction import group_characters

from helpers import (
    coalesce,
    expand_decision_tree,
    level_weight,
    quadratic_form,
    random_instance,
    random_pruned_circuit,
    signs,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num} [{status}] {name}"
    if detail:
        line += f" :: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_fourier_exactness():
    one = Dyadic(1)
    checked = 0
    for t in (1, 2, 3):
        for code in range(1 << (1 << t)):
            table = tuple((code >> i) & 1 for i in range(1 << t))
            exp = expand_junta(JuntaGate(tuple(range(t)), table))
            assert exp.parseval_sum() == one
            checked += 1
    rng = random.Random(41)
    for _ in range(1000):
        table = tuple(rng.randrange(2) for _ in range(16))
        exp = expand_junta(JuntaGate((0, 1, 2, 3), table))
        assert exp.parseval_sum() == one
        checked += 1
    weight_ok = 0
    for _ in range(1000):
        t = rng.randint(1, 4)
        n = rng.randint(t, 12)
        c = random_tree_circuit(rng, n, 1, t, 1, leaf_prob=0.2)
        exp = expand_decision_tree(c.gates[0], n, t)
        assert level_weight(exp, t) <= one
        weight_ok += 1
    _report(
        1,
        "Fourier exactness",
        True,
        f"Parseval on {checked} tables, top-level weight <= 1 on {weight_ok} trees",
    )


def test_criterion_2_kikuchi_identity():
    rng = random.Random(42)
    configs = 0
    while configs < 100:
        k = rng.choice((2, 4))
        n = rng.randint(k + 1, 10)
        r_hi = min(4, n - k // 2)
        if r_hi < k // 2:
            continue
        r = rng.randint(k // 2, r_hi)
        m = rng.randint(1, 15)
        inst = random_instance(rng, n, k, m, weighted=bool(configs % 2))
        op = build_kikuchi(*coalesce(inst), r)
        assert sum(op.degrees) == op.m * op.edge_multiplier
        for _ in range(50):
            x = [rng.choice((1, -1)) for _ in range(n)]
            assert quadratic_form(op, x) == inst.term_sum(x) * Dyadic(op.edge_multiplier)
        configs += 1
    _report(2, "Kikuchi quadratic-form identity", True, f"{configs} builds x 50 assignments")


def test_criterion_3_certificate_soundness():
    rng = random.Random(43)
    violations = 0
    certified = 0
    total = 0
    for trial in range(500):
        k = rng.choice((1, 2, 3, 4, 5))
        n_hi = 12 if k == 5 else 14
        n = rng.randint(max(k + 1, 4), n_hi)
        m = rng.randint(1, 40 if k >= 4 else 80)
        weighted = bool(trial % 2)
        if trial % 4 < 2:
            rhs = None  # uniform via the suite generator
            inst = random_instance(rng, n, k, m, weighted=weighted)
        else:
            gen = GeneratorSpec.kwise(4, m) if trial % 4 == 2 else (
                GeneratorSpec.eps_biased(m, max(4, (m - 1).bit_length()))
            )
            seed = rng.randrange(seed_count(gen)) if gen.seed_bits <= 60 else rng.getrandbits(60)
            rhs = list(sample_int(gen, seed % (1 << gen.seed_bits)))
            inst = random_instance(rng, n, k, m, weighted=weighted, rhs=rhs)
        val = brute_val(inst)
        total += 1
        for mode in ("trace", "spectral"):
            cert = refute(inst, RefuteParams(mode=mode))
            if cert.certified:
                certified += 1
                if Fraction(cert.bound) < val:
                    violations += 1
    _report(
        3,
        "certificate soundness (non-negotiable)",
        violations == 0,
        f"{total} instances, {certified} certified bounds, {violations} violations",
    )


@pytest.fixture(scope="module")
def scaling_medians():
    n, k, r = 12, 2, 1
    ms = [128 << i for i in range(7)]
    ell = max(2, 2 * math.ceil(r * math.log(n)))
    rng = random.Random(44)
    kwise = {m: GeneratorSpec.kwise(ell, m) for m in ms}
    med_uniform: dict[int, float] = {}
    med_kwise: dict[int, float] = {}
    for m in ms:
        uni, kws = [], []
        for _ in range(50):
            edges = [tuple(sorted(rng.sample(range(n), k))) for _ in range(m)]
            b = [rng.choice((1, -1)) for _ in range(m)]
            cert = refute(make_instance(n, edges, b), RefuteParams(r=r))
            assert cert.certified
            uni.append(cert.bound)
            seed = rng.getrandbits(kwise[m].seed_bits)
            b2 = sample_int(kwise[m], seed)
            cert2 = refute(make_instance(n, edges, b2), RefuteParams(r=r))
            assert cert2.certified
            kws.append(cert2.bound)
        med_uniform[m] = statistics.median(uni)
        med_kwise[m] = statistics.median(kws)
    return n, r, med_uniform, med_kwise


def test_criterion_4_scaling_trend(scaling_medians):
    n, r, med_uniform, _ = scaling_medians
    ms = sorted(med_uniform)
    ok = True
    details = []
    for m in ms:
        d = m * 2 / math.comb(n, r)
        target = 4 * math.sqrt(math.log(n) / d)
        if med_uniform[m] > target:
            ok = False
        details.append(f"m={m}:{med_uniform[m]:.3f}<={target:.3f}")
    ratios = [med_uniform[ms[i]] / med_uniform[ms[i + 1]] for i in range(len(ms) - 1)]
    ratios_ok = all(1.2 <= ratio <= 1.8 for ratio in ratios)
    _report(
        4,
        "refutation scaling trend",
        ok and ratios_ok,
        "; ".join(details) + " | ratios " + ",".join(f"{q:.2f}" for q in ratios),
    )


def test_criterion_5_pseudorandom_sufficiency(scaling_medians):
    _, _, med_uniform, med_kwise = scaling_medians
    worst = 0.0
    for m, med in med_uniform.items():
        rel = abs(med_kwise[m] - med) / med
        worst = max(worst, rel)
    _report(
        5,
        "bounded-independence right-hand sides",
        worst < 0.25,
        f"worst relative median shift {worst:.3f} < 0.25",
    )


def test_criterion_6_reduction_identity():
    rng = random.Random(45)
    checks = 0
    for n, w, t in ((2, 1, 2), (2, 2, 2), (3, 1, 3)):
        m = 3
        for _ in range(20):
            c = random_tree_circuit(rng, n, w, t, m, leaf_prob=0.25)
            ens = group_characters(to_layered(c))
            for x_code in range((1 << w) ** n):
                x = [(x_code >> (j * w)) & ((1 << w) - 1) for j in range(n)]
                for b_code in range(1 << m):
                    b = [1 - 2 * ((b_code >> i) & 1) for i in range(m)]
                    assert check_decomposition(c, x, b, ens) == 0
                    checks += 1
    _report(6, "reduction identity residual = 0", True, f"{checks} (x, b) pairs")


AUDIT_SPECS = [
    GeneratorSpec.eps_biased(4, 4),
    GeneratorSpec.eps_biased(8, 6),
    GeneratorSpec.eps_biased(12, 8),
    GeneratorSpec.kwise(2, 4, 2),
    GeneratorSpec.kwise(2, 8, 3),
    GeneratorSpec.kwise(3, 8, 3),
    GeneratorSpec.kwise(2, 16, 4),
    GeneratorSpec.kwise_eps_biased(2, 4, Fraction(1, 4), 2),
    GeneratorSpec.kwise_eps_biased(2, 8, Fraction(1, 8), 3),
]


def test_criterion_7_generator_audits():
    details = []
    for spec in AUDIT_SPECS:
        if spec.kind == "eps_biased":
            bias = brute_bias(spec)
            assert bias <= spec.eps
            details.append(f"biased(m={spec.m}) {bias}<={spec.eps}")
        elif spec.kind == "kwise":
            dev = brute_independence(spec, spec.k)
            assert dev == 0
            details.append(f"kwise(k={spec.k},m={spec.m}) exact")
        else:
            worst = Fraction(0)
            total = seed_count(spec)
            from itertools import combinations

            for size in range(1, spec.k + 1):
                for subset in combinations(range(spec.m), size):
                    acc = 0
                    for seed in range(total):
                        out = sample_int(spec, seed)
                        sign = 1
                        for i in subset:
                            sign *= out[i]
                        acc += sign
                    worst = max(worst, Fraction(abs(acc), total))
            assert worst <= spec.eps
            details.append(f"kwise_biased(k={spec.k},m={spec.m}) {worst}<={spec.eps}")
    _report(7, "generator audits", True, "; ".join(details))


def test_criterion_8_avoid_end_to_end():
    rng = random.Random(46)
    unsound = 0
    random_success = 0
    for _ in range(200):
        c = random_junta_circuit(rng, 8, 3, 300)
        res = avoid(c, GeneratorSpec.eps_biased(300, 10), AvoidParams(budget=24))
        if res.succeeded:
            random_success += 1
            if brute_range_member(c, res.y):
                unsound += 1
    parity_success = 0
    for _ in range(200):
        n = rng.randint(4, 10)
        m = n + 1 + rng.randint(0, 4)
        c = random_parity_circuit(rng, n, min(3, n), m)
        res = avoid(c, GeneratorSpec.uniform(m), AvoidParams(budget=0))
        if res.succeeded and res.justification["kind"] == "parity_dependency":
            if brute_range_member(c, res.y):
                unsound += 1
            else:
                parity_success += 1
    # The random suite above almost always ends on a parity dependency; this
    # one can only succeed through the refutation path.
    rng = random.Random(48)
    refutation_success = 0
    for _ in range(20):
        c = random_pruned_circuit(rng, 8, 2, 300)
        res = avoid(c, GeneratorSpec.eps_biased(300, 10), AvoidParams(budget=24))
        if res.succeeded:
            if brute_range_member(c, res.y):
                unsound += 1
            elif res.justification["kind"] == "refutation":
                refutation_success += 1
    _report(
        8,
        "avoid end-to-end soundness",
        unsound == 0 and parity_success == 200 and refutation_success >= 1,
        f"parity path 200/200, random-suite success {random_success}/200 (reported), "
        f"refutation path {refutation_success}/20, unsound results {unsound}",
    )


def test_criterion_9_remote_point_soundness():
    rng = random.Random(47)
    violations = 0
    certified = 0
    trials = 0
    gen_cache: dict[int, GeneratorSpec] = {}

    def target_for(m):
        if m not in gen_cache:
            gen_cache[m] = GeneratorSpec.eps_biased(m, 11)
        if rng.random() < 0.5:
            return signs(rng, m)
        return sample_int(gen_cache[m], rng.getrandbits(gen_cache[m].seed_bits))

    suites = [
        (200, 8, 1, 2, 600, Fraction(1, 4), 5),
        (100, 6, 2, 2, 800, Fraction(2, 5), 4),
        (32, 8, 1, 3, 1500, Fraction(2, 5), 4),  # odd arity: keys of arity 3
    ]
    for count, n, w, t, m, eps, per_circuit in suites:
        done = 0
        while done < count:
            c = random_tree_circuit(rng, n, w, t, m, leaf_prob=0.15)
            ens = group_characters(to_layered(c))
            for _ in range(min(per_circuit, count - done)):
                b = target_for(m)
                rc = certify_not_in_range(c, b, CertifyParams(eps=eps), prepared=ens)
                trials += 1
                done += 1
                if rc.certified:
                    certified += 1
                    dist = brute_min_distance(c, b)
                    if dist < rc.min_distance or dist < Fraction(1, 2) - eps:
                        violations += 1
    _report(
        9,
        "remote-point soundness",
        violations == 0 and certified > 0,
        f"{trials} trials, {certified} certified, {violations} violations",
    )
