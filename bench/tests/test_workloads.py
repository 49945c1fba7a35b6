import random

from bench.workloads import (KIND_BLOCK, WORKLOADS, draw_arrivals, draw_kinds,
                             draw_suites, generate)


def test_generators_are_seed_stable_and_seed_sensitive():
    for workload in WORKLOADS.values():
        first = generate(workload, 1, 3.0, 20.0)
        again = generate(workload, 1, 3.0, 20.0)
        other = generate(workload, 2, 3.0, 20.0)
        assert first.ops == again.ops and first.due == again.due
        assert first.filler == again.filler
        assert first.filler != other.filler
        if workload.suites > 1:
            assert first.ops != other.ops
        if workload.loop == "open":
            assert first.due != other.due


def test_write_share_is_exact_per_block():
    for workload in WORKLOADS.values():
        kinds = [is_write for _suite, is_write in
                 generate(workload, 5, 1.0, 2.0).ops]
        for start in range(0, 2000, KIND_BLOCK):
            block = kinds[start:start + KIND_BLOCK]
            assert sum(block) == round(workload.write_share * KIND_BLOCK)


def test_zipf_prefers_its_top_rank_and_uniform_does_not():
    rng = random.Random(3)
    skewed = draw_suites(rng, 64, 0.99, 20000)
    flat = draw_suites(rng, 64, 0.0, 20000)
    top = max(set(skewed), key=skewed.count)
    assert skewed.count(top) / len(skewed) > 0.15     # 1/H(64, 0.99) = 0.21
    assert max(flat.count(s) for s in set(flat)) / len(flat) < 0.03
    assert set(flat) == set(range(64))


def test_arrivals_hold_the_rate_in_every_stratum():
    due = draw_arrivals(random.Random(9), 120.0, -3.0, 20.0)
    assert due == sorted(due)
    assert len(due) == 23 * 120
    for second in range(-3, 20):
        assert sum(1 for t in due if second <= t < second + 1) == 120
    gaps = [b - a for a, b in zip(due, due[1:])]
    # Locally it is still a Poisson process: gaps vary by well over 10x.
    assert max(gaps) > 10 * (sum(gaps) / len(gaps)) / 3


def test_draw_kinds_all_or_nothing():
    rng = random.Random(1)
    assert not any(draw_kinds(rng, 0.0, 100))
    assert all(draw_kinds(rng, 1.0, 100))
