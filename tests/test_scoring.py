import pytest

from planmark import (
    Observation,
    Path,
    combine,
    extend_half,
    parse_path,
    score_path,
)
from conftest import sample_paths
from oracles import flip, path_schemas, reverse


def test_link_multipliers(kb):
    role_up = kb.links["(role supermarket-shopping store-of supermarket)"]
    assert role_up.multiplier == pytest.approx(2.0, rel=1e-12)
    assert flip(kb, role_up).multiplier == 1.0
    isa_up = kb.links["(isa supermarket-shopping shopping)"]
    assert isa_up.multiplier == 1.0
    assert flip(kb, isa_up).multiplier == pytest.approx(0.4, rel=1e-12)


def test_terminal_multiplier(kb, fig31):
    # `score_path`'s last factor is the end's belief over its schema's prior.
    back = reverse(kb, fig31)
    cases = [(Path(fig31.start, fig31.links, Observation("go1", "go", 0.9)), 9.0),
             (Path(fig31.start, fig31.links[:2], Observation("s", "shopping", 0.05)), 1.0),
             (Path(back.start, back.links, Observation("m", "supermarket", 1.0)), 100.0)]
    for path, factor in cases:
        spine = path.start.belief
        for link in path.links:
            spine *= link.multiplier
        assert score_path(kb, path) / spine == pytest.approx(factor, rel=1e-12)


def test_fig31_scores_sixteen_point_two(kb, fig31):
    assert score_path(kb, fig31) == pytest.approx(16.2, rel=1e-12)


def right_to_left_score(kb, path):
    value = path.end.belief / kb.priors[path.end.schema]
    for link in reversed(path.links):
        value *= link.multiplier
    return value * path.start.belief


def test_accumulation_directions_agree(kb, fig31):
    assert right_to_left_score(kb, fig31) == pytest.approx(score_path(kb, fig31), rel=1e-12)


def test_single_role_score_reduces_to_belief_product_over_prior(kb):
    # The base path's score collapses to b1*b2/p(start type).
    path = parse_path(kb, "(inst s1 supermarket)"
                          "(role supermarket-shopping store-of supermarket)"
                          "(inst p1 supermarket-shopping)",
                      beliefs=(0.8, 0.7))
    assert score_path(kb, path) == pytest.approx(0.8 * 0.7 / 0.01, rel=1e-12)


def test_score_is_direction_symmetric_on_sampled_paths():
    for base, path in sample_paths(seed=41, limit=120, beliefs=True):
        assert score_path(base, reverse(base, path)) == pytest.approx(
            score_path(base, path), rel=1e-12)


def test_extend_half_worked_example(kb):
    up = extend_half(kb, 0.9, kb.links["(role supermarket-shopping store-of supermarket)"])
    assert up == pytest.approx(1.8, rel=1e-12)
    same = extend_half(kb, up, kb.links["(isa supermarket-shopping shopping)"])
    assert same == up


def test_half_fold_equals_closed_form(kb, fig31):
    half = fig31.start.belief
    for link in fig31.links:
        half = extend_half(kb, half, link)
    product = fig31.start.belief
    for link in fig31.links:
        product *= link.multiplier
    assert half == pytest.approx(product, rel=1e-12)


def test_combine_worked_example(kb, fig31):
    # Cleave at shopping: H1 = 0.9 * 2.0 * 1.0 = 1.8, H2 = 0.9 * 0.5 = 0.45.
    h1 = fig31.start.belief
    for link in fig31.links[:2]:
        h1 = extend_half(kb, h1, link)
    h2 = extend_half(kb, fig31.end.belief, flip(kb, fig31.links[2]))
    assert h1 == pytest.approx(1.8, rel=1e-12)
    assert h2 == pytest.approx(0.45, rel=1e-12)
    assert combine(kb, "shopping", h1, h2) == pytest.approx(16.2, rel=1e-12)


def cleave_at(base, path, j):
    """The meeting schema and both half scores of the cleave after link j,
    in the order `combine` takes them."""
    h1 = path.start.belief
    for link in path.links[:j]:
        h1 = extend_half(base, h1, link)
    h2 = path.end.belief
    for link in reversed(path.links[j:]):
        h2 = extend_half(base, h2, flip(base, link))
    return path_schemas(path)[j], h1, h2


def test_degenerate_cleaves_at_endpoints(kb, fig31):
    want = score_path(kb, fig31)
    for j in (0, len(fig31.links)):
        assert combine(kb, *cleave_at(kb, fig31, j)) == pytest.approx(want, rel=1e-12)


def test_cleave_identity_everywhere_on_sampled_paths():
    count = 0
    for base, path in sample_paths(seed=43, limit=120, beliefs=True):
        want = score_path(base, path)
        for j in range(len(path.links) + 1):
            assert combine(base, *cleave_at(base, path, j)) == pytest.approx(
                want, rel=1e-12)
        count += 1
    assert count >= 100


def test_monotone_sanity_bound():
    # A half's value never exceeds any of its prefixes by more than the
    # largest multiplier per added link.
    for base, path in sample_paths(seed=47, limit=40):
        biggest = max(link.multiplier for link in base.links.values())
        values = [path.start.belief]
        for link in path.links:
            values.append(extend_half(base, values[-1], link))
        for i, early in enumerate(values):
            for j in range(i, len(values)):
                assert values[j] <= early * max(biggest, 1.0) ** (j - i) + 1e-9
