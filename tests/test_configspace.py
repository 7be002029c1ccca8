import dataclasses
import itertools

import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

from rendergov.configspace import (
    PassDescriptor,
    PassRoster,
    RenderingConfiguration,
    config_at,
    config_index,
    enumerate_configurations,
    single_degradation_config,
)


def make_roster(level_counts):
    return PassRoster(
        tuple(
            PassDescriptor(f"p{i}", n, uses_batches=True, uses_vertices=True, uses_fragments=True)
            for i, n in enumerate(level_counts)
        )
    )


def default_roster() -> PassRoster:
    """Six passes, three levels each: the 729-configuration space."""
    return PassRoster(
        (
            PassDescriptor(
                "resolution",
                3,
                is_resolution=True,
                fragment_scale_per_level=(1.0, 0.8, 0.6),
            ),
            PassDescriptor(
                "base_shading", 3, uses_batches=True, uses_vertices=True, uses_fragments=True
            ),
            PassDescriptor(
                "reflections", 3, uses_batches=True, uses_vertices=True, uses_fragments=True
            ),
            PassDescriptor(
                "shadows", 3, uses_batches=True, uses_vertices=True, uses_fragments=True
            ),
            PassDescriptor(
                "metals", 3, uses_batches=True, uses_vertices=True, uses_fragments=True
            ),
            PassDescriptor("antialiasing", 3, uses_fragments=True),
        )
    )


def test_default_roster_has_729_configurations():
    roster = default_roster()
    configs = enumerate_configurations(roster)
    assert len(configs) == 729
    assert roster.config_count == 729


def test_single_pass_single_level():
    roster = make_roster([1])
    assert enumerate_configurations(roster) == [RenderingConfiguration((0,))]


def test_two_passes_lexicographic_order():
    roster = make_roster([2, 3])
    configs = enumerate_configurations(roster)
    assert [tuple(c) for c in configs] == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
    ]


@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4))
@seed(20180427)
def test_enumeration_bijection(level_counts):
    roster = make_roster(level_counts)
    configs = enumerate_configurations(roster)
    assert len(configs) == roster.config_count
    assert len(set(configs)) == len(configs)
    for idx, cfg in enumerate(configs):
        assert config_index(roster, cfg) == idx
        assert config_at(roster, idx) == cfg


def test_enumeration_builds_plain_configurations(demo_scenario, mini_scenario, lattice_scenario):
    """enumerate_configurations skips __post_init__; what it builds must be
    what the constructor builds."""
    for sc in (demo_scenario, mini_scenario, lattice_scenario):
        roster = sc.roster
        configs = enumerate_configurations(roster)
        ranges = [range(p.level_count) for p in roster.passes]
        assert len(configs) == roster.config_count
        for idx, (cfg, levels) in enumerate(zip(configs, itertools.product(*ranges))):
            built = RenderingConfiguration(levels)
            assert cfg == built and hash(cfg) == hash(built)
            assert type(cfg.levels) is tuple
            assert all(type(v) is int for v in cfg.levels)
            assert config_index(roster, cfg) == idx


def test_every_worst_single_degradation_appears_once():
    roster = make_roster([3, 2, 3])
    configs = enumerate_configurations(roster)
    for i, p in enumerate(roster.passes):
        if p.level_count < 2:
            continue
        worst = single_degradation_config(roster, i, p.level_count - 1)
        assert configs.count(worst) == 1


def test_single_degradation_examples():
    roster = default_roster()
    assert tuple(single_degradation_config(roster, 3, 2)) == (0, 0, 0, 2, 0, 0)
    assert tuple(single_degradation_config(roster, 0, 1)) == (1, 0, 0, 0, 0, 0)


def test_single_degradation_rejects_level_zero_and_bad_indices():
    roster = default_roster()
    with pytest.raises(ValueError):
        single_degradation_config(roster, 1, 0)
    with pytest.raises(ValueError):
        single_degradation_config(roster, 6, 1)
    with pytest.raises(ValueError):
        single_degradation_config(roster, 1, 3)


def test_roster_rejects_duplicate_names():
    with pytest.raises(ValueError):
        PassRoster((PassDescriptor("a", 2), PassDescriptor("a", 2)))


def test_roster_rejects_two_resolution_passes():
    res = PassDescriptor("r1", 2, is_resolution=True, fragment_scale_per_level=(1.0, 0.5))
    res2 = PassDescriptor("r2", 2, is_resolution=True, fragment_scale_per_level=(1.0, 0.5))
    with pytest.raises(ValueError):
        PassRoster((res, res2))


def test_resolution_pass_validation():
    with pytest.raises(ValueError):
        PassDescriptor("r", 2, is_resolution=True, fragment_scale_per_level=(1.0,))
    with pytest.raises(ValueError):
        PassDescriptor("r", 2, is_resolution=True, fragment_scale_per_level=(1.0, 1.5))
    with pytest.raises(ValueError):
        PassDescriptor("r", 2, uses_batches=True, is_resolution=True,
                       fragment_scale_per_level=(1.0, 0.5))


def test_fragment_scale_follows_resolution_level():
    roster = default_roster()
    assert roster.fragment_scale(roster.best_config()) == 1.0
    assert roster.fragment_scale(RenderingConfiguration((2, 0, 0, 0, 0, 0))) == 0.6


def test_validate_config_bounds():
    roster = make_roster([2, 2])
    with pytest.raises(ValueError):
        roster.validate_config(RenderingConfiguration((0, 2)))
    with pytest.raises(ValueError):
        roster.validate_config(RenderingConfiguration((0,)))


def test_derived_roster_views_are_per_instance():
    roster = default_roster()
    assert roster.resolution_index == 0
    assert roster.model_pass_indices == (1, 2, 3, 4, 5)
    assert roster.model_masks[-1] == (False, False, True)
    assert roster.model_pass_indices is roster.model_pass_indices  # computed once
    assert roster == default_roster() and hash(roster) == hash(default_roster())
    # A replaced roster derives its views afresh instead of inheriting them.
    swapped = dataclasses.replace(roster, passes=roster.passes[1:] + roster.passes[:1])
    assert swapped.resolution_index == 5
    assert swapped.model_pass_indices == (0, 1, 2, 3, 4)
    assert swapped.model_passes == roster.model_passes
    assert swapped.model_masks == roster.model_masks
    plain = dataclasses.replace(roster, passes=roster.passes[1:])
    assert plain.resolution_index is None
    assert plain.fragment_scale(plain.worst_config()) == 1.0
