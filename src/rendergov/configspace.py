"""Rendering-pass roster, quality-level lattice, and configuration enumeration.

Level 0 is always the best quality of a pass; higher indices degrade. A
rendering configuration assigns one level to every pass in roster order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class PassDescriptor:
    """One rendering pass with a fixed number of selectable quality levels.

    A resolution pass carries no primitives of its own; it only scales the
    fragment counts of the other passes via ``fragment_scale_per_level``.
    """

    name: str
    level_count: int
    uses_batches: bool = False
    uses_vertices: bool = False
    uses_fragments: bool = False
    is_resolution: bool = False
    fragment_scale_per_level: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.level_count < 1:
            raise ValueError(f"pass {self.name!r}: level_count must be >= 1")
        if self.is_resolution:
            if self.uses_batches or self.uses_vertices or self.uses_fragments:
                raise ValueError(
                    f"pass {self.name!r}: a resolution pass has no primitives of its own"
                )
            scales = tuple(float(s) for s in self.fragment_scale_per_level)
            if len(scales) != self.level_count:
                raise ValueError(
                    f"pass {self.name!r}: fragment_scale_per_level needs one entry per level"
                )
            if any(not (0.0 < s <= 1.0) for s in scales):
                raise ValueError(f"pass {self.name!r}: fragment scales must lie in (0, 1]")
            object.__setattr__(self, "fragment_scale_per_level", scales)
        elif self.fragment_scale_per_level:
            raise ValueError(
                f"pass {self.name!r}: fragment_scale_per_level is only valid on a resolution pass"
            )


@dataclass(frozen=True)
class RenderingConfiguration:
    """Vector of per-pass quality levels; the decision variable of selection."""

    levels: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(map(int, self.levels)))

    def __getitem__(self, i: int) -> int:
        return self.levels[i]

    def __len__(self) -> int:
        return len(self.levels)

    def __iter__(self):
        return iter(self.levels)

    def __str__(self) -> str:
        return "-".join(str(v) for v in self.levels)


@dataclass(frozen=True)
class PassRoster:
    """Ordered, immutable list of passes defining the configuration space."""

    passes: tuple[PassDescriptor, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "passes", tuple(self.passes))
        if not self.passes:
            raise ValueError("roster needs at least one pass")
        names = [p.name for p in self.passes]
        if len(set(names)) != len(names):
            raise ValueError("pass names must be unique")
        if sum(p.is_resolution for p in self.passes) > 1:
            raise ValueError("at most one resolution pass is allowed")

    @property
    def size(self) -> int:
        return len(self.passes)

    # The roster is frozen, so the derived views below are computed once per
    # instance; they live in the instance __dict__, outside the dataclass
    # fields, and dataclasses.replace starts without them.
    @cached_property
    def resolution_index(self) -> int | None:
        return next((i for i, p in enumerate(self.passes) if p.is_resolution), None)

    @cached_property
    def model_pass_indices(self) -> tuple[int, ...]:
        """Roster indices of the passes that enter the power formula."""
        return tuple(i for i, p in enumerate(self.passes) if not p.is_resolution)

    @cached_property
    def model_passes(self) -> tuple[PassDescriptor, ...]:
        return tuple(p for p in self.passes if not p.is_resolution)

    @cached_property
    def model_masks(self) -> tuple[tuple[bool, bool, bool], ...]:
        """(uses_batches, uses_vertices, uses_fragments) per model pass."""
        return tuple(
            (p.uses_batches, p.uses_vertices, p.uses_fragments) for p in self.model_passes
        )

    @property
    def config_count(self) -> int:
        return math.prod(p.level_count for p in self.passes)

    def validate_config(self, config: RenderingConfiguration) -> None:
        if len(config) != self.size:
            raise ValueError(
                f"configuration has {len(config)} components, roster has {self.size} passes"
            )
        for i, (lvl, p) in enumerate(zip(config, self.passes)):
            if not 0 <= lvl < p.level_count:
                raise ValueError(
                    f"level {lvl} out of range [0, {p.level_count}) for pass {i} ({p.name!r})"
                )

    def best_config(self) -> RenderingConfiguration:
        return RenderingConfiguration(tuple(0 for _ in self.passes))

    def worst_config(self) -> RenderingConfiguration:
        return RenderingConfiguration(tuple(p.level_count - 1 for p in self.passes))

    def fragment_scale(self, config: RenderingConfiguration) -> float:
        """Fragment-count multiplier implied by the resolution pass's level."""
        ri = self.resolution_index
        if ri is None:
            return 1.0
        return self.passes[ri].fragment_scale_per_level[config[ri]]


def enumerate_configurations(roster: PassRoster) -> list[RenderingConfiguration]:
    """All configurations in lexicographic order; length is the product of level counts."""
    ranges = [range(p.level_count) for p in roster.passes]
    # product yields tuples of built-in ints already, so each configuration
    # is made without __post_init__'s coercion.
    configs = []
    for levels in itertools.product(*ranges):
        config = object.__new__(RenderingConfiguration)
        object.__setattr__(config, "levels", levels)
        configs.append(config)
    return configs


def level_grid(roster: PassRoster) -> tuple[np.ndarray, ...]:
    """Each pass's level across the lattice, as broadcastable index arrays.

    ``grid[i]`` spans axis i of the ``(L_0, ..., L_{n-1})`` lattice and has
    length 1 on the others, so ``table[grid[i]]`` spreads a per-level table of
    pass i over every configuration; ``ravel()`` gives enumeration order.
    """
    return np.indices(tuple(p.level_count for p in roster.passes), sparse=True)


def config_index(roster: PassRoster, config: RenderingConfiguration) -> int:
    """Position of ``config`` in the lexicographic enumeration."""
    roster.validate_config(config)
    idx = 0
    for lvl, p in zip(config, roster.passes):
        idx = idx * p.level_count + lvl
    return idx


def config_at(roster: PassRoster, index: int) -> RenderingConfiguration:
    """Inverse of :func:`config_index`."""
    if not 0 <= index < roster.config_count:
        raise ValueError(f"index {index} out of range [0, {roster.config_count})")
    levels = [0] * roster.size
    for i in range(roster.size - 1, -1, -1):
        n = roster.passes[i].level_count
        levels[i] = index % n
        index //= n
    return RenderingConfiguration(tuple(levels))


def single_degradation_config(
    roster: PassRoster, pass_index: int, level: int
) -> RenderingConfiguration:
    """Configuration using the best level everywhere except one degraded pass."""
    if not 0 <= pass_index < roster.size:
        raise ValueError(f"pass index {pass_index} out of range")
    if level <= 0:
        raise ValueError("degradation level must exceed 0 (0 is the best-quality baseline)")
    if level >= roster.passes[pass_index].level_count:
        raise ValueError(
            f"level {level} out of range for pass {pass_index} "
            f"({roster.passes[pass_index].level_count} levels)"
        )
    levels = [0] * roster.size
    levels[pass_index] = level
    return RenderingConfiguration(tuple(levels))


def single_degradations(roster: PassRoster) -> dict[tuple[int, int], RenderingConfiguration]:
    """The :func:`single_degradation_config` of every (pass, level > 0), pass
    by pass and level by level: what ratio calibration scores at each
    calibration frame."""
    return {
        (i, level): single_degradation_config(roster, i, level)
        for i, p in enumerate(roster.passes)
        for level in range(1, p.level_count)
    }
