"""Declarative experiment specifications and their unit-task expansion.

An :class:`ExperimentSpec` names a whole comparison study -- one
scenario crossed with seeds, policies and parameter ablations -- as a
frozen, JSON-serializable value.  ``expand()`` turns it into a
deterministic list of :class:`UnitTask` cells: the same spec always
yields the same tasks in the same order, on any host, which is what
makes sharded dispatch (``--shard i/n``) and crash-safe resume
coherent across machines.

Identity is content-based: :attr:`ExperimentSpec.content_hash` reuses
:func:`repro.runtime.cache.cache_key` over the canonical ``to_dict``
form (with a constant fingerprint, so the hash names the *experiment*,
not the code version), and every unit task keys its result in the
:class:`~repro.runtime.cache.ResultCache` by its own canonical
parameters -- two experiments sharing a cell share the cached result.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from typing import Any

from ..errors import ConfigurationError

#: Spec-hash "fingerprint": constant on purpose, so the content hash
#: identifies the experiment definition independent of the code version
#: (per-task cache keys still fold the real code fingerprint in).
_SPEC_FINGERPRINT = "exp-spec-v1"

#: Sweep shorthand: sweep name -> (task kind, ablation knob name).
#: Mirrors ``fcdpm sweep`` names; the thin clients in
#: :mod:`repro.analysis.sweep` build their specs through this table.
SWEEP_KINDS = {
    "storage": ("sweep.storage", "capacity"),
    "beta": ("sweep.beta", "beta"),
    "recharge": ("sweep.recharge", "threshold"),
    "predictor": ("sweep.predictor", "predictor"),
}


def _freeze_params(params) -> tuple[tuple[str, Any], ...]:
    """Normalize a params mapping/pair-sequence to sorted key order."""
    if params is None:
        return ()
    pairs = list(params.items()) if isinstance(params, dict) else list(params)
    out = []
    for pair in pairs:
        key, value = pair
        if isinstance(value, list):
            value = tuple(value)
        out.append((str(key), value))
    names = [k for k, _ in out]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate param names in {names}")
    return tuple(sorted(out))


@dataclass(frozen=True)
class UnitTask:
    """One executable cell of an experiment.

    ``task_id`` is positional (stable across resumes and shards);
    :meth:`cache_params` is identity-carrying -- it deliberately leaves
    the position *out*, so the same (kind, scenario, seed, policy,
    params) cell computed by any experiment lands on the same
    :class:`~repro.runtime.cache.ResultCache` entry.
    """

    index: int
    task_id: str
    kind: str
    scenario: str | dict | None
    seed: int
    policy: str | None
    params: tuple[tuple[str, Any], ...] = ()

    def param(self, name: str, default: Any = None) -> Any:
        """Look up one ablation-knob assignment."""
        for key, value in self.params:
            if key == name:
                return value
        return default

    def cache_namespace(self) -> str:
        """Cache namespace: one per task kind."""
        return f"exp/{self.kind}"

    def cache_params(self) -> dict[str, Any]:
        """Canonical identity dict -- what keys the cached result."""
        return {
            "kind": self.kind,
            "scenario": self.scenario,
            "seed": self.seed,
            "policy": self.policy,
            "params": dict(self.params),
        }

    def cache_key(self, fingerprint: str | None = None) -> str:
        """The task's :class:`ResultCache` key under ``fingerprint``."""
        from ..runtime.cache import cache_key

        return cache_key(self.cache_namespace(), self.cache_params(), fingerprint)

    def label(self) -> str:
        """Short human-readable cell description for errors and logs."""
        bits = [self.kind, f"seed={self.seed}"]
        if self.policy is not None:
            bits.append(f"policy={self.policy}")
        bits.extend(f"{k}={v!r}" for k, v in self.params)
        return " ".join(bits)


@dataclass(frozen=True)
class ExperimentSpec:
    """A named, declarative scenario x seeds x policies x ablations study.

    Parameters
    ----------
    name:
        Experiment name -- the handle ``fcdpm exp run/status/...`` use.
    kind:
        Task kind from :data:`repro.exp.tasks.TASK_KINDS`; decides what
        one cell *does* (run a scenario policy cell, one sweep point,
        one per-seed table reproduction, ...).
    scenario:
        Registered scenario name, a full ``Scenario.to_dict()`` dict,
        or ``None`` for kinds with a built-in default configuration
        (the sweep kinds keep the historical Experiment-1 base).
    seeds:
        Trace seeds, duplicate-free (mirrors ``simulate_batch``).
    policies:
        ``simulate_batch`` policy specs; empty means "the scenario's
        own policy" (one cell per seed).
    ablations:
        ``((knob, (value, ...)), ...)`` -- the cross product of all
        knob value lists is expanded, slowest-varying first.
    """

    name: str
    kind: str
    scenario: str | dict | None = None
    seeds: tuple[int, ...] = (2007,)
    policies: tuple[str, ...] = ()
    ablations: tuple[tuple[str, tuple], ...] = ()
    description: str = ""
    #: Free-form extra parameters forwarded to every unit task.
    extra: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("experiment needs a non-empty name")
        if not self.kind:
            raise ConfigurationError("experiment needs a task kind")
        seeds = tuple(int(s) for s in self.seeds)
        if not seeds:
            raise ConfigurationError("experiment needs at least one seed")
        if len(set(seeds)) != len(seeds):
            raise ConfigurationError(f"duplicate seeds in {seeds}")
        object.__setattr__(self, "seeds", seeds)
        policies = tuple(self.policies)
        if len(set(policies)) != len(policies):
            raise ConfigurationError(f"duplicate policies in {policies}")
        object.__setattr__(self, "policies", policies)
        # Names that can never run are refused here, not by every task.
        if isinstance(self.scenario, str):
            from ..scenario import get_scenario

            get_scenario(self.scenario)
        if policies:
            from ..sim.vectorized import check_policy_spec

            for policy in policies:
                check_policy_spec(policy)
        ablations = tuple(
            (str(knob), tuple(values)) for knob, values in self.ablations
        )
        knob_names = [knob for knob, _ in ablations]
        if len(set(knob_names)) != len(knob_names):
            raise ConfigurationError(f"duplicate ablation knobs in {knob_names}")
        for knob, values in ablations:
            if not values:
                raise ConfigurationError(f"ablation {knob!r} has no values")
        object.__setattr__(self, "ablations", ablations)
        object.__setattr__(self, "extra", _freeze_params(self.extra))
        # A sweep cell reads its point from one knob; without it every
        # task would fail at run time, so refuse the spec here.
        knob = dict(SWEEP_KINDS.values()).get(self.kind)
        if knob is not None and knob not in knob_names + [k for k, _ in self.extra]:
            raise ConfigurationError(
                f"{self.kind} experiment needs a {knob!r} ablation axis "
                f"or extra param"
            )

    # -- identity ----------------------------------------------------------

    @property
    def n_tasks(self) -> int:
        """Cell count without materializing the expansion."""
        n = len(self.seeds) * max(len(self.policies), 1)
        for _, values in self.ablations:
            n *= len(values)
        return n

    @property
    def content_hash(self) -> str:
        """Canonical content hash of the definition (code-independent)."""
        from ..runtime.cache import cache_key

        return cache_key("exp.spec", self.to_dict(), fingerprint=_SPEC_FINGERPRINT)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (stable keys; JSON-serializable)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "scenario": self.scenario,
            "seeds": list(self.seeds),
            "policies": list(self.policies),
            "ablations": [[knob, list(values)] for knob, values in self.ablations],
            "description": self.description,
            "extra": [list(pair) for pair in self.extra],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExperimentSpec":
        """Rebuild from :meth:`to_dict` output.

        Raises :class:`~repro.errors.ConfigurationError` naming any key
        that is not a spec field, rather than dropping it silently.
        """
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigurationError(f"unknown experiment spec keys {unknown}")
        return cls(
            name=data["name"],
            kind=data["kind"],
            scenario=data.get("scenario"),
            seeds=tuple(data.get("seeds", (2007,))),
            policies=tuple(data.get("policies", ())),
            ablations=tuple(
                (knob, tuple(values)) for knob, values in data.get("ablations", ())
            ),
            description=data.get("description", ""),
            extra=tuple((k, v) for k, v in data.get("extra", ())),
        )

    # -- expansion ---------------------------------------------------------

    def expand(self) -> list[UnitTask]:
        """The deterministic unit-task list.

        Nesting order: ablation combinations (slowest, in declaration
        order), then seeds, then policies -- so a single-knob sweep
        enumerates its values in order, and a (seeds x policies) batch
        keeps every seed's policies adjacent.  ``task_id`` is derived
        from the position alone.
        """
        policies: tuple[str | None, ...] = self.policies or (None,)
        knob_names = [knob for knob, _ in self.ablations]
        value_lists = [values for _, values in self.ablations]
        tasks: list[UnitTask] = []
        index = 0
        for combo in itertools.product(*value_lists):
            params = tuple(zip(knob_names, combo)) + self.extra
            for seed in self.seeds:
                for policy in policies:
                    tasks.append(
                        UnitTask(
                            index=index,
                            task_id=f"t{index:05d}",
                            kind=self.kind,
                            scenario=self.scenario,
                            seed=seed,
                            policy=policy,
                            params=params,
                        )
                    )
                    index += 1
        return tasks


def _scenario_field(scenario) -> str | dict | None:
    """Normalize a sweep-style ``scenario`` argument for a spec field."""
    if scenario is None or isinstance(scenario, (str, dict)):
        return scenario
    to_dict = getattr(scenario, "to_dict", None)
    if callable(to_dict):
        return to_dict()
    raise ConfigurationError(
        f"scenario must be a name, dict or Scenario, got {type(scenario).__name__}"
    )


def sweep_spec(
    sweep: str,
    values,
    seed: int = 2007,
    scenario=None,
) -> ExperimentSpec:
    """Spec for one ablation sweep (see :data:`SWEEP_KINDS`)."""
    if sweep not in SWEEP_KINDS:
        raise ConfigurationError(
            f"unknown sweep {sweep!r}; pick from {sorted(SWEEP_KINDS)}"
        )
    kind, knob = SWEEP_KINDS[sweep]
    return ExperimentSpec(
        name=f"sweep-{sweep}",
        kind=kind,
        scenario=_scenario_field(scenario),
        seeds=(int(seed),),
        ablations=((knob, tuple(values)),),
    )


def seed_study_spec(kind: str, seeds, name: str | None = None) -> ExperimentSpec:
    """Spec for a per-seed stability study (``run_seeds`` replacement)."""
    return ExperimentSpec(
        name=name or f"seed-study-{kind}",
        kind=kind,
        seeds=tuple(int(s) for s in seeds),
    )


def scenario_batch_spec(
    name: str,
    scenario,
    seeds,
    policies=(),
) -> ExperimentSpec:
    """Spec for a (scenario x seeds x policies) Monte-Carlo batch."""
    return ExperimentSpec(
        name=name,
        kind="scenario",
        scenario=_scenario_field(scenario),
        seeds=tuple(int(s) for s in seeds),
        policies=tuple(policies),
    )
