"""Declarative campaign specifications.

A :class:`CampaignSpec` is "a base config plus axes": each axis names a
config field and the values to sweep, and the campaign is the cartesian
product of all axes applied to the base. The base may be any config type
with a :class:`~repro.campaign.kinds.TrialKind` — an
:class:`~repro.experiments.runner.ExperimentConfig`, a
:class:`~repro.geo.config.FederationConfig` or a
:class:`~repro.stream.service.ServiceConfig`. Axis names may be dotted
(``workload.num_jobs``, ``experiment.scheduler``) to reach nested records;
on a tuple of records (``regions.scheduler``) the value is set on every
element.

If the spec names a ``baseline`` policy that no product trial covers, one
baseline trial is prepended per replicate combination (every axis except
the kind's policy fields), so normalized reports can be computed from the
result store alone.

:func:`campaign_presets` provides named specs for the paper's Table 2/3 and
Fig. 7–19 campaigns at laptop scale (Fig. 15 is a timeline comparison, not a
sweep, and has no campaign preset), plus the federation and streaming
sweeps; :func:`table_spec` derives the spec the printed Tables 2/3 run.
"""

from __future__ import annotations

import dataclasses
import itertools
import types
import typing
from dataclasses import dataclass, replace
from functools import cache
from typing import Any, Iterable, Mapping

from repro.campaign.kinds import TrialKind, kind_of
from repro.carbon.grids import GRID_CODES
from repro.disrupt.schedule import DisruptionSchedule
from repro.experiments.runner import ExperimentConfig
from repro.geo.config import FederationConfig, RegionConfig
from repro.stream.service import ServiceConfig
from repro.workloads.batch import WorkloadSpec
from repro.workloads.stream import StreamSpec

Axes = Mapping[str, Iterable[Any]] | Iterable[tuple[str, Iterable[Any]]]


def apply_axis_value(config, field_name: str, value: Any):
    """Return ``config`` with one (possibly dotted) field replaced.

    A dotted path that crosses a tuple of records sets the rest of the
    path on every element.
    """
    head, _, rest = field_name.partition(".")
    if not rest:
        return replace(config, **{head: value})
    current = getattr(config, head)
    if isinstance(current, tuple):
        updated = tuple(apply_axis_value(item, rest, value) for item in current)
    else:
        updated = apply_axis_value(current, rest, value)
    return replace(config, **{head: updated})


def config_to_dict(config) -> dict[str, Any]:
    """Serialize a config (all nesting) to plain JSON types."""

    def _plain(obj: Any) -> Any:
        if isinstance(obj, dict):
            return {k: _plain(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [_plain(v) for v in obj]
        return obj

    return _plain(dataclasses.asdict(config))


@cache
def _field_types(config_type: type) -> dict[str, Any]:
    return typing.get_type_hints(config_type)


def _decode(value: Any, hint: Any) -> Any:
    if value is None:
        return None
    if isinstance(hint, types.UnionType):  # ``X | None``
        (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    if typing.get_origin(hint) is tuple:  # ``tuple[X, ...]``
        item = typing.get_args(hint)[0]
        return tuple(_decode(v, item) for v in value)
    if dataclasses.is_dataclass(hint):
        return config_from_dict(value, hint)
    return value


def config_from_dict(data: Mapping[str, Any], config_type: type):
    """Rebuild a ``config_type`` instance from :func:`config_to_dict`.

    Driven by the dataclass field annotations: nested dataclasses,
    ``tuple[X, ...]`` and ``X | None`` are rebuilt recursively.
    """
    hints = _field_types(config_type)
    return config_type(
        **{name: _decode(value, hints[name]) for name, value in data.items()}
    )


@dataclass(frozen=True)
class CampaignSpec:
    """A named cartesian sweep over config fields.

    Parameters
    ----------
    name:
        Campaign identifier (used in store records and the CLI).
    base:
        The config every trial starts from; its type picks the
        :attr:`kind`.
    axes:
        Mapping (or ordered pairs) of field name -> values to sweep. Dotted
        names reach nested records.
    baseline:
        Policy every report row is normalized against (a value of the
        kind's first policy field: a scheduler, or a routing policy). If
        none of the product trials run it, baseline trials are added per
        replicate.
    description:
        One line shown by ``repro campaign list``.
    """

    name: str
    base: Any
    axes: tuple[tuple[str, tuple[Any, ...]], ...]
    baseline: str | None = None
    description: str = ""

    def __init__(
        self,
        name: str,
        base: Any,
        axes: Axes,
        baseline: str | None = None,
        description: str = "",
    ) -> None:
        pairs = axes.items() if isinstance(axes, Mapping) else axes
        normalized = tuple((str(k), tuple(v)) for k, v in pairs)
        for field_name, values in normalized:
            if not values:
                raise ValueError(f"axis {field_name!r} has no values")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "axes", normalized)
        object.__setattr__(self, "baseline", baseline)
        object.__setattr__(self, "description", description)

    # ------------------------------------------------------------------
    @property
    def kind(self) -> TrialKind:
        return kind_of(self.base)

    def num_trials(self) -> int:
        return len(self.trials())

    def axis_summary(self) -> str:
        """``scheduler×4 · grid×2 · seed×3`` — for listings and banners."""
        return " · ".join(f"{name}×{len(values)}" for name, values in self.axes)

    def _expand(self, axes) -> list:
        names = [name for name, _ in axes]
        configs = []
        for combo in itertools.product(*(values for _, values in axes)):
            config = self.base
            for field_name, value in zip(names, combo):
                config = apply_axis_value(config, field_name, value)
            configs.append(config)
        return configs

    def trials(self) -> list:
        """Expand the spec into concrete, deduplicated trial configs.

        Baseline trials (when needed) come first so a campaign's progress
        stream starts with the rows everything else is normalized against.
        """
        kind = self.kind
        product_trials = self._expand(self.axes)
        configs = []
        if self.baseline is not None and not any(
            kind.policy_of(c) == self.baseline for c in product_trials
        ):
            replicate_axes = [
                (name, values)
                for name, values in self.axes
                if name not in kind.policy_fields
            ]
            configs = [
                apply_axis_value(c, kind.policy_fields[0], self.baseline)
                for c in self._expand(replicate_axes)
            ]
        configs.extend(product_trials)
        return list(dict.fromkeys(configs))

    def scaled(
        self, num_jobs: int | None = None, num_executors: int | None = None
    ) -> "CampaignSpec":
        """A copy with the base workload/cluster resized (CLI overrides)."""
        base = self.base
        if num_jobs is not None:
            base = replace(base, workload=replace(base.workload, num_jobs=num_jobs))
        if num_executors is not None:
            base = replace(
                base,
                num_executors=num_executors,
                per_job_cap=max(2, num_executors // 4),
            )
        return CampaignSpec(
            name=self.name,
            base=base,
            axes=self.axes,
            baseline=self.baseline,
            description=self.description,
        )


# ----------------------------------------------------------------------
# Named presets (laptop scale)
# ----------------------------------------------------------------------
def campaign_presets() -> dict[str, CampaignSpec]:
    """Every named campaign spec, of every kind: the paper's tables and
    sweeps, then the federation and streaming sweeps."""
    def tpch(jobs: int, ia: float = 30.0, scales=(2, 10, 50)) -> WorkloadSpec:
        return WorkloadSpec(
            family="tpch", num_jobs=jobs, mean_interarrival=ia, tpch_scales=scales
        )
    prototype = ExperimentConfig(
        mode="kubernetes",
        num_executors=40,
        per_job_cap=10,
        workload=tpch(25, ia=45.0),
        seed=5,
    )
    simulator = ExperimentConfig(
        mode="standalone", num_executors=25, workload=tpch(20), seed=5
    )
    offsets = (0, 977, 1954)  # "uniformly random start times", fixed for replay
    gammas = (0.1, 0.25, 0.5, 0.75, 0.9)

    specs = [
        CampaignSpec(
            "smoke",
            ExperimentConfig(
                num_executors=4, workload=tpch(3, ia=5.0, scales=(2,))
            ),
            axes={"scheduler": ("fifo", "pcaps"), "seed": (0, 1)},
            baseline="fifo",
            description="4-trial sanity campaign (tests, CI)",
        ),
        CampaignSpec(
            "demo",
            ExperimentConfig(
                num_executors=10, workload=tpch(6, ia=20.0, scales=(2, 10))
            ),
            axes={
                "scheduler": ("fifo", "decima", "cap-fifo", "pcaps"),
                "grid": ("DE", "CAISO"),
                "seed": (0, 1, 2),
            },
            baseline="fifo",
            description="24-trial showcase: 4 schedulers × 2 grids × 3 seeds",
        ),
        CampaignSpec(
            "table2",
            replace(prototype, seed=0),
            axes={
                "scheduler": ("k8s-default", "decima", "cap-k8s-default", "pcaps"),
                "grid": GRID_CODES,
                "trace_start_step": offsets,
            },
            baseline="k8s-default",
            description="Table 2: prototype mode, all grids × trace offsets",
        ),
        CampaignSpec(
            "table3",
            replace(simulator, num_executors=40, workload=tpch(25, ia=45.0), seed=0),
            axes={
                "scheduler": (
                    "fifo",
                    "weighted-fair",
                    "decima",
                    "greenhadoop",
                    "cap-fifo",
                    "cap-weighted-fair",
                    "cap-decima",
                    "pcaps",
                ),
                "grid": GRID_CODES,
                "trace_start_step": offsets,
            },
            baseline="fifo",
            description="Table 3: simulator mode, all grids × trace offsets",
        ),
        CampaignSpec(
            "fig7",
            prototype,
            axes={"scheduler": ("pcaps",), "gamma": gammas},
            baseline="k8s-default",
            description="Fig. 7: PCAPS γ sweep, prototype mode, DE",
        ),
        CampaignSpec(
            "fig8",
            prototype,
            axes={
                "scheduler": ("cap-k8s-default",),
                "cap_min_quota": (4, 8, 14, 22, 32),
            },
            baseline="k8s-default",
            description="Fig. 8: CAP B sweep, prototype mode, DE",
        ),
        CampaignSpec(
            "fig9",
            ExperimentConfig(
                mode="kubernetes",
                num_executors=24,
                per_job_cap=6,
                workload=tpch(15),
            ),
            axes={
                "scheduler": ("pcaps", "cap-k8s-default"),
                "seed": tuple(range(8)),
            },
            baseline="k8s-default",
            description="Fig. 9: per-job trials, 8 seed replicates",
        ),
        CampaignSpec(
            "fig10",
            ExperimentConfig(
                mode="kubernetes",
                num_executors=25,
                per_job_cap=6,
                workload=tpch(15),
                seed=2,
            ),
            axes={
                "scheduler": ("decima", "cap-k8s-default", "pcaps"),
                "grid": GRID_CODES,
            },
            baseline="k8s-default",
            description="Fig. 10: per-grid behaviour, prototype mode",
        ),
        CampaignSpec(
            "fig11",
            simulator,
            axes={"scheduler": ("pcaps",), "gamma": gammas},
            baseline="fifo",
            description="Fig. 11: PCAPS γ sweep, simulator mode, DE",
        ),
        CampaignSpec(
            "fig12",
            simulator,
            axes={
                "scheduler": ("cap-fifo",),
                "cap_min_quota": (2, 5, 8, 12, 16, 20),
            },
            baseline="fifo",
            description="Fig. 12: CAP B sweep, simulator mode, DE",
        ),
        CampaignSpec(
            "fig13-pcaps",
            replace(simulator, seed=11),
            axes={
                "scheduler": ("pcaps",),
                "gamma": (0.2, 0.4, 0.5, 0.6, 0.8, 0.95),
            },
            baseline="decima",
            description="Fig. 13: PCAPS frontier branch vs Decima",
        ),
        CampaignSpec(
            "fig13-cap",
            replace(simulator, seed=11),
            axes={
                "scheduler": ("cap-decima",),
                "cap_min_quota": (2, 4, 6, 9, 13, 18),
            },
            baseline="decima",
            description="Fig. 13: CAP-Decima frontier branch vs Decima",
        ),
        CampaignSpec(
            "fig14",
            replace(simulator, workload=tpch(15), seed=2),
            axes={
                "scheduler": ("decima", "cap-fifo", "pcaps"),
                "grid": GRID_CODES,
            },
            baseline="fifo",
            description="Fig. 14: per-grid behaviour, simulator mode",
        ),
        CampaignSpec(
            "fig16-17",
            replace(simulator, seed=6),
            axes={
                "scheduler": ("decima", "cap-fifo", "pcaps"),
                "workload.num_jobs": (6, 12, 25, 50),
            },
            baseline="fifo",
            description="Figs. 16/17: metrics vs batch size, DE",
        ),
        CampaignSpec(
            "fig18-19",
            replace(simulator, seed=6),
            axes={
                "scheduler": ("decima", "cap-fifo", "pcaps"),
                "workload.mean_interarrival": (10.0, 20.0, 30.0, 60.0),
            },
            baseline="fifo",
            description="Figs. 18/19: metrics vs mean interarrival, DE",
        ),
        *_federation_presets(),
        *_stream_presets(),
    ]
    presets: dict[str, CampaignSpec] = {}
    for spec in specs:
        if spec.name in presets:
            raise ValueError(f"duplicate campaign preset {spec.name!r}")
        presets[spec.name] = spec
    return presets


def table_spec(name: str) -> CampaignSpec:
    """Paper Table 2 or 3 (``name``) as the ``table2``/``table3`` preset
    without its ``trace_start_step`` axis: every scheduler on every grid
    at trace offset 0, which is what the tables report. Averaging over the
    preset's three offsets would change the numbers."""
    preset = campaign_presets()[name]
    return CampaignSpec(
        name,
        preset.base,
        axes=[axis for axis in preset.axes if axis[0] != "trace_start_step"],
        baseline=preset.baseline,
    )


def _federation_presets() -> list[CampaignSpec]:
    tiny = WorkloadSpec(family="tpch", num_jobs=6, mean_interarrival=10.0,
                        tpch_scales=(2,))
    sweep_workload = WorkloadSpec(
        family="tpch", num_jobs=24, mean_interarrival=20.0, tpch_scales=(2, 10)
    )
    return [
        CampaignSpec(
            "geo-smoke",
            FederationConfig(
                regions=(
                    RegionConfig(name="de", grid="DE", scheduler="fifo",
                                 num_executors=4),
                    RegionConfig(name="on", grid="ON", scheduler="fifo",
                                 num_executors=4),
                ),
                workload=tiny,
            ),
            axes={"routing": ("round-robin", "carbon-forecast")},
            baseline="round-robin",
            description="2-trial federation sanity campaign (tests, CI)",
        ),
        CampaignSpec(
            "geo-sweep",
            FederationConfig.six_grid(
                scheduler="pcaps", num_executors=10, workload=sweep_workload
            ),
            axes={
                "routing": (
                    "round-robin",
                    "queue-aware",
                    "carbon-greedy",
                    "carbon-forecast",
                ),
                "seed": (0, 1, 2),
            },
            baseline="round-robin",
            description="six-grid federation: 4 routing policies × 3 seeds",
        ),
        CampaignSpec(
            "disrupt-sweep",
            FederationConfig(
                regions=(
                    RegionConfig(name="de", grid="DE", scheduler="pcaps",
                                 num_executors=8),
                    RegionConfig(name="on", grid="ON", scheduler="pcaps",
                                 num_executors=8),
                    RegionConfig(name="caiso", grid="CAISO", scheduler="pcaps",
                                 num_executors=8),
                ),
                workload=WorkloadSpec(
                    family="tpch", num_jobs=18, mean_interarrival=15.0,
                    tpch_scales=(2,),
                ),
                disruptions=DisruptionSchedule.generate(
                    seed=7,
                    regions=("de", "on", "caiso"),
                    horizon_s=900.0,
                    num_outages=2,
                    mean_outage_s=600.0,
                    num_curtailments=1,
                    num_blackouts=1,
                ),
            ),
            axes={
                "routing": (
                    "round-robin",
                    "queue-aware",
                    "carbon-forecast",
                ),
                "failover": (True, False),
                "seed": (0, 1),
            },
            baseline="round-robin",
            description="outage/curtailment/blackout resilience: "
            "failover on vs off, per routing policy",
        ),
        CampaignSpec(
            "geo-schedulers",
            FederationConfig.six_grid(num_executors=10, workload=sweep_workload),
            axes={
                "routing": ("round-robin", "carbon-forecast"),
                "regions.scheduler": ("fifo", "decima", "pcaps"),
            },
            baseline="round-robin",
            description="does intra-cluster carbon-awareness still pay "
            "under spatial routing?",
        ),
    ]


def _stream_presets() -> list[CampaignSpec]:
    smoke_base = ServiceConfig(
        experiment=ExperimentConfig(scheduler="fifo", num_executors=6),
        stream=StreamSpec(
            mean_interarrival=20.0, tpch_scales=(2,), max_jobs=40
        ),
        epoch_events=512,
    )
    steady_base = ServiceConfig(
        experiment=ExperimentConfig(scheduler="pcaps", num_executors=16),
        stream=StreamSpec(
            mean_interarrival=20.0, tpch_scales=(2,), max_jobs=2000
        ),
        window_s=3600.0,
        epoch_events=8192,
    )
    return [
        CampaignSpec(
            "stream-smoke",
            smoke_base,
            axes={"experiment.scheduler": ("fifo", "pcaps")},
            baseline="fifo",
            description="2-trial streaming sanity campaign (tests, CI)",
        ),
        CampaignSpec(
            "stream-steady",
            steady_base,
            axes={
                "experiment.scheduler": ("fifo", "decima", "pcaps"),
                "stream.seed": (0, 1),
            },
            baseline="fifo",
            description="steady-state service runs: 3 schedulers × 2 "
            "arrival seeds, 2000 jobs each in O(1) memory",
        ),
    ]
