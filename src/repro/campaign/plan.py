"""Campaign planner: expand a spec's scenario grid into points.

:func:`plan_campaign` turns a :class:`~repro.campaign.spec.CampaignSpec`
into an ordered list of :class:`CampaignPoint`\\ s — the cross-product of
every scenario's axes, validated eagerly (unknown figure ids, bad fleet
fields and unknown sweep names fail at plan time, before anything runs).

Point order is deterministic: scenarios expand in spec order; within a
scenario the primary axis (figure id / sweep value) varies slowest and
grid axes expand in sorted-name order with values in spec order.  Each
point carries a stable content-derived ``key`` (SHA-256 over its kind
and canonical params) used for progress checkpoints and dedup — the same
scenario written twice plans to points with equal keys, which the
scheduler computes once.
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.campaign.spec import CampaignSpec, Scenario
from repro.errors import ExperimentError, ReproError

#: Registered sensitivity sweeps: CLI/spec name -> ``repro.analysis``
#: function name (looked up with ``getattr`` at run time so tests can
#: monkeypatch the analysis module).
SWEEPS = {
    "l2": "sweep_l2_coefficient",
    "service": "sweep_service_load",
    "catchup": "sweep_catchup_cost",
    "checkpoint": "sweep_checkpoint_interval",
}


class CampaignPointError(ExperimentError):
    """A scenario expanded into an invalid point."""


def sweep_default_values(fn) -> Optional[List[float]]:
    """The sweep's default x values, if it supports per-point calls."""
    try:
        parameter = inspect.signature(fn).parameters["values"]
    except (KeyError, TypeError, ValueError):
        return None
    default = parameter.default
    if default is inspect.Parameter.empty:
        return None
    return list(default)


def _point_key(kind: str, params: Dict[str, Any]) -> str:
    canonical = json.dumps({"kind": kind, "params": params},
                           sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class CampaignPoint:
    """One schedulable unit of a campaign.

    ``kind`` is ``figure`` / ``fleet`` / ``sweep``; ``params`` is the
    canonical frozen parameter set (figure kwargs incl. ``figure``,
    fleet config fields, or ``{"sweep": name, "value": x}``); ``key`` is
    the stable content hash; ``label`` is the human-readable form shown
    by ``repro campaign plan`` and in manifests.
    """

    kind: str
    params: Tuple[Tuple[str, Any], ...]
    key: str
    label: str

    @property
    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)


def _make_point(kind: str, params: Dict[str, Any], label: str
                ) -> CampaignPoint:
    return CampaignPoint(
        kind=kind,
        params=tuple(sorted(params.items())),
        key=_point_key(kind, params),
        label=label,
    )


def _label(prefix: str, varying: Dict[str, Any]) -> str:
    if not varying:
        return prefix
    settings = " ".join(f"{name}={varying[name]!r}"
                        for name in sorted(varying))
    return f"{prefix} [{settings}]"


def _grid_combos(scenario: Scenario):
    """Yield ``(varying, merged)`` dicts for every grid combination.

    Axes iterate in sorted-name order (spec-table order is an accident
    of serialisation; sorted order keeps point keys stable), values in
    spec order.  Memory axes (``vms_per_host``/``overcommit_ratio``;
    validated by the spec) cross with grid axes exactly like grid axes —
    they reach figure factories as keyword arguments and fleet points as
    :class:`~repro.fleet.FleetConfig` fields.
    """
    axes = sorted({**scenario.grid_dict, **scenario.memory_dict}.items())
    names = [name for name, _ in axes]
    for combo in itertools.product(*(values for _, values in axes)):
        varying = dict(zip(names, combo))
        merged = dict(scenario.params_dict)
        merged.update(varying)
        yield varying, merged


def _fault_tokens(scenario: Scenario) -> List[Optional[str]]:
    """Canonical tokens of the scenario's ``faults`` axis.

    ``None`` stands for the fault-free baseline (no axis, or an empty
    string entry).  Non-empty entries parse through
    :func:`repro.faults.parse_fault_spec` *now* — unknown sites and bad
    probabilities fail at plan time — and canonicalise, so two
    spellings of one plan dedup to the same point key.
    """
    from repro.faults import parse_fault_spec

    if not scenario.faults:
        return [None]
    tokens: List[Optional[str]] = []
    for raw in scenario.faults:
        if not raw.strip():
            tokens.append(None)
            continue
        try:
            tokens.append(parse_fault_spec(raw).canonical_spec())
        except ReproError as exc:
            raise CampaignPointError(
                f"campaign plan: bad 'faults' entry {raw!r}: {exc}"
            ) from exc
    return tokens


def _plan_figure(scenario: Scenario) -> List[CampaignPoint]:
    from repro.core.figdata import FIGURE_IDS

    points = []
    for fig_id in scenario.figures:
        if fig_id not in FIGURE_IDS:
            raise CampaignPointError(
                f"campaign plan: unknown figure {fig_id!r}; "
                f"try `repro list`")
        for token in _fault_tokens(scenario):
            for varying, merged in _grid_combos(scenario):
                if "figure" in merged:
                    raise CampaignPointError(
                        "campaign plan: 'figure' is set by the 'figures' "
                        "axis; do not repeat it in grid/params")
                if "faults" in merged:
                    raise CampaignPointError(
                        "campaign plan: 'faults' is its own axis; do not "
                        "repeat it in grid/params")
                params = {"figure": fig_id, **merged}
                label_vary = dict(varying)
                if token is not None:
                    params["faults"] = token
                    label_vary["faults"] = token
                points.append(_make_point(
                    "figure", params,
                    _label(f"figure {fig_id}", label_vary)))
    return points


def _plan_fleet(scenario: Scenario) -> List[CampaignPoint]:
    from repro.fleet import FleetConfig

    points = []
    for token in _fault_tokens(scenario):
        for varying, merged in _grid_combos(scenario):
            if "faults" in merged:
                raise CampaignPointError(
                    "campaign plan: 'faults' is its own axis; do not "
                    "repeat it in grid/params")
            try:
                config = FleetConfig(**merged)
            except TypeError as exc:
                raise CampaignPointError(
                    f"campaign plan: bad fleet field: {exc}") from exc
            except ExperimentError as exc:
                raise CampaignPointError(
                    f"campaign plan: invalid fleet point "
                    f"{_label('fleet', varying)}: {exc}") from exc
            # Canonical params come from the validated config (aliases
            # such as hypervisor="vmware" normalise), so equivalent
            # spellings dedup to the same point key.
            params = config.to_dict()
            label_vary = dict(varying)
            if token is not None:
                params["faults"] = token
                label_vary["faults"] = token
            points.append(_make_point(
                "fleet", params, _label("fleet", label_vary)))
    return points


def _plan_sweep(scenario: Scenario) -> List[CampaignPoint]:
    import repro.analysis as analysis

    name = scenario.sweep
    if name not in SWEEPS:
        raise CampaignPointError(
            f"campaign plan: unknown sweep {name!r}; "
            f"available: {sorted(SWEEPS)}")
    values = scenario.values
    if values is None:
        fn = getattr(analysis, SWEEPS[name])
        defaults = sweep_default_values(fn)
        if defaults is None:
            # No per-point support: one whole-sweep point (value=None).
            return [_make_point("sweep", {"sweep": name, "value": None},
                                f"sweep {name} (all points)")]
        values = tuple(defaults)
    return [
        _make_point("sweep", {"sweep": name, "value": value},
                    _label(f"sweep {name}", {"value": value}))
        for value in values
    ]


_PLANNERS = {
    "figure": _plan_figure,
    "fleet": _plan_fleet,
    "sweep": _plan_sweep,
}


def plan_campaign(spec: CampaignSpec) -> List[CampaignPoint]:
    """Expand every scenario into its ordered, validated point list.

    Duplicate keys are preserved (the scheduler dedups them at run
    time and reports them in the manifest).
    """
    points: List[CampaignPoint] = []
    for scenario in spec.scenarios:
        points.extend(_PLANNERS[scenario.kind](scenario))
    return points
