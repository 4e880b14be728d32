"""Matrix expansion: from a scenario spec to concrete, runnable cells.

Expansion is **order-independent**: axes and values are sorted by name
before the cross product, so reordering a spec's axes (or the values
within an axis) yields the same cell ids and fingerprints.  Cell ids
spell out the full assignment (``allowlist=corrupted,vantage=eu``) and
double as archive directory names; fingerprints digest the cell's
*resolved configuration* plus its identity, so two distinct cells can
never collide even when their parameter bundles coincide.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product

from repro.scenarios.spec import ScenarioSpec, ScenarioSpecError
from repro.util.text import stable_digest
from repro.util.timeline import timestamp_from_date
from repro.web.config import WorldConfig
from repro.web.vantage import vantage_by_name


@dataclass(frozen=True)
class CellConfig:
    """One cell's fully resolved parameters (picklable, canonical)."""

    world: tuple[tuple[str, object], ...] = ()
    vantage: str = "eu"
    allowlist: str = "corrupted"
    snapshot: str | None = None
    cmp_leak_scale: float | None = None
    script_origin: str = "embedder"
    limit: int | None = None

    def world_dict(self) -> dict:
        return {key: value for key, value in self.world}

    @property
    def corrupt_allowlist(self) -> bool:
        return self.allowlist == "corrupted"

    @property
    def snapshot_at(self) -> int | None:
        if self.snapshot is None:
            return None
        year, month, day = (int(part) for part in self.snapshot.split("-"))
        return timestamp_from_date(year, month, day)

    def to_dict(self) -> dict:
        return {
            "world": self.world_dict(),
            "vantage": self.vantage,
            "allowlist": self.allowlist,
            "snapshot": self.snapshot,
            "cmp_leak_scale": self.cmp_leak_scale,
            "script_origin": self.script_origin,
            "limit": self.limit,
        }

    def world_config(self) -> WorldConfig:
        """Materialise the cell's :class:`WorldConfig`.

        ``sites`` scales through :meth:`WorldConfig.small`, so the
        long-tail pool scales proportionally, exactly like the CLI's
        ``--sites``.
        """
        overrides = self.world_dict()
        sites = int(overrides.pop("sites", 50_000))
        seed = int(overrides.pop("seed", 1))
        config = WorldConfig.small(sites, seed=seed)
        for key, value in sorted(overrides.items()):
            setattr(config, key, value)
        config.vantage = vantage_by_name(self.vantage)
        return config


@dataclass(frozen=True)
class Cell:
    """One point of the expanded matrix."""

    assignment: tuple[tuple[str, str], ...]  # sorted (axis, value) pairs
    config: CellConfig
    cell_id: str
    fingerprint: str

    def value_of(self, axis: str) -> str | None:
        for name, value in self.assignment:
            if name == axis:
                return value
        return None

    def matches(self, constraint: tuple[tuple[str, str], ...]) -> bool:
        return all(self.value_of(axis) == value for axis, value in constraint)


def cell_id_of(assignment: tuple[tuple[str, str], ...]) -> str:
    return ",".join(f"{axis}={value}" for axis, value in sorted(assignment))


def cell_fingerprint(
    spec_name: str, cell_id: str, config: CellConfig
) -> str:
    """Digest of the cell's identity plus its resolved configuration.

    Including the id makes distinct cells collision-free even when two
    axis values carry byte-identical parameter bundles; including the
    config makes any parameter drift visible across sweep runs.
    """
    return "{:016x}".format(
        stable_digest(
            "scenario-cell",
            spec_name,
            cell_id,
            json.dumps(config.to_dict(), sort_keys=True),
        )
    )


def _merge_params(
    spec: ScenarioSpec, assignment: tuple[tuple[str, str], ...]
) -> CellConfig:
    """Base params overlaid by each axis value's params, conflict-checked."""
    world: dict = dict(spec.world)
    scalars: dict = {
        key: value for key, value in spec.campaign if key != "world"
    }
    campaign_world = spec.campaign_dict().get("world", {})
    world.update(campaign_world)
    owner: dict[str, str] = {}
    for axis_name, value_name in assignment:
        params = spec.axis(axis_name).value(value_name).params_dict()
        for key, value in params.items():
            if key == "world":
                for world_key, world_value in value.items():
                    claim = f"world.{world_key}"
                    if owner.get(claim, axis_name) != axis_name:
                        raise ScenarioSpecError(
                            f"scenario {spec.name!r}: axes "
                            f"{owner[claim]!r} and {axis_name!r} both set "
                            f"{claim}"
                        )
                    owner[claim] = axis_name
                    world[world_key] = world_value
                continue
            if owner.get(key, axis_name) != axis_name:
                raise ScenarioSpecError(
                    f"scenario {spec.name!r}: axes {owner[key]!r} and "
                    f"{axis_name!r} both set {key!r}"
                )
            owner[key] = axis_name
            scalars[key] = value
    return CellConfig(
        world=tuple(sorted(world.items())),
        vantage=scalars.get("vantage", "eu"),
        allowlist=scalars.get("allowlist", "corrupted"),
        snapshot=scalars.get("snapshot"),
        cmp_leak_scale=scalars.get("cmp_leak_scale"),
        script_origin=scalars.get("script_origin", "embedder"),
        limit=scalars.get("limit"),
    )


def expand(spec: ScenarioSpec) -> list[Cell]:
    """The spec's full cell list, sorted by cell id.

    ``include``/``exclude`` constraints filter the cross product: when
    any ``include`` is declared a cell must match at least one of them,
    and a cell matching any ``exclude`` is dropped.
    """
    axes = sorted(spec.axes, key=lambda axis: axis.name)
    if axes:
        combos = product(
            *[
                [(axis.name, value) for value in sorted(axis.value_names)]
                for axis in axes
            ]
        )
        assignments = [tuple(combo) for combo in combos]
    else:
        assignments = [()]

    cells = []
    for assignment in assignments:
        config = _merge_params(spec, assignment)
        cell_id = cell_id_of(assignment)
        cells.append(
            Cell(
                assignment=assignment,
                config=config,
                cell_id=cell_id,
                fingerprint=cell_fingerprint(spec.name, cell_id, config),
            )
        )

    if spec.include:
        cells = [
            cell
            for cell in cells
            if any(cell.matches(constraint) for constraint in spec.include)
        ]
    cells = [
        cell
        for cell in cells
        if not any(cell.matches(constraint) for constraint in spec.exclude)
    ]
    if not cells:
        raise ScenarioSpecError(
            f"scenario {spec.name!r}: include/exclude constraints leave no cells"
        )
    return sorted(cells, key=lambda cell: cell.cell_id)


def baseline_cell(spec: ScenarioSpec, cells: list[Cell]) -> Cell:
    """Resolve the declared baseline to exactly one expanded cell.

    Axes with a single value default implicitly; every multi-valued axis
    must be pinned by the spec's ``[baseline]`` table.
    """
    declared = dict(spec.baseline)
    assignment = []
    for axis in spec.axes:
        if axis.name in declared:
            assignment.append((axis.name, declared[axis.name]))
        elif len(axis.values) == 1:
            assignment.append((axis.name, axis.values[0].name))
        else:
            raise ScenarioSpecError(
                f"scenario {spec.name!r}: [baseline] must pin axis "
                f"{axis.name!r} (values: {', '.join(axis.value_names)})"
            )
    wanted = cell_id_of(tuple(assignment))
    for cell in cells:
        if cell.cell_id == wanted:
            return cell
    raise ScenarioSpecError(
        f"scenario {spec.name!r}: baseline cell {wanted!r} is not in the "
        "expanded matrix (filtered by include/exclude?)"
    )


def render_cell_table(cells: list[Cell], baseline_id: str | None = None) -> str:
    """The ``repro sweep --list`` table: id, axis values, fingerprint."""
    axis_names = sorted({axis for cell in cells for axis, _ in cell.assignment})
    headers = ["#", *axis_names, "fingerprint", "cell id"]
    rows = []
    for index, cell in enumerate(cells):
        marker = " *baseline" if cell.cell_id == baseline_id else ""
        rows.append(
            [
                str(index),
                *[cell.value_of(axis) or "-" for axis in axis_names],
                cell.fingerprint,
                cell.cell_id + marker,
            ]
        )
    widths = [
        max(len(headers[col]), *(len(row[col]) for row in rows))
        for col in range(len(headers))
    ]
    lines = [
        "  ".join(header.ljust(width) for header, width in zip(headers, widths)),
        "  ".join("-" * width for width in widths),
    ]
    for row in rows:
        lines.append(
            "  ".join(value.ljust(width) for value, width in zip(row, widths))
        )
    return "\n".join(lines)
