"""Rack-scale topology: racks, fleets, and heat recirculation.

The paper controls one server in an isolated 24 °C room and proposes
extending the approach to real data-center conditions.  This module
supplies the missing physical context:

* a :class:`Rack` is an ordered column of servers behind one CRAC
  supply (constant set point or any :class:`AmbientModel`),
* a :class:`Fleet` composes racks and carries a **heat-recirculation
  matrix** ``K`` whose entry ``K[i, j]`` is the fraction of server
  *j*'s exhaust temperature rise that re-enters server *i*'s inlet —
  the coupling that makes data-center inlets warmer than the CRAC
  supply (hot-aisle bypass, top-of-rack recirculation),
* :class:`RecirculationAmbient` wraps a CRAC supply model with a
  mutable recirculation offset, so an unmodified
  :class:`~repro.server.server.ServerSimulator` sees a coupled inlet
  through its ordinary ambient interface.

With ``K = 0`` and a constant supply, every server sees exactly the
paper's isolated-room conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.server.ambient import AmbientModel, ConstantAmbient
from repro.server.specs import ServerSpec, default_server_spec
from repro.units import airflow_heat_capacity_w_per_k, validate_temperature_c


class RecirculationAmbient(AmbientModel):
    """A CRAC supply model plus a mutable recirculation offset.

    The caller recomputes the offset every tick from the coupled
    servers' exhaust heat; with the offset at zero this is exactly the
    wrapped supply model (an isolated server).
    """

    def __init__(self, supply: AmbientModel):
        self.supply = supply
        self._offset_c = 0.0

    @property
    def offset_c(self) -> float:
        """Current recirculation-induced inlet temperature rise, °C."""
        return self._offset_c

    def set_offset(self, offset_c: float) -> None:
        """Install the recirculation rise for the next simulation step."""
        if not np.isfinite(offset_c) or offset_c < 0.0:
            raise ValueError(
                f"recirculation offset must be finite and non-negative, "
                f"got {offset_c!r}"
            )
        self._offset_c = float(offset_c)

    def temperature_c(self, time_s: float) -> float:
        return self.supply.temperature_c(time_s) + self._offset_c


def exhaust_temperature_rise_c(power_w, airflow_cfm):
    """Temperature rise of the air stream crossing a server, °C.

    ``ΔT = P / (m_dot · c_p)`` — array-friendly so the engine can
    evaluate the whole fleet at once.
    """
    airflow = np.asarray(airflow_cfm, dtype=float)
    if np.any(airflow <= 0.0):
        raise ValueError("airflow must be positive to carry exhaust heat")
    result = np.asarray(power_w, dtype=float) / airflow_heat_capacity_w_per_k(
        airflow
    )
    if np.ndim(power_w) == 0 and np.ndim(airflow_cfm) == 0:
        return float(result)
    return result


@dataclass(frozen=True)
class Rack:
    """One rack: an ordered column of servers behind one CRAC feed."""

    name: str
    servers: Tuple[ServerSpec, ...]
    #: CRAC supply set point used when no explicit model is given.
    crac_supply_c: float = 24.0
    #: Optional time-varying CRAC supply (overrides ``crac_supply_c``).
    crac: Optional[AmbientModel] = None

    def __post_init__(self) -> None:
        if not self.servers:
            raise ValueError(f"rack {self.name!r} needs at least one server")
        validate_temperature_c(self.crac_supply_c, "crac_supply_c")

    @property
    def server_count(self) -> int:
        """Number of servers in the rack."""
        return len(self.servers)

    def supply_model(self) -> AmbientModel:
        """The CRAC supply as an :class:`AmbientModel`."""
        if self.crac is not None:
            return self.crac
        return ConstantAmbient(self.crac_supply_c)


@dataclass(frozen=True)
class Fleet:
    """Racks plus the inter-server heat-recirculation coupling.

    Servers are indexed rack-major: rack 0's servers first (in rack
    order), then rack 1's, and so on.  ``recirculation[i, j]`` is the
    fraction of server *j*'s exhaust temperature rise arriving at
    server *i*'s inlet; ``None`` means no coupling (isolated rooms).
    """

    racks: Tuple[Rack, ...]
    #: compare=False: dataclass ``==``/``hash`` over an ndarray would
    #: raise; identity of a fleet is its racks.
    recirculation: Optional[np.ndarray] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.racks:
            raise ValueError("fleet needs at least one rack")
        if self.recirculation is not None:
            matrix = np.asarray(self.recirculation, dtype=float)
            n = self.server_count
            if matrix.shape != (n, n):
                raise ValueError(
                    f"recirculation matrix must be {n}x{n} for this fleet, "
                    f"got {matrix.shape}"
                )
            if np.any(~np.isfinite(matrix)) or np.any(matrix < 0.0):
                raise ValueError(
                    "recirculation entries must be finite and non-negative"
                )
            if np.any(np.diag(matrix) != 0.0):
                raise ValueError(
                    "recirculation diagonal must be zero (a server does "
                    "not re-ingest its own exhaust in this model)"
                )
            if np.any(matrix.sum(axis=1) >= 1.0):
                raise ValueError(
                    "recirculation row sums must stay below 1 "
                    "(inlets cannot receive more than the total exhaust)"
                )
            object.__setattr__(self, "recirculation", matrix)

    @property
    def server_count(self) -> int:
        """Total number of servers across all racks."""
        return sum(rack.server_count for rack in self.racks)

    @property
    def rack_count(self) -> int:
        """Number of racks."""
        return len(self.racks)

    @property
    def servers(self) -> Tuple[ServerSpec, ...]:
        """All server specs in flat (rack-major) index order."""
        return tuple(spec for rack in self.racks for spec in rack.servers)

    @property
    def rack_index_of_server(self) -> Tuple[int, ...]:
        """Owning rack index for each flat server index."""
        return tuple(
            r for r, rack in enumerate(self.racks)
            for _ in range(rack.server_count)
        )

    def rack_slices(self) -> List[slice]:
        """Flat-index slice covering each rack's servers."""
        slices: List[slice] = []
        start = 0
        for rack in self.racks:
            slices.append(slice(start, start + rack.server_count))
            start += rack.server_count
        return slices

    def recirculation_matrix(self) -> np.ndarray:
        """The coupling matrix (zeros when the fleet is uncoupled)."""
        if self.recirculation is None:
            n = self.server_count
            return np.zeros((n, n))
        return self.recirculation

    def supply_models(self) -> List[AmbientModel]:
        """One CRAC supply model per server, flat index order."""
        return [
            rack.supply_model()
            for rack in self.racks
            for _ in range(rack.server_count)
        ]

    def supply_temperatures_c(self, time_s: float) -> np.ndarray:
        """Per-server CRAC supply temperature at *time_s*."""
        return np.array(
            [
                rack.supply_model().temperature_c(time_s)
                for rack in self.racks
                for _ in range(rack.server_count)
            ]
        )

    def inlet_temperatures_c(
        self, time_s: float, exhaust_rise_c: Sequence[float]
    ) -> np.ndarray:
        """Per-server inlet: CRAC supply plus recirculated exhaust."""
        rise = np.asarray(exhaust_rise_c, dtype=float)
        if rise.shape != (self.server_count,):
            raise ValueError(
                f"need one exhaust rise per server ({self.server_count}), "
                f"got shape {rise.shape}"
            )
        return self.supply_temperatures_c(time_s) + (
            self.recirculation_matrix() @ rise
        )


def build_recirculation_matrix(
    rack_sizes: Sequence[int],
    intra_rack_coupling: float = 0.05,
    cross_rack_coupling: float = 0.004,
    neighbor_reach: int = 2,
) -> np.ndarray:
    """Distance-decayed coupling within racks, uniform across racks.

    Within a rack, server *i* receives ``intra_rack_coupling / d`` of
    each neighbor at chassis distance ``d <= neighbor_reach`` (vertical
    recirculation over the rack face); every server in *another* rack
    contributes the smaller ``cross_rack_coupling`` (room-level mixing).
    """
    if not rack_sizes or any(s <= 0 for s in rack_sizes):
        raise ValueError("rack_sizes must be positive")
    if intra_rack_coupling < 0.0 or cross_rack_coupling < 0.0:
        raise ValueError("couplings must be non-negative")
    if neighbor_reach < 0:
        raise ValueError("neighbor_reach must be non-negative")
    n = sum(rack_sizes)
    rack_of = np.repeat(np.arange(len(rack_sizes)), rack_sizes)
    pos = np.concatenate([np.arange(size) for size in rack_sizes])
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if rack_of[i] == rack_of[j]:
                distance = abs(int(pos[i]) - int(pos[j]))
                if 1 <= distance <= neighbor_reach:
                    matrix[i, j] = intra_rack_coupling / distance
            else:
                matrix[i, j] = cross_rack_coupling
    row_sums = matrix.sum(axis=1)
    if np.any(row_sums >= 1.0):
        raise ValueError(
            f"couplings too strong: max row sum {row_sums.max():.3f} >= 1"
        )
    return matrix


def build_uniform_fleet(
    rack_count: int = 2,
    servers_per_rack: int = 4,
    spec: Optional[ServerSpec] = None,
    crac_supply_c: float = 24.0,
    intra_rack_coupling: float = 0.05,
    cross_rack_coupling: float = 0.004,
) -> Fleet:
    """A homogeneous fleet with the default recirculation pattern."""
    if rack_count <= 0 or servers_per_rack <= 0:
        raise ValueError("rack_count and servers_per_rack must be positive")
    spec = spec if spec is not None else default_server_spec()
    racks = tuple(
        Rack(
            name=f"rack{r}",
            servers=tuple(spec for _ in range(servers_per_rack)),
            crac_supply_c=crac_supply_c,
        )
        for r in range(rack_count)
    )
    matrix = build_recirculation_matrix(
        [servers_per_rack] * rack_count,
        intra_rack_coupling=intra_rack_coupling,
        cross_rack_coupling=cross_rack_coupling,
    )
    return Fleet(racks=racks, recirculation=matrix)
