"""Tenant mixes: specs, disjoint address windows, and the interleaver.

A :class:`TenantMix` names 1--4 workloads (with per-tenant seed and
footprint overrides) to merge into one trace.  The merge gives every
tenant a **disjoint base-address window** — a power-of-two span of pages
large enough for the largest tenant, so window membership is a single
shift/compare — rebases each tenant's objects into its window, and
interleaves the per-tenant record streams phase by phase with the same
stable ``np.lexsort`` burst round-robin the
:class:`~repro.workloads.base.TraceBuilder` uses for GPUs.  Phase
boundaries stay aligned: merged phase *k* carries every tenant's phase
*k* records, and the barrier at its end synchronizes all tenants.

The simulator does no per-tenant accounting: a merged trace replays as
one application, and :attr:`~repro.workloads.base.Trace.tenants` only
records where each tenant's window lies.  A single-tenant mix runs
through the identical merge machinery with a zero shift, keeps the solo
object/phase/trace names, and attaches **no** tenant metadata, so it is
the solo trace and its run is bit-identical to the solo run.

Mix names are strings like ``"mm+bfs"``; each tenant token accepts
optional suffixes ``@<footprint_mb>`` and ``#<seed>``
(e.g. ``"mm@16#3+bfs@16"``).  :func:`get_mix_workload` memoizes built
mixes by their canonical label plus build parameters, mirroring the
application registry cache.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.memory.address_space import ADDR_BITS, Allocation
from repro.workloads.base import DEFAULT_BURST, ObjectDef, PhaseTrace, Trace

#: Inclusive bounds on the number of tenants in one mix.
MIN_TENANTS = 1
MAX_TENANTS = 4

_TOKEN_RE = re.compile(
    r"^(?P<app>[A-Za-z][A-Za-z0-9_]*)"
    r"(?:@(?P<mb>[0-9]+(?:\.[0-9]+)?))?"
    r"(?:#(?P<seed>[0-9]+))?$"
)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant in a mix: a registry application plus overrides.

    ``seed=None`` derives the tenant seed from the mix seed and the
    tenant's index (``mix_seed + index``), so distinct tenants of the
    same application never replay identical streams by accident.
    ``footprint_mb=None`` falls back to the mix-level footprint (or the
    application's Table II default).
    """

    name: str
    app: str
    seed: int | None = None
    footprint_mb: float | None = None

    def token(self) -> str:
        """Canonical mix-string token for this spec."""
        part = self.app
        if self.footprint_mb is not None:
            part += f"@{self.footprint_mb:g}"
        if self.seed is not None:
            part += f"#{self.seed}"
        return part


@dataclass(frozen=True)
class TenantInfo:
    """Resolved per-tenant metadata attached to a merged trace."""

    name: str
    app: str
    index: int
    seed: int
    footprint_mb: float | None
    first_page: int
    n_pages: int

    @property
    def last_page(self) -> int:
        """Inclusive index of the tenant window's final occupied page."""
        return self.first_page + self.n_pages - 1


@dataclass(frozen=True)
class TenantMix:
    """A named set of tenants to co-schedule (1--4, unique names)."""

    tenants: tuple[TenantSpec, ...]
    burst: int = DEFAULT_BURST

    def __post_init__(self) -> None:
        n = len(self.tenants)
        if not MIN_TENANTS <= n <= MAX_TENANTS:
            raise ValueError(
                f"a mix needs {MIN_TENANTS}..{MAX_TENANTS} tenants, got {n}"
            )
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in mix: {names}")
        for name in names:
            if "." in name or "+" in name:
                raise ValueError(
                    f"tenant name {name!r} may not contain '.' or '+'"
                )
        if self.burst < 1:
            raise ValueError("burst must be >= 1")

    @property
    def label(self) -> str:
        """Canonical mix string (round-trips through :func:`parse_mix`)."""
        return "+".join(t.token() for t in self.tenants)


def parse_mix(text: str) -> TenantMix:
    """Parse a mix string like ``"mm+bfs"`` or ``"mm@16#3+bfs@16"``.

    Duplicate applications get deterministic distinct tenant names:
    the first occurrence keeps the bare application name, the *k*-th
    is suffixed (``mm``, ``mm2``, ``mm3`` ...).
    """
    tokens = [t.strip() for t in text.split("+")]
    if any(not t for t in tokens):
        raise ValueError(f"malformed mix string {text!r}")
    specs: list[TenantSpec] = []
    seen: dict[str, int] = {}
    for token in tokens:
        match = _TOKEN_RE.match(token)
        if match is None:
            raise ValueError(
                f"malformed tenant token {token!r} in mix {text!r} "
                "(expected app[@footprint_mb][#seed])"
            )
        app = match.group("app").lower()
        count = seen.get(app, 0) + 1
        seen[app] = count
        name = app if count == 1 else f"{app}{count}"
        specs.append(
            TenantSpec(
                name=name,
                app=app,
                seed=(
                    int(match.group("seed"))
                    if match.group("seed") is not None
                    else None
                ),
                footprint_mb=(
                    float(match.group("mb"))
                    if match.group("mb") is not None
                    else None
                ),
            )
        )
    return TenantMix(tenants=tuple(specs))


def _window_pages(traces: list[Trace]) -> int:
    """Power-of-two page window wide enough for the largest tenant."""
    widest = max(t.n_pages for t in traces)
    return 1 << (widest - 1).bit_length() if widest > 1 else 1


def _rebased_objects(
    trace: Trace, tenant_name: str, shift_pages: int, next_obj_id: int,
    prefix: bool,
) -> list[ObjectDef]:
    page_size = trace.page_size
    shift_bytes = shift_pages * page_size
    objects = []
    for obj in trace.objects:
        objects.append(
            ObjectDef(
                name=f"{tenant_name}.{obj.name}" if prefix else obj.name,
                size_bytes=obj.size_bytes,
                obj_id=next_obj_id + len(objects),
                allocation=Allocation(
                    base=obj.allocation.base + shift_bytes,
                    size=obj.allocation.size,
                    page_size=page_size,
                ),
                alloc_phase=obj.alloc_phase,
                free_phase=obj.free_phase,
            )
        )
    return objects


def merge_traces(
    traces: list[Trace],
    names: list[str],
    *,
    burst: int = DEFAULT_BURST,
    name: str | None = None,
    infos: list[dict] | None = None,
) -> Trace:
    """Merge per-tenant traces into one multi-tenant :class:`Trace`.

    All inputs must share GPU count, page size, and base page.  Tenant
    *i*'s pages are shifted by ``i * W`` where ``W`` is the power-of-two
    window from :func:`_window_pages`; merged phase *k* interleaves every
    tenant's phase-*k* records in tenant round-robin bursts of ``burst``
    records (the same stable-lexsort idiom ``TraceBuilder.end_phase``
    uses across GPUs), preserving each tenant's internal order.

    With a single input the merge is the identity: zero shift, original
    names, no tenant metadata — byte-for-byte the solo trace.
    """
    if not traces:
        raise ValueError("nothing to merge")
    if len(traces) != len(names):
        raise ValueError("one name per trace required")
    if len(traces) > MAX_TENANTS:
        raise ValueError(f"at most {MAX_TENANTS} tenants, got {len(traces)}")
    first = traces[0]
    for t in traces[1:]:
        if t.n_gpus != first.n_gpus:
            raise ValueError("tenant traces disagree on GPU count")
        if t.page_size != first.page_size:
            raise ValueError("tenant traces disagree on page size")
        if t.first_page != first.first_page:
            raise ValueError("tenant traces disagree on base page")
    multi = len(traces) > 1
    window = _window_pages(traces) if multi else 0
    base = first.first_page
    shifts = [i * window for i in range(len(traces))]
    total_pages = shifts[-1] + traces[-1].n_pages
    if (base + total_pages) * first.page_size >= (1 << ADDR_BITS):
        raise MemoryError(
            "tenant windows exhaust the 48-bit virtual address range"
        )

    objects: list[ObjectDef] = []
    for i, (trace, tenant_name) in enumerate(zip(traces, names)):
        objects.extend(
            _rebased_objects(
                trace, tenant_name, shifts[i], len(objects), prefix=multi
            )
        )

    n_phases = max(len(t.phases) for t in traces)
    phases: list[PhaseTrace] = []
    for k in range(n_phases):
        parts = [
            (i, t.phases[k])
            for i, t in enumerate(traces)
            if k < len(t.phases)
        ]
        live = [(i, p) for i, p in parts if len(p)]
        if live:
            tenant_parts = [
                np.full(len(p), i, dtype=np.uint8) for i, p in live
            ]
            burst_parts = [
                np.arange(len(p), dtype=np.int64) // burst for _, p in live
            ]
            tenant_all = np.concatenate(tenant_parts)
            order = np.lexsort((tenant_all, np.concatenate(burst_parts)))
            gpu = np.concatenate([p.gpu for _, p in live])[order]
            page = np.concatenate(
                [p.page + shifts[i] for i, p in live]
            )[order]
            write = np.concatenate([p.write for _, p in live])[order]
            weight = np.concatenate([p.weight for _, p in live])[order]
            tenant = tenant_all[order] if multi else None
        else:
            gpu = np.array([], dtype=np.uint8)
            page = np.array([], dtype=np.int64)
            write = np.array([], dtype=np.uint8)
            weight = np.array([], dtype=np.int64)
            tenant = np.array([], dtype=np.uint8) if multi else None
        if multi:
            contributing = "+".join(names[i] for i, _ in parts)
            phase_name = f"p{k}:{contributing}"
            explicit = all(p.explicit for _, p in parts) if parts else True
        else:
            phase_name = parts[0][1].name
            explicit = parts[0][1].explicit
        phases.append(
            PhaseTrace(
                name=phase_name,
                explicit=explicit,
                gpu=gpu,
                page=page,
                write=write,
                weight=weight,
                tenant=tenant,
            )
        )

    tenants = None
    if multi:
        tenants = tuple(
            TenantInfo(
                name=names[i],
                app=(infos[i].get("app", traces[i].name) if infos
                     else traces[i].name),
                index=i,
                seed=(infos[i].get("seed", 0) if infos else 0),
                footprint_mb=(
                    infos[i].get("footprint_mb") if infos else None
                ),
                first_page=base + shifts[i],
                n_pages=traces[i].n_pages,
            )
            for i in range(len(traces))
        )
    return Trace(
        name=name if name is not None else (
            "+".join(names) if multi else first.name
        ),
        n_gpus=first.n_gpus,
        page_size=first.page_size,
        objects=objects,
        phases=phases,
        first_page=base,
        n_pages=total_pages,
        tenants=tenants,
    )


def build_mix_trace(
    mix: TenantMix,
    *,
    n_gpus: int = 4,
    page_size: int = 4096,
    footprint_mb: float | None = None,
    seed: int = 0,
) -> Trace:
    """Build every tenant's solo trace and merge them into one."""
    from repro.workloads.registry import get_workload

    traces: list[Trace] = []
    infos: list[dict] = []
    for index, spec in enumerate(mix.tenants):
        tenant_seed = spec.seed if spec.seed is not None else seed + index
        tenant_mb = (
            spec.footprint_mb if spec.footprint_mb is not None
            else footprint_mb
        )
        traces.append(
            get_workload(
                spec.app,
                n_gpus=n_gpus,
                page_size=page_size,
                footprint_mb=tenant_mb,
                seed=tenant_seed,
                burst=mix.burst,
            )
        )
        infos.append(
            {"app": spec.app, "seed": tenant_seed, "footprint_mb": tenant_mb}
        )
    merged_name = mix.label if len(mix.tenants) > 1 else None
    return merge_traces(
        traces,
        [t.name for t in mix.tenants],
        burst=mix.burst,
        name=merged_name,
        infos=infos,
    )


def single_tenant_trace(
    app: str,
    config=None,
    *,
    n_gpus: int | None = None,
    page_size: int | None = None,
    footprint_mb: float | None = None,
    seed: int = 0,
) -> Trace:
    """Degenerate one-tenant mix: must be bit-identical to the solo trace."""
    gpus = n_gpus if n_gpus is not None else (config.n_gpus if config else 4)
    psize = (
        page_size
        if page_size is not None
        else (config.page_size if config else 4096)
    )
    mix = TenantMix((TenantSpec(name=app.lower(), app=app.lower(), seed=seed),))
    return build_mix_trace(
        mix, n_gpus=gpus, page_size=psize, footprint_mb=footprint_mb,
    )


@lru_cache(maxsize=32)
def _cached_mix_build(
    label: str, n_gpus: int, page_size: int, footprint_mb: float | None,
    seed: int, burst: int,
) -> Trace:
    mix = parse_mix(label)
    if burst != DEFAULT_BURST:
        mix = TenantMix(tenants=mix.tenants, burst=burst)
    return build_mix_trace(
        mix,
        n_gpus=n_gpus,
        page_size=page_size,
        footprint_mb=footprint_mb,
        seed=seed,
    )


def get_mix_workload(
    name: str,
    *,
    n_gpus: int = 4,
    page_size: int = 4096,
    footprint_mb: float | None = None,
    seed: int = 0,
    burst: int = DEFAULT_BURST,
) -> Trace:
    """Build (or fetch from cache) a mix trace from a ``"a+b"`` name.

    This is the registry delegation target: ``get_workload("mm+bfs", ...)``
    routes here.
    """
    label = parse_mix(name).label
    mb = float(footprint_mb) if footprint_mb is not None else None
    return _cached_mix_build(label, n_gpus, page_size, mb, seed, burst)


def trace_digest(trace: Trace) -> str:
    """Content digest of a trace (records, objects, tenant windows)."""
    from repro.sim.snapshot import trace_prefix_chain

    h = hashlib.sha256(trace_prefix_chain(trace)[-1].encode())
    tenants = getattr(trace, "tenants", None)
    if tenants:
        h.update(
            repr(
                tuple(
                    (t.name, t.app, t.index, t.seed, t.first_page, t.n_pages)
                    for t in tenants
                )
            ).encode()
        )
    return h.hexdigest()
