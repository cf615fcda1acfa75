"""Deterministic fault plans: what breaks, where, and when.

A :class:`FaultPlan` is an immutable set of :class:`FaultSpec` entries,
each naming an instrumented *site*, a fault *kind* that site supports, a
*trigger ordinal*, and a *count*. Plans are pure data: the same plan
(from the same spec string or the same seed) always describes the same
faults, which is what makes chaos runs reproducible.

Trigger semantics depend on scope (see :mod:`repro.faults.injector`):

* **Job scope** (every supervised job, in a pool worker or in the
  parent at one worker): a spec fires inside the job whose
  deterministic *job ordinal* (its index in the phase's cost-sorted job
  list) equals ``ordinal``, on attempts ``0..count-1`` of that job.
  Retries therefore outlast any finite fault — the recovery invariant
  the suite engine is built around.
* **Process scope** (the parent, outside any job): a spec fires on
  occurrences ``ordinal..ordinal+count-1`` of the site in this process.

Spec grammar (``$REPRO_FAULTS`` and ``run_suite_parallel(faults=...)``)::

    site:kind@ordinal[xcount][;site:kind@ordinal[xcount]...]

e.g. ``phase2.job:crash@0`` (the first phase-2 job's worker dies once)
or ``artifact.get:corrupt@0x2;shm.publish:enospc@1``. Every grid runs
the same two phases, probe grids included, so the job sites are
``phase1.job`` (a benchmark's trace + cache pass) and ``phase2.job``
(one arm); any other site name fails at parse.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

#: Environment variable holding a fault spec string; consulted when no
#: explicit ``faults=`` argument is given.
ENV_FAULTS = "REPRO_FAULTS"

#: Instrumented sites -> fault kinds each supports. Job-entry sites
#: (``*.job``) manifest at the start of a worker job; the rest sit on
#: the shared-memory transport and the artifact store.
SITES = {
    "phase1.job": ("crash", "hang", "transient", "pickle"),
    "phase2.job": ("crash", "hang", "transient", "pickle"),
    "shm.attach": ("lost",),
    "shm.publish": ("enospc",),
    "artifact.get": ("corrupt",),
    "artifact.put": ("enospc",),
}

#: Every fault kind, for reference/validation.
KINDS = ("crash", "hang", "transient", "pickle", "lost", "enospc", "corrupt")


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: ``kind`` at ``site``, triggered at
    ``ordinal`` for ``count`` consecutive attempts/occurrences."""

    site: str
    kind: str
    ordinal: int = 0
    count: int = 1

    def __post_init__(self) -> None:
        allowed = SITES.get(self.site)
        if allowed is None:
            raise ValueError(
                f"unknown fault site {self.site!r}; "
                f"known sites: {', '.join(sorted(SITES))}"
            )
        if self.kind not in allowed:
            raise ValueError(
                f"site {self.site!r} does not support kind {self.kind!r}; "
                f"supported: {', '.join(allowed)}"
            )
        if self.ordinal < 0 or self.count < 1:
            raise ValueError(
                f"ordinal must be >= 0 and count >= 1, got "
                f"@{self.ordinal}x{self.count}"
            )

    def to_spec(self) -> str:
        base = f"{self.site}:{self.kind}@{self.ordinal}"
        return f"{base}x{self.count}" if self.count > 1 else base


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, immutable collection of fault specs."""

    specs: Tuple[FaultSpec, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.specs)

    def to_spec(self) -> str:
        """Serialize back to the ``$REPRO_FAULTS`` grammar (round-trips
        through :meth:`parse`)."""
        return ";".join(spec.to_spec() for spec in self.specs)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a spec string; whitespace and empty entries are
        ignored, ``,`` and ``;`` both separate entries."""
        specs = []
        for chunk in text.replace(",", ";").split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            site_kind, _, trigger = chunk.partition("@")
            site, sep, kind = site_kind.partition(":")
            if not sep or not kind:
                raise ValueError(
                    f"bad fault entry {chunk!r}: expected site:kind[@N[xC]]"
                )
            ordinal, count = 0, 1
            if trigger:
                ord_text, _, count_text = trigger.partition("x")
                try:
                    ordinal = int(ord_text)
                    count = int(count_text) if count_text else 1
                except ValueError:
                    raise ValueError(
                        f"bad fault trigger {trigger!r} in {chunk!r}: "
                        f"expected @N or @NxC"
                    ) from None
            specs.append(
                FaultSpec(
                    site=site.strip(), kind=kind.strip(),
                    ordinal=ordinal, count=count,
                )
            )
        return cls(tuple(specs))

    @classmethod
    def from_seed(
        cls,
        seed: int,
        n_faults: Optional[int] = None,
        sites: Optional[Sequence[str]] = None,
    ) -> "FaultPlan":
        """Derive a random-but-reproducible plan from ``seed``.

        The same ``(seed, n_faults, sites)`` always yields the same plan
        (its own :class:`random.Random`, fixed site iteration order).
        """
        rng = random.Random(int(seed) ^ 0x5EED_FA17)
        pool = tuple(sites) if sites else tuple(sorted(SITES))
        n = n_faults if n_faults is not None else rng.randint(1, 3)
        specs = []
        for _ in range(n):
            site = pool[rng.randrange(len(pool))]
            kinds = SITES[site]
            specs.append(
                FaultSpec(
                    site=site,
                    kind=kinds[rng.randrange(len(kinds))],
                    ordinal=rng.randrange(4),
                    count=rng.randint(1, 2),
                )
            )
        return cls(tuple(specs))


def resolve_plan(
    faults: Union[None, bool, str, FaultPlan]
) -> Optional[FaultPlan]:
    """Normalize a ``faults=`` argument into a plan (or None).

    ``None`` consults ``$REPRO_FAULTS``; ``False``/``""`` disable
    injection outright (ignoring the environment); a string is parsed;
    a plan passes through. Empty plans normalize to None.
    """
    if faults is None:
        text = os.environ.get(ENV_FAULTS, "").strip()
        if not text:
            return None
        plan = FaultPlan.parse(text)
        return plan if plan else None
    if faults is False or faults == "":
        return None
    if isinstance(faults, FaultPlan):
        return faults if faults else None
    if isinstance(faults, str):
        plan = FaultPlan.parse(faults)
        return plan if plan else None
    raise TypeError(
        f"faults must be None, False, a spec string, or a FaultPlan; "
        f"got {type(faults).__name__}"
    )
