#!/usr/bin/env python
"""Observability hygiene lint: no new ad-hoc timing outside ``repro.obs``.

``repro.obs`` is the sanctioned home for timing — spans for wall-clock
attribution, histograms for aggregates.  Before it existed the codebase
grew ad-hoc ``time.perf_counter()`` pairs; those call sites are frozen in
``ALLOWED`` below (they feed report fields with committed golden outputs,
so ripping them out wholesale is a separate migration).  This lint fails
when

* a file under ``src/`` *not* in the allowlist calls ``perf_counter`` —
  new code must time through :mod:`repro.obs` spans/histograms instead, or
* an allowlisted file's call count *grows* — the freeze is a ceiling, or
* an allowlisted file's count falls below its ceiling, or it has no calls
  left — the ceiling is a ratchet, so the change that removes timing
  tightens ``ALLOWED`` with it and the ceilings never drift above the code.

Tests and ``benchmarks/`` are exempt: harnesses measure the system from
outside and must not route through the thing they are measuring.

Run from the repository root::

    python tools/check_obs_hygiene.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

#: Frozen per-file ceilings for pre-obs ``perf_counter`` call sites.
ALLOWED = {
    "src/repro/api/orchestrator.py": 4,
    "src/repro/api/session.py": 2,
    "src/repro/arena/runner.py": 2,
    "src/repro/corpus/behaviors/obfuscation.py": 2,
    "src/repro/evaluation/detector.py": 4,
    "src/repro/scanserve/index.py": 4,
    "src/repro/scanserve/service.py": 6,
    "src/repro/store/recovery.py": 2,
}

#: The sanctioned implementation — exempt by definition.
EXEMPT_PREFIXES = ("src/repro/obs/",)

_PATTERN = re.compile(r"\bperf_counter\s*\(")


def check(root: Path) -> int:
    failures: list[str] = []
    seen: set[str] = set()
    for path in sorted((root / "src").rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if any(rel.startswith(prefix) for prefix in EXEMPT_PREFIXES):
            continue
        count = len(_PATTERN.findall(path.read_text(encoding="utf-8")))
        if not count:
            continue
        seen.add(rel)
        ceiling = ALLOWED.get(rel)
        if ceiling is None:
            failures.append(
                f"{rel}: {count} perf_counter call(s) in a file outside the "
                f"allowlist — time through repro.obs spans/histograms instead"
            )
        elif count > ceiling:
            failures.append(
                f"{rel}: perf_counter calls grew {ceiling} -> {count} — new "
                f"timing must go through repro.obs"
            )
        elif count < ceiling:
            failures.append(
                f"{rel}: perf_counter calls shrank {ceiling} -> {count}; "
                f"tighten ALLOWED in {Path(__file__).name} to {count}"
            )
    for rel in sorted(set(ALLOWED) - seen):
        failures.append(
            f"{rel}: allowlisted but has no perf_counter calls (or no longer "
            f"exists); tighten ALLOWED in {Path(__file__).name} by removing it"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    checked = len(seen)
    print(f"obs hygiene OK: {checked} allowlisted file(s) at their frozen "
          f"perf_counter ceilings, no ad-hoc timing elsewhere")
    return 0


if __name__ == "__main__":
    raise SystemExit(check(Path(__file__).resolve().parent.parent))
