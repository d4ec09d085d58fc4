"""Regenerate the golden case-study fixtures from the scalar oracle.

The scalar per-table path (:mod:`tests.oracles`) is the authoritative
reference implementation, so golden values are always produced by it; the
vectorized engine the product runs is held to the same numbers by the
differential tests.  Run from the repository root::

    PYTHONPATH=src python -m tests.golden.regenerate

and commit the JSON diffs together with whatever intentional change moved
the numbers.
"""

from __future__ import annotations

import json

from repro.sampler import MicroSampler

from tests.golden import (
    GOLDEN_DIR,
    case_workloads,
    localization_case,
    localization_to_golden,
    report_to_golden,
    taint_cases,
    taint_to_golden,
)
from tests.oracles import scalar_report, scalar_scans


def main() -> None:
    for name, (workload, config) in case_workloads().items():
        sampler = MicroSampler(config)
        report = scalar_report(sampler.run(workload), sampler)
        payload = report_to_golden(report)
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path.name}: {len(payload['leaky_units'])} leaky units, "
              f"{len(payload['units'])} units")

    from repro.taint import compute_publicness

    for name, factory in taint_cases().items():
        payload = taint_to_golden(compute_publicness(factory()))
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        merged = payload["merged"]
        print(f"wrote {path.name}: escalated={merged['escalated']}, "
              f"{len(merged['tainted_pcs'])} tainted PCs")

    workload, config, features = localization_case()
    with scalar_scans():
        localization = MicroSampler(config).localize(workload,
                                                     features=features)
    payload = localization_to_golden(localization)
    path = GOLDEN_DIR / "localize_ee_memcmp.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path.name}: "
          f"{len(payload['localized_units'])} localized units")


if __name__ == "__main__":
    main()
