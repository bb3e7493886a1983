"""Correctness gate: every job's verdict against values pinned on the
commit that introduced the benchmark.

A pin holds the job's exit status and the leaves of its JSON report,
flattened to dotted paths ("reports.0.checked").  A job passes when the
exit status matches and every pinned path holds the pinned value.  Paths
the pin does not name are ignored, so later reports may add fields.
"""

from __future__ import annotations

import json
from pathlib import Path

from jobs import cases, job_key

PINS_PATH = Path(__file__).resolve().parent / "pins.json"


def flatten(value, prefix: str = "") -> dict:
    """Leaves of a JSON value keyed by dotted path."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {prefix: value}
    out = {}
    for key, child in items:
        out.update(flatten(child, f"{prefix}.{key}" if prefix else str(key)))
    return out


def load_pins(path: Path = PINS_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check(pin: dict | None, code: int, stdout: str) -> tuple[bool, dict | None, str]:
    """(passed, parsed report or None, reason) for one finished job."""
    if pin is None:
        return False, None, "no pinned verdict for this job"
    if code != pin["code"]:
        return False, None, f"exit status {code}, pinned {pin['code']}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return False, None, f"report is not JSON: {exc}"
    flat = flatten(report)
    for path, expected in pin["report"].items():
        if path not in flat:
            return False, report, f"missing pinned key {path}"
        if flat[path] != expected:
            return False, report, f"{path} = {flat[path]!r}, pinned {expected!r}"
    return True, report, ""


def tally(records: list[dict], pins: dict) -> dict:
    """Gate finished-job records against the pins.

    Returns attempted and failed job counts, the exact cases each passing
    job verified (by job key), and the first few failure reasons.
    """
    out = {"attempted": 0, "failed": 0, "cases": {}, "reasons": []}
    for rec in records:
        key = job_key(rec["argv"])
        out["attempted"] += 1
        ok, report, reason = check(pins.get(key), rec["code"], rec["out"])
        if ok and rec["error"]:
            ok, reason = False, rec["error"]
        if ok:
            out["cases"][key] = cases(rec["argv"], report)
        else:
            out["failed"] += 1
            if len(out["reasons"]) < 5:
                out["reasons"].append(f"{key}: {reason}")
    return out
