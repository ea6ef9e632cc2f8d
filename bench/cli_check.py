"""The `opptypes` command line, run as a subprocess.

`check_agreement` runs `python -m opptypes check - --json` on one script
and requires its standard output to equal the in-process report byte for
byte, to validate against docs/report_schema.json, and to exit with the
status the script's known verdicts call for.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

IMPORT_PROBE = ("import time; t = time.process_time(); import opptypes.cli; "
                "print(time.process_time() - t)")


def _env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def import_seconds(src, repeats=3):
    """Median CPU time for a fresh interpreter to import the CLI module."""
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                             env=_env(src), capture_output=True, text=True,
                             timeout=60, check=True)
        times.append(float(out.stdout))
    return statistics.median(times)


def check_agreement(root, src, item, in_process_report):
    """(wall seconds, list of problems) for one CLI run on item.text."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "opptypes", "check", "-",
                           "--json"], input=item.text, env=_env(src),
                          cwd=root, capture_output=True, text=True,
                          timeout=120)
    wall = perf_counter() - t0
    problems = []
    if proc.stdout != in_process_report:
        problems.append("CLI report differs from the in-process report")
    if proc.returncode != item.expected_exit:
        problems.append(f"CLI exit status {proc.returncode}, "
                        f"expected {item.expected_exit}")
    with open(os.path.join(root, "docs", "report_schema.json"),
              encoding="utf-8") as fh:
        schema = json.load(fh)
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        problems.append(f"CLI output is not JSON: {e}")
    else:
        problems += [f"schema: {p}" for p in validate(report, schema)]
    return wall, problems


_TYPES = {"array": list, "object": dict, "string": str, "null": type(None)}


def validate(value, schema, path="$"):
    """Problems of value against the draft-07 keywords the report schema
    uses: type, enum, oneOf, required, properties, additionalProperties,
    items and minimum."""
    out = []
    t = schema.get("type")
    if t == "integer":
        if not isinstance(value, int) or isinstance(value, bool):
            return [f"{path} is not an integer"]
    elif t is not None and not isinstance(value, _TYPES[t]):
        return [f"{path} is not of type {t}"]
    if "enum" in schema and value not in schema["enum"]:
        out.append(f"{path} = {value!r} is not one of {schema['enum']}")
    if "oneOf" in schema:
        matches = sum(not validate(value, s, path) for s in schema["oneOf"])
        if matches != 1:
            out.append(f"{path} matches {matches} of the oneOf schemas")
    if "minimum" in schema and value < schema["minimum"]:
        out.append(f"{path} = {value} is below {schema['minimum']}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                out.append(f"{path} lacks {key}")
        props = schema.get("properties", {})
        for key, sub in value.items():
            if key in props:
                out += validate(sub, props[key], f"{path}.{key}")
            elif schema.get("additionalProperties") is False:
                out.append(f"{path} has unexpected key {key}")
    if isinstance(value, list) and "items" in schema:
        for i, sub in enumerate(value):
            out += validate(sub, schema["items"], f"{path}[{i}]")
    return out
