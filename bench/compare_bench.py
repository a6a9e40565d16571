#!/usr/bin/env python3
"""Diff BENCH_JSON lines against a committed baseline.

Every bench emits one `BENCH_JSON {...}` line per result. Almost every
field in those lines is *simulated* state (commit counts, message
totals, simulated latencies, availability fractions), which is
deterministic for a given seed on any machine and at any --sim_threads
count — those must match the baseline exactly. Only wall-clock fields
(`wall_ms`, `*_per_sec`) are machine-dependent; they are compared as a
ratio against the baseline with a generous tolerance and reported
either way.

Usage:
    compare_bench.py BASELINE CURRENT [CURRENT...] [--wall-tolerance=2.5]
                     [--strict]

BASELINE and CURRENT are files containing BENCH_JSON lines (raw bench
stdout works; anything that is not a BENCH_JSON line is ignored).
Multiple CURRENT files are merged before comparison. When several lines
share an identity (the same grid cell run at a different --nodes, say),
they pair up in encounter order — pass CURRENT files in the same order
the baseline was generated in.

Exit status: 0 when every overlapping line matches (wall-clock within
tolerance); 1 on any deterministic mismatch or wall-clock regression
beyond tolerance. Lines present only in the baseline or only in the
current run are warnings, promoted to errors by --strict. CI runs this
as a soft gate (continue-on-error), so a failure annotates the build
without blocking it.

Regenerating the committed baseline (from the build directory):
    ./bench/bench_scenario_matrix --seeds=1
    ./bench/bench_scenario_matrix --scenarios=flapping_split \
        --workloads=flash_hotkey --controls=fragmentwise --seeds=1 \
        --nodes=48 --duration_ms=700
    ./bench/bench_fig1_1_spectrum
    ./bench/bench_scaling --mode=pdes | grep '"bench":"pdes"'
    ./bench/bench_sec4_4_moving
and concatenate the BENCH_JSON lines into BENCH_BASELINE.json, in that
order. The spectrum's 7 rows carry no wall-clock field and must be
byte-identical at --threads=1 and --threads=4 before they are committed;
the 3 scaling rows (16/64/256 nodes; their "pdes_wall" companions are
left out) likewise at --sim_threads=1 and --sim_threads=4. The 5 §4.4
rows (four move protocols plus §4.4.1 token recovery) carry no
wall-clock field either.
"""

import json
import sys

MARKER = "BENCH_JSON "

# Identity fields: these (plus every other string-valued field) name a
# result line; they are never compared as metrics.
ID_FIELDS = {"schema_version", "seed", "nodes", "cells", "threads",
             "sim_threads", "sim_partitions"}
# Identity fields that may legitimately differ between baseline and
# current run (CI picks its own worker counts) and so stay out of the
# line key.
VOLATILE_ID_FIELDS = {"threads", "sim_threads", "sim_partitions"}
# String-valued fields that are results rather than names: compared like
# metrics, so a drift is an error instead of an unmatched line.
STRING_METRIC_FIELDS = {"fingerprint"}


def is_wall_field(name):
    return "wall" in name or name.endswith("_per_sec")


def load_lines(paths):
    """Parses BENCH_JSON lines from `paths` into {key: record}."""
    records = {}
    for path in paths:
        with open(path) as f:
            for line in f:
                idx = line.find(MARKER)
                if idx < 0:
                    continue
                rec = json.loads(line[idx + len(MARKER):])
                key_parts = []
                for name in sorted(rec):
                    if name in VOLATILE_ID_FIELDS:
                        continue
                    value = rec[name]
                    if (isinstance(value, str) and
                            name not in STRING_METRIC_FIELDS) or \
                            name in ID_FIELDS:
                        key_parts.append(f"{name}={value}")
                key = " ".join(key_parts)
                n = 2
                base = key
                while key in records:  # repeated identical cells
                    key = f"{base} #{n}"
                    n += 1
                records[key] = rec
    return records


def close(a, b):
    if isinstance(a, float) or isinstance(b, float):
        scale = max(abs(a), abs(b), 1.0)
        return abs(a - b) <= 1e-6 * scale  # printf rounding only
    return a == b


def main(argv):
    wall_tolerance = 2.5
    strict = False
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--wall-tolerance="):
            wall_tolerance = float(arg.split("=", 1)[1])
        elif arg == "--strict":
            strict = True
        elif arg.startswith("--"):
            sys.exit(f"unknown option {arg}\n{__doc__}")
        else:
            paths.append(arg)
    if len(paths) < 2:
        sys.exit(__doc__)

    baseline = load_lines(paths[:1])
    current = load_lines(paths[1:])

    errors, warnings = [], []
    compared = 0
    for key, base in sorted(baseline.items()):
        cur = current.get(key)
        if cur is None:
            warnings.append(f"baseline-only line: {key}")
            continue
        compared += 1
        for name in sorted(set(base) | set(cur)):
            if name in VOLATILE_ID_FIELDS:
                continue  # CI picks its own worker counts
            if name not in base or name not in cur:
                errors.append(f"{key}: field '{name}' only on one side")
                continue
            b, c = base[name], cur[name]
            if is_wall_field(name):
                if isinstance(b, (int, float)) and b > 0 and c > b:
                    ratio = c / b
                    msg = (f"{key}: {name} {c:g} vs baseline {b:g} "
                           f"({ratio:.2f}x slower)")
                    if ratio > wall_tolerance:
                        errors.append(msg)
                    else:
                        warnings.append(msg)
            elif isinstance(b, (int, float)) and isinstance(c, (int, float)) \
                    and not isinstance(b, bool) and not isinstance(c, bool):
                if not close(b, c):
                    errors.append(f"{key}: {name} = {c} vs baseline {b}")
            elif b != c:
                errors.append(f"{key}: {name} = {c!r} vs baseline {b!r}")
    for key in sorted(set(current) - set(baseline)):
        warnings.append(f"not in baseline: {key}")

    for w in warnings:
        print(f"WARN  {w}")
    for e in errors:
        print(f"ERROR {e}")
    print(f"compared {compared} of {len(baseline)} baseline lines: "
          f"{len(errors)} error(s), {len(warnings)} warning(s)")
    if errors or (strict and warnings):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
