#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py [--ampom-sim PATH]

Checks that
  * the benchmark drives the real paper path: its AMPoM DGEMM 575 MiB run at
    seed 1 equals tools/ampom_sim's (freeze 681.791 ms, total 148.541 s; with
    --ampom-sim the binary is run and its printed figures are compared too);
  * tracing moves no simulated quantity (traced == untraced);
  * the partitioned engine gives identical results at workers 1 and 2;
  * every metric the perfbench binary prints exists in BENCHMARK.json with the same
    unit, and every metric BENCHMARK.json names is printed.
Exits 0 when all pass.
"""

import argparse
import json
import re
import subprocess
import sys

import run

PINNED = {"freeze_ms": "681.791", "total_s": "148.541"}


def ampom_sim_point(path):
    out = subprocess.run([path, "--kernel=dgemm", "--memory-mib=575", "--scheme=ampom"],
                         check=True, capture_output=True, text=True).stdout
    freeze = re.search(r"freeze time:\s+([0-9.]+)ms", out).group(1)
    total = re.search(r"total time:\s+([0-9.]+)s", out).group(1)
    return {"freeze_ms": freeze, "total_s": total}


def main():
    parser = argparse.ArgumentParser(description="benchmark self-tests")
    parser.add_argument("--ampom-sim", help="path to a built tools/ampom_sim")
    args = parser.parse_args()

    binary = run.build()
    out = subprocess.run([str(binary), "--selftest"], capture_output=True, text=True)
    print(out.stdout, end="")
    failures = []
    if out.returncode != 0:
        failures.append(f"perfbench --selftest exited {out.returncode}: {out.stderr.strip()}")

    match = re.search(r"freeze ([0-9.]+) ms, total ([0-9.]+) s", out.stdout)
    point = {"freeze_ms": match.group(1), "total_s": match.group(2)} if match else None
    references = [("pinned", PINNED)]
    if args.ampom_sim:
        references.append(("ampom_sim", ampom_sim_point(args.ampom_sim)))
    for label, ref in references:
        if point != ref:
            failures.append(f"paper DGEMM AMPoM seed 1: benchmark {point} != {label} {ref}")
        else:
            print(f"selftest paper path equals {label}: yes")

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for section in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        printed = dict(re.findall(rf"^metric {section} (\S+) (\S+)$", out.stdout, re.M))
        if printed != declared:
            missing = sorted(set(declared) - set(printed))
            extra = sorted(set(printed) - set(declared))
            units = sorted(k for k in set(printed) & set(declared) if printed[k] != declared[k])
            failures.append(f"{section}: not printed {missing}, not declared {extra}, "
                            f"unit differs {units}")
        else:
            print(f"selftest {section} metrics match BENCHMARK.json: yes ({len(printed)})")

    for failure in failures:
        print("SELFTEST FAILED:", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
