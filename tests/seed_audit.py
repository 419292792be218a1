"""Audit acceptance criteria 02-08 across seeds.

Runs criteria 02-08 of tests/test_acceptance.py once per seed, each on a
temporary copy of the module with its SEED line replaced (desk_doc binds SEED
as its default when the module loads, so patching the attribute would not
reach it), then prints each criterion's pass fraction and failing seeds:

    PYTHONPATH=src python tests/seed_audit.py --seeds 1-10

Seeds are a range, a comma list, or both ("1-6,9"). pytest does not collect
this file, since its name does not match test_*.py. Criteria 07a, 07b and 08
draw from fixed seeds of their own, so they run unchanged at every seed.
"""

from __future__ import annotations

import argparse
import re
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

TESTS = Path(__file__).resolve().parent
REPO = TESTS.parent
CRITERIA = ("02", "03", "04", "05", "06", "07a", "07b", "07c", "08")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in filter(None, text.replace(" ", "").split(",")):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def run_seed(seed: int, workdir: Path) -> dict[str, tuple[bool, str]]:
    """Each criterion's (passed, report line) at seed."""
    source = (TESTS / "test_acceptance.py").read_text(encoding="utf-8")
    patched, count = re.subn(r"^SEED = \d+$", f"SEED = {seed}", source, flags=re.M)
    if count != 1:
        raise RuntimeError("test_acceptance.py must set SEED on exactly one line")
    (workdir / "test_acceptance.py").write_text(patched, encoding="utf-8")
    report = workdir / f"seed{seed}.xml"
    selected = " or ".join(f"test_criterion_{c}_" for c in CRITERIA)
    subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(REPO / "pyproject.toml"), "--rootdir", str(REPO),
            "-o", "junit_logging=system-out", f"--junitxml={report}",
            "-k", selected, str(workdir / "test_acceptance.py"),
        ],
        cwd=workdir,
        stdout=subprocess.DEVNULL,
        check=False,
    )
    results = {}
    for case in ET.parse(report).getroot().iter("testcase"):
        match = re.match(r"test_criterion_(\w+?)_", case.get("name", ""))
        if not match:
            continue
        failed = any(case.find(tag) is not None for tag in ("failure", "error", "skipped"))
        out = case.findtext("system-out") or ""
        line = next((ln for ln in out.splitlines() if ln.startswith("[criterion")), "")
        results[match.group(1)] = (not failed, line)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help='e.g. "1-10" or "1,4,7"')
    seeds = parse_seeds(parser.parse_args(argv).seeds)
    table: dict[str, dict[int, bool]] = {c: {} for c in CRITERIA}
    with tempfile.TemporaryDirectory(prefix="otafl-seed-audit-") as tmp:
        workdir = Path(tmp)
        shutil.copy(TESTS / "conftest.py", workdir)
        shutil.copytree(TESTS / "data", workdir / "data")
        for seed in seeds:
            results = run_seed(seed, workdir)
            print(f"seed {seed}:", flush=True)
            for criterion in CRITERIA:
                passed, line = results.get(criterion, (False, "[did not run]"))
                table[criterion][seed] = passed
                print(f"  {criterion:>3} {'pass' if passed else 'FAIL'}  {line}", flush=True)
    print(f"\npass fraction over seeds {', '.join(map(str, seeds))}:")
    for criterion, by_seed in table.items():
        failing = [seed for seed, passed in by_seed.items() if not passed]
        share = f"{len(seeds) - len(failing)}/{len(seeds)}"
        print(f"  criterion {criterion:>3}: {share}" + (f"  fails at {failing}" if failing else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
