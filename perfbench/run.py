"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``NAME`` is ``claims-check``,
``serve-hot`` or ``serve-cold`` (see ``BENCHMARK.json`` for why each
exists, ``NOTES.md`` for the protocol and for why ``serve-cold`` is
not yet listed there).  With ``--trace 0`` the run
reports every end-to-end metric of ``BENCHMARK.json``; with
``--trace 1`` every per-layer one.  Each metric is printed by name with
its unit, then one ``protocol`` line recording how the numbers were
made, then, as the last line, the JSON result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The exit code is 0 when every output checked was correct, 1 when one
was not, and 2 when the run could not be made at all (no result line).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
# The answer checker imports the program under test, from this checkout.
sys.path.insert(1, str(ROOT / "src"))

WORKLOADS = ("claims-check", "serve-hot", "serve-cold")


def _source_digest() -> str:
    """sha256 over ``src`` Python files: names the code measured, git or not."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _version(package: str):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def protocol(args: argparse.Namespace) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "source_digest": _source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "platform": platform.platform(),
    }


def measure(args: argparse.Namespace, scratch: Path) -> dict:
    from programs import pin_driver

    pin_driver()
    if args.workload == "claims-check":
        import claims_bench

        return claims_bench.run(args.seed, args.seconds, bool(args.trace), scratch)
    import serve_bench

    return serve_bench.run(
        serve_bench.SPECS[args.workload], args.seed, args.seconds, bool(args.trace), scratch
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A caller that times the run out sends SIGTERM: unwind through the
    # ``finally`` blocks that stop the program process and delete scratch.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    scratch = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, scratch)
    except Exception:  # noqa: BLE001 - report and exit without a result line
        traceback.print_exc()
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    values = result["layers"] if args.trace else result["metrics"]
    metrics = {}
    for item in declared:
        name = item["name"]
        if name not in values and not args.trace:
            print(f"end-to-end metric {name} was not measured", file=sys.stderr)
            return 2
        # A layer this workload never enters did no work: zero.
        metrics[name] = {"value": float(values.get(name, 0.0)), "unit": item["unit"]}
        print(f"{name:40s} {metrics[name]['value']:.6g} {item['unit']}")
    record = protocol(args)
    record.update(result["protocol"])
    print("protocol: " + json.dumps(record, sort_keys=True))
    correct = result["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
