"""Compare the CLI's answers of two checkouts on the benchmark corpus.

    python3 tools/compare_cli.py OLD_ROOT NEW_ROOT [--seed 7] [--block 0]

Every input of one block of each benchmark workload (perfbench/corpus.py of
this checkout) runs through `centersolve.cli.run_command` of each root, in
a fresh interpreter per root.  Two runs agree when the exit codes are equal
and the JSON documents are equal, float leaves within 1e-12 relative.  A
complex number ([re, im] pair, or a root's re/im keys) is one leaf, compared
by modulus, so round-off in a part that should be zero does not count.  An
exception escaping run_command is recorded by its type name.  Prints one
line per disagreement and a summary; exits 1 if any input disagrees.
"""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
WORKLOADS = ("solve_verified", "solve_exact", "decompose_nary")
REL_TOL = 1e-12


def dump(root: Path, seed: int, block: int) -> list:
    sys.path.insert(0, str(HERE / "perfbench"))
    sys.path.insert(0, str(root / "src"))
    import corpus
    from centersolve.cli import run_command

    out = []
    for workload in WORKLOADS:
        for case in corpus.block(workload, seed, block):
            stdout, stderr = io.StringIO(), io.StringIO()
            try:
                code = run_command(case.argv, stdout=stdout, stderr=stderr)
                text = stdout.getvalue()
                doc = json.loads(text) if code in (0, 4) and text else None
            except Exception as exc:  # recorded, not raised: the other root may differ
                code, doc = type(exc).__name__, None
            out.append({"workload": workload, "argv": case.argv, "code": code, "doc": doc})
    return out


def _complex(x):
    if isinstance(x, list) and len(x) == 2 and all(isinstance(v, float) for v in x):
        return complex(*x)
    if isinstance(x, dict) and isinstance(x.get("re"), float):
        return complex(x["re"], x["im"])
    return None


def same(a, b) -> bool:
    za, zb = _complex(a), _complex(b)
    if za is not None and zb is not None and type(a) is type(b):
        rest = lambda x: {k: v for k, v in x.items() if k not in ("re", "im")}
        if isinstance(a, dict) and not same(rest(a), rest(b)):
            return False
        return za == zb or abs(za - zb) <= REL_TOL * max(abs(za), abs(zb))
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


def run_root(root: str, seed: int, block: int) -> list:
    cmd = [sys.executable, __file__, "--dump", root, "--seed", str(seed), "--block", str(block)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("roots", nargs="*", metavar="ROOT")
    ap.add_argument("--dump", metavar="ROOT", help=argparse.SUPPRESS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--block", type=int, default=0)
    args = ap.parse_args(argv)
    if args.dump:
        json.dump(dump(Path(args.dump), args.seed, args.block), sys.stdout)
        return 0
    if len(args.roots) != 2:
        ap.error("give OLD_ROOT and NEW_ROOT")
    old, new = (run_root(r, args.seed, args.block) for r in args.roots)
    differ = 0
    for a, b in zip(old, new):
        if a["code"] != b["code"] or not same(a["doc"], b["doc"]):
            differ += 1
            print(f"DIFFER {a['workload']} {' '.join(a['argv'][:3])[:80]}: "
                  f"exit {a['code']} -> {b['code']}")
    print(f"{len(old)} inputs compared, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
