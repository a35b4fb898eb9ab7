#!/usr/bin/env python3
"""ROADMAP item 9's sweep in one command: ``src/repro`` statements no run reaches.

    python3 tools/unreached.py                    # the whole sweep, ~20 min
    python3 tools/unreached.py -- -m pytest -q    # one python command only

Each run is a child process under a ``sys.settrace`` hook that traces only
frames under ``src/repro``; printed are the ``ast`` statement lines (docstrings
aside) no run hit, per file, then one summary line.  Stdlib only; worker
processes a run spawns are not traced."""
import ast, glob, json, os, pathlib, runpy, subprocess, sys, tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro") + os.sep
PYTEST = ["-m", "pytest", "-q", "-p", "no:cacheprovider"]
SWEEP = [PYTEST, PYTEST + ["--benchmark-only", "benchmarks"],
         *([path] for path in sorted(glob.glob(ROOT + "/examples/*.py"))),
         *(["perfbench/run.py", "--workload", name, "--seconds", "0", "--trace", t]
           for t in "01"
           for name in ("micro_1c", "rpc_fanin", "kv_etc_4c", "verbs_mr_thrash",
                        "apps_batch", "churn_recovery")),
         *(["tools/chaos.py", *m, "--seeds", "2"] for m in ([], ["--recovery"])),
         ["tools/trace_report.py", "--demo", "rpc64"]]


def run_traced(out, argv):
    """Run one python command line in-process under the hook; dump its hits."""
    hits = {}
    def hook(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(SRC):
            return None
        add = hits.setdefault(name[len(SRC):], set()).add
        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local
        return local

    as_module = argv[0] == "-m"
    sys.argv = argv[as_module:]
    sys.path.insert(0, os.path.dirname(sys.argv[0]))
    sys.settrace(hook)
    try:
        run = runpy.run_module if as_module else runpy.run_path
        run(sys.argv[0], run_name="__main__")
    finally:
        sys.settrace(None)
        with open(out, "w") as fh:
            json.dump({name: sorted(lines) for name, lines in hits.items()}, fh)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        sys.exit(run_traced(sys.argv[2], sys.argv[3:]))
    runs = [sys.argv[2:]] if sys.argv[1:2] == ["--"] else SWEEP
    hits = {}
    with tempfile.NamedTemporaryFile(suffix=".json") as out:
        for argv in runs:
            code = subprocess.call(
                [sys.executable, __file__, "--child", out.name] + argv, cwd=ROOT,
                env=dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=ROOT + "/src"),
                stdout=subprocess.DEVNULL)
            print(f"[exit {code}] python3 {' '.join(argv)}", file=sys.stderr)
            for name, lines in json.loads(pathlib.Path(out.name).read_text()).items():
                hits.setdefault(name, set()).update(lines)
    total = missed = 0
    for path in sorted(glob.glob(SRC + "**/*.py", recursive=True)):
        tree = ast.parse(pathlib.Path(path).read_text())
        lines = {node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.stmt)
                 and not isinstance(node, (ast.Global, ast.Nonlocal))
                 and not (isinstance(node, ast.Expr)
                          and isinstance(node.value, ast.Constant))}
        gone = sorted(lines - hits.get(path[len(SRC):], set()))
        total, missed = total + len(lines), missed + len(gone)
        if gone:
            print(f"{path[len(SRC):]}: {len(gone)} of {len(lines)}:", *gone)
    print(f"unreached: {missed:,} of {total:,} statement lines in src/repro "
          f"over {len(runs)} run(s)")
