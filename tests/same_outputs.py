"""Compare what two source trees of entswap output, case by case.

Usage: python tests/same_outputs.py OLD_TREE NEW_TREE

Each tree is a checkout holding ``src/entswap``, for example the parent
commit's files from ``git archive HEAD^``.  Each tree runs every case of
``MANIFEST`` in one fresh interpreter of its own, with that tree's ``src`` first
on the path and an empty working directory.  A CLI case records its exit code,
stdout, stderr and every file it writes; an API case records what it returns.
Each output is kept as its SHA-256 prefix and length.  The script prints one
line per output that differs, naming the case, and exits 1 if any differs, 0 if
none does.  A change that moves output bytes on purpose fails here, and the
lines it prints list what moved.

The manifest covers ``run`` for every adversary with phi+ and random pairs at 1,
16 and 3 000 groups, on stdout and with ``--format both`` (exit codes 0, 2 and
3 all occur); ``attack`` for every adversary at 1, 7, 1 000 and 300 000 trials
(the last runs several chunks on every CPU, and the binomial kernel's
replays); ``sweep`` for type1 to type3, and type2 and type3 at 64 groups over
every k; ``oracle-check``; statevector ``monte_carlo`` reports; and every
declared pair's ``class_table`` for every layout.  It uses the standard library
only and, like ``kernel_certificate.py``, is named so that pytest does not
collect it.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

KINDS = ("none", "type1", "type2", "type3")


def _cli_cases() -> list[list[str]]:
    cases = []
    for kind in KINDS:
        for pairs in ("phi+", "random:5"):
            for groups in ("1", "16", "3000"):
                argv = ["run", "--adversary", kind, "--pair-states", pairs, "--groups", groups]
                cases += [argv, argv + ["--format", "both", "--out", "report.json"]]
    for kind in KINDS:
        for trials in ("1", "7", "1000", "300000"):
            cases.append(["attack", "--adversary", kind, "--groups", "16", "--trials", trials, "--seed", "7"])
    for kind in KINDS[1:]:
        cases.append(["sweep", "--adversary", kind, "--groups", "16", "--trials", "20000", "--out", "sweep"])
    for kind in ("type2", "type3"):
        cases.append(
            ["sweep", "--adversary", kind, "--groups", "64", "--check-fraction", "1.0",
             "--trials", "200000", "--out", "sweep"]
        )
    return cases + [["oracle-check"]]


def _digest(data: bytes) -> str:
    return f"{hashlib.sha256(data).hexdigest()[:16]} ({len(data)} B)"


def _cli(argv: list[str]) -> dict:
    """Exit code, stdout, stderr and written files of ``entswap`` run on ``argv``
    in the current directory."""
    from entswap.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits on a usage error
            code = exc.code
    outputs = {"exit code": str(code)}
    for stream, text in (("stdout", out), ("stderr", err)):
        outputs[stream] = _digest(text.getvalue().encode())
    for path in sorted(Path().rglob("*")):
        if path.is_file():
            outputs[f"file {path.as_posix()}"] = _digest(path.read_bytes())
    return outputs


def _statevector_batch(kind: str) -> dict:
    from entswap.protocol import SessionConfig
    from entswap.stats import monte_carlo

    report = monte_carlo(SessionConfig(n_groups=4), kind, trials=200, seed=3, backend="statevector")
    return {"report": _digest(json.dumps(report.to_json_dict()).encode())}


def _class_tables(kind: str) -> dict:
    from entswap.bell import BELL_ORDER
    from entswap.stats import class_table

    outputs = {}
    for a in BELL_ORDER:
        for b in BELL_ORDER:
            try:
                table = class_table(kind, a, b)
                text = repr([getattr(table, name).tolist() for name in ("mismatch", "eve_ok", "probs", "alice")])
            except ValueError as exc:  # a pair the layout does not model
                text = f"{type(exc).__name__}: {exc}"
            outputs[f"({a}, {b})"] = _digest(text.encode())
    return outputs


# (case name, the function that runs it, its arguments)
MANIFEST = (
    [(" ".join(argv), _cli, (argv,)) for argv in _cli_cases()]
    + [(f"monte_carlo {kind} n=4 statevector", _statevector_batch, (kind,)) for kind in KINDS]
    + [(f"class_table {kind} every pair", _class_tables, (kind,)) for kind in KINDS]
)


def record() -> None:
    """Run every case in a directory of its own under the current one; print
    {case: {output: digest}} as JSON."""
    results = {}
    root = Path.cwd()
    for i, (name, function, args) in enumerate(MANIFEST):
        case_dir = root / f"case{i}"
        case_dir.mkdir()
        os.chdir(case_dir)
        results[name] = function(*args)
    os.chdir(root)
    print(json.dumps(results))


def outputs_of(tree: Path) -> dict:
    """The recorded outputs of every case, run on ``tree``'s sources in a fresh interpreter."""
    src = (tree / "src").resolve()
    if not (src / "entswap").is_dir():
        sys.exit(f"{tree}: no src/entswap")
    code = (
        f"import sys; sys.path[:0] = [{str(src)!r}, {str(Path(__file__).resolve().parent)!r}]\n"
        "import entswap, same_outputs\n"
        f"assert entswap.__file__.startswith({str(src)!r}), entswap.__file__\n"
        "same_outputs.record()\n"
    )
    env = {key: value for key, value in os.environ.items() if key not in ("ENTSWAP_SEED", "PYTHONPATH")}
    with tempfile.TemporaryDirectory() as work:
        done = subprocess.run([sys.executable, "-c", code], cwd=work, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{tree}: the cases did not run:\n{done.stderr}")
    return json.loads(done.stdout)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    start = time.perf_counter()
    old, new = (outputs_of(Path(tree)) for tree in argv)
    differ = 0
    for name, _, _ in MANIFEST:
        for output in sorted(set(old[name]) | set(new[name])):
            before, after = old[name].get(output, "absent"), new[name].get(output, "absent")
            if before != after:
                differ += 1
                print(f"differs: {name}: {output}: {before} -> {after}")
    outputs = sum(len(v) for v in new.values())
    print(
        f"{len(MANIFEST)} cases, {outputs} outputs, {differ} differ; {time.perf_counter() - start:.1f} s",
        file=sys.stderr,
    )
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
