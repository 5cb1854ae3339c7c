"""Record the reference answers in bench/references.json.

    python3 bench/record.py

Runs every query any seed can pick through the CLI and stores, per op,
the exit code and the size and digest of the true-point set (``eval``),
the violation list (``check``), or the expectation and failure counts
(``verify``). Before writing, a self-check shows that the answers agree
with what the paper requires; if it fails, nothing is written:

* on broadcast_eval, ``C`` equals its nu-form, and each ``Ceps``, ``Cv``
  and ``Ct`` answer equals the answer for its ``expand_fixpoints`` form;
* ng1, ng2 and ng1prime pass on the drop-generated handshake system;
* both scenario manifests verify with 0 failed.
"""

from __future__ import annotations

import json
import shutil
import sys

import workloads as wl


def ask(launcher: wl.Launcher, query: wl.Query, work) -> dict:
    child = launcher.cli(query.argv, work / "record.out")
    if child.timed_out:
        raise SystemExit(f"record: {query.key} ran over {wl.OP_LIMIT_S:.0f} s")
    return wl.answer_of(query.kind, child.exit_code, child.stdout)


def record_workload(launcher: wl.Launcher, name: str, work) -> tuple[dict, dict]:
    workload = wl.WORKLOADS[name]
    files = workload.setup(launcher, work).files
    if name == "broadcast_eval":
        queries = [wl.eval_query(label, f, files["system"])
                   for f, label in wl.all_broadcast_formulas().items()]
        queries.append(wl.verify_query(files["manifest"]))
    else:
        queries = workload.queries(files, 0)
    refs = {}
    for q in queries:
        refs[q.key] = ask(launcher, q, work)
        print(f"{name:18s} {q.key:40s} {refs[q.key]}")
    return refs, files


def main() -> int:
    wl.ensure_importable()
    work = wl.ROOT / ".bench_work" / "record"
    shutil.rmtree(work, ignore_errors=True)
    refs, problems = {}, []
    try:
        with wl.Launcher() as launcher:
            for name in wl.WORKLOADS:
                wdir = work / name
                wdir.mkdir(parents=True)
                refs[name], files = record_workload(launcher, name, wdir)
                if name == "broadcast_eval":
                    problems += check_broadcast(launcher, refs[name], files, wdir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems += check_handshake(refs["handshake_checks"])
    for name in ("broadcast_eval", "muddy_verify"):
        verdict = refs[name]["verify"]
        if verdict.get("exit") != 0 or verdict.get("failed") != 0:
            problems.append(f"{name}: manifest verify reports {verdict}")
    for line in problems:
        print(f"SELF-CHECK FAILED: {line}", file=sys.stderr)
    if problems:
        return 1
    wl.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"self-check passed; wrote {wl.REFERENCES}")
    return 0


def check_broadcast(launcher: wl.Launcher, refs: dict, files, work) -> list[str]:
    from epimc import expand_fixpoints, parse, print_formula

    problems = []
    by_label: dict[str, list[str]] = {}
    for f, label in wl.all_broadcast_formulas().items():
        by_label.setdefault(label, []).append(f)
    (c,) = by_label["C"]
    (nu,) = by_label["nu"]
    if refs[c] != refs[nu]:
        problems.append(f"{c} gives {refs[c]}, its nu-form {nu} gives {refs[nu]}")
    for label in ("Ceps", "Cv", "Ct"):
        for f in by_label[label]:
            expanded = print_formula(expand_fixpoints(parse(f)))
            got = ask(launcher, wl.eval_query(label, expanded, files["system"]), work)
            print(f"{'self-check':18s} {expanded:40s} {got}")
            if got != refs[f]:
                problems.append(f"{f} gives {refs[f]}, its expansion {expanded} gives {got}")
    return problems


def check_handshake(refs: dict) -> list[str]:
    return [
        f"{c} does not pass on the drop-generated handshake system: {refs[c]}"
        for c in ("ng1", "ng2", "ng1prime")
        if refs[c].get("exit") != 0 or refs[c].get("violations") != 0
    ]


if __name__ == "__main__":
    sys.exit(main())
