"""Digest of the verdict documents of a fixed set of commands.

Runs a fixed set of ``tetra`` commands in process, in a scratch
directory, and prints one line per document: the exit code, the
sha256 of the document and the command.  A document is what the
command printed, or a file it wrote (``model --emit``,
``counterexample --out``), which gets a line of its own marked
``file``.  Three ops of the certify-small benchmark workload (workload
seed 1, full size) follow, marked ``op``.

The commands: ``counterexample`` at depths 4, 16 and 32 with seeds 1,
7 and 12345, at depth 4 with seed 1 in ``--format text``, and at depth
256 (dim 2048) with 20 trials and seed 1;
``classify`` on points inside and outside the domain, and on one of
them in ``--format text``; ``model`` in both flavors for block
dimensions 2 and 3, depths 4 and 5, and diagonal and dense symbol
pairs, each emitting its triple; and
``fundamental`` and ``falsify`` on every emitted triple, and
``obstruction`` on those of even dimension; ``falsify`` runs whose
screens leave several candidates: the depth-8 witness with criterion
2's 200 trials and seed, and the Varopoulos triple at degrees 2 and 3
with 100 trials; ``obstruction`` on the depth-8 witness at its half
split, whose strict-mode hypotheses see the truncation boundary;
``cf`` on two pairs and the zero pair at degrees 0, 2 and 8; and
``sup`` on the Varopoulos polynomial at the default 4,096 samples and
at 1, 1025 and 40960, counts that end the draw on a partial sample
chunk.  Inputs are written under fixed
relative names, so the output depends on the package alone.  Run it
against two checkouts and diff the outputs to check that a change
keeps every document byte for byte:

Usage:
    PYTHONPATH=src python3 scripts/verdict_digest.py > after.txt
    PYTHONPATH=/path/to/other/src python3 scripts/verdict_digest.py > before.txt
    diff before.txt after.txt
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

from tetrablock import (
    build_witness,
    matrix_to_json,
    poly_to_json,
    random_symbol_pair,
    triple_to_json,
    varopoulos_example,
    varopoulos_polynomial,
)
from tetrablock.cli import main as tetra

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

POINTS = (
    # Inside the closed domain, on the distinguished boundary among them.
    "(0,0,0)",
    "(0.2,0.3+0.1j,0.5)",
    "(0.3-0.4j,0.5+0.1j,0.6j)",
    "(0.6,0.8,0.6)",
    "(-1j,-1j,-1)",
    # Outside: no parameter pair, and a pair summing past one.
    "(0,0,2)",
    "(0.3,0.5,1)",
    "(3,0,0)",
)


def _symbol_name(k: int, kind: str, which: str) -> str:
    return f"sym-{k}-{kind}-{which}.json"


def write_inputs(directory: Path) -> None:
    """Write the symbol pairs the ``model`` commands read, the triples
    of the last ``falsify`` runs and the polynomial of ``sup``."""
    triples = {
        "witness-8.json": build_witness(8).triple,
        "varopoulos.json": varopoulos_example()[0],
    }
    for name, triple in triples.items():
        doc = json.dumps(triple_to_json(triple))
        (directory / name).write_text(doc, encoding="utf-8")
    doc = json.dumps(poly_to_json(varopoulos_polynomial()))
    (directory / "varopoulos-poly.json").write_text(doc, encoding="utf-8")
    for k in (2, 3):
        for kind in ("diag", "dense"):
            pair = random_symbol_pair(k, seed=10 * k, diagonal=kind == "diag")
            for which, a in zip(("a1", "a2"), pair):
                path = directory / _symbol_name(k, kind, which)
                path.write_text(json.dumps(matrix_to_json(a)), encoding="utf-8")


def commands() -> list:
    """Every command of the digest, in order, with the file it writes."""
    cmds = []
    for depth in (4, 16, 32):
        for seed in (1, 7, 12345):
            argv = ["counterexample", "--blocks", str(depth), "--seed", str(seed)]
            cmds.append((argv, None))
    argv = ["counterexample", "--blocks", "4", "--seed", "1", "--out", "verdict.json"]
    cmds.append((argv, "verdict.json"))
    argv = ["counterexample", "--blocks", "4", "--seed", "1", "--format", "text"]
    cmds.append((argv, None))
    argv = ["counterexample", "--blocks", "256", "--trials", "20", "--seed", "1"]
    cmds.append((argv, None))
    cmds.extend((["classify", "--point", point], None) for point in POINTS)
    cmds.append((["classify", "--point", POINTS[2], "--format", "text"], None))
    for flavor in ("hardy", "circulant"):
        for k in (2, 3):
            for depth in (4, 5):
                for kind in ("diag", "dense"):
                    triple = f"{flavor}-{k}-{depth}-{kind}.json"
                    model = [
                        "model",
                        "--a1", _symbol_name(k, kind, "a1"),
                        "--a2", _symbol_name(k, kind, "a2"),
                        "--blocks", str(depth),
                        "--flavor", flavor,
                        "--emit", triple,
                    ]
                    falsify = ["falsify", "--triple", triple, "--trials", "20"]
                    cmds += [
                        (model, triple),
                        (["fundamental", "--triple", triple], None),
                        (falsify + ["--seed", "1"], None),
                    ]
                    if k * depth % 2 == 0:  # the split is half the dimension
                        split = ["--split", str(k * depth // 2)]
                        cmds.append((["obstruction", "--triple", triple] + split, None))
    witness = ["falsify", "--triple", "witness-8.json", "--trials", "200"]
    cmds.append((witness + ["--seed", "20250801"], None))
    witness = ["obstruction", "--triple", "witness-8.json", "--split", "32"]
    cmds.append((witness, None))
    for degree in ("2", "3"):
        varopoulos = ["falsify", "--triple", "varopoulos.json", "--trials", "100"]
        cmds.append((varopoulos + ["--degree", degree, "--seed", "3"], None))
    for b0, b1 in (("0.6", "0.8"), ("0.3-0.2j", "0.5j"), ("0", "0")):
        for degree in ("0", "2", "8"):
            cf = ["cf", "--b0", b0, "--b1", b1, "--degree", degree]
            cmds.append((cf, None))
    sup = ["sup", "--poly", "varopoulos-poly.json", "--seed", "5"]
    cmds.append((sup, None))
    cmds.extend((sup + ["--samples", n], None) for n in ("1", "1025", "40960"))
    return cmds


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_lines(cmds, directory: Path) -> list:
    """Run ``cmds`` with ``directory`` as the working directory; the lines.

    The directory must already hold the inputs the commands read.
    """
    lines = []
    here = os.getcwd()
    os.chdir(directory)
    try:
        for argv, written in cmds:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                with contextlib.redirect_stderr(io.StringIO()):
                    code = tetra(list(argv))
            command = shlex.join(["tetra", *argv])
            lines.append(f"{code} {_sha(out.getvalue().encode())} {command}")
            if written is not None:
                path = Path(written)
                digest = _sha(path.read_bytes()) if path.exists() else "missing"
                lines.append(f"file {digest} {written}")
    finally:
        os.chdir(here)
    return lines


def certify_lines() -> list:
    """The first three certify-small op documents of workload seed 1."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(PERFBENCH))
    workload = WORKLOADS["certify-small"]
    inputs = workload.make_inputs(1, False)[:3]
    return [
        f"op {_sha(workload.run(inp))} certify-small seed 1 op {i}"
        for i, inp in enumerate(inputs)
    ]


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        for line in digest_lines(commands(), Path(tmp)):
            print(line)
    for line in certify_lines():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
