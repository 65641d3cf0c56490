"""Golden bytes for the CLI: the README quick start, run through
``keygait.cli.main`` on a 4-subject seed-0 synth, writes exactly the files
and stdout it always has.

Every written file and the whole stdout (with the output root replaced
by ``<out>``) are compared by sha256 against the digests below. A change
that moves any output byte fails here. When a change is meant to move
bytes, print the new digests with

    KEYGAIT_GOLDEN_PRINT=1 python -m pytest tests/test_golden.py -s

and say in the change's notes which outputs moved and why.
"""

import contextlib
import hashlib
import io
import os

from keygait.cli import main

FIXTURE = ["--shift-drop", "0.05", "--shift-transpose", "0.03", "--capslock-sub", "0.02"]


def _quick_start(out: str) -> list[list[str]]:
    """The README quick start, scaled down, with --out on every command
    that takes one."""
    return [
        ["synth", "--out", f"{out}/bench", "--subjects", "4", "--seed", "0", *FIXTURE],
        ["evaluate", "--data", f"{out}/bench", "--out", f"{out}/run",
         "--detector", "manhattan", "--score-norm", "sd"],
        ["ablate", "--data", f"{out}/bench", "--detector", "manhattan", "--out", f"{out}/ablate"],
        ["audit", "--data", f"{out}/bench", "--out", f"{out}/audit.tsv"],
        ["audit", "--data", f"{out}/bench"],
        ["synth", "--out", f"{out}/coarse", "--subjects", "8", "--quantum", "40"],
        ["resolution", "--data", f"{out}/coarse"],
        ["validate", "--data", f"{out}/bench", "--reps", "2", "--templates", "4",
         "--detector", "manhattan", "--out", f"{out}/mc"],
        ["eer", "--scores", f"{out}/run/scores.tsv",
         "--labels", f"{out}/bench/ground_truth.tsv", "--out", f"{out}/eer"],
    ]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(out: str) -> dict[str, str]:
    """sha256 of every file under ``out`` and of the joined stdout.

    The event files of a dataset (``<dataset>/<subject>/<sample>.txt``)
    get one digest over their sorted (path, digest) lines, so the table
    stays short; every other file gets its own.
    """
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        for argv in _quick_start(out):
            assert main(argv) == 0, argv
    digests = {"<stdout>": _digest(stdout.getvalue().replace(out, "<out>").encode())}
    events: dict[str, list[str]] = {}
    for dirpath, _, filenames in os.walk(out):
        for name in filenames:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, out)
            with open(path, "rb") as fh:
                digest = _digest(fh.read())
            parts = rel.split(os.sep)
            if len(parts) == 3 and name.endswith(".txt"):
                events.setdefault(f"{parts[0]}/*/*.txt", []).append(f"{rel}\t{digest}\n")
            else:
                digests[rel] = digest
    for key, lines in events.items():
        digests[key] = _digest("".join(sorted(lines)).encode())
    return dict(sorted(digests.items()))


GOLDEN = {
    "<stdout>": "5ba46637a4e4b9370911c88b9538cd8ed7ec8020f3384e97c6887e41f36eeb4c",
    "ablate/ablation.tsv": "bb06505e5e2d0980b371611134bf6b08cdad7d5a369e586f524b3da4d89ff617",
    "ablate/config.json": "3b3694058710e0613cf081f54e2e2ea8a7394a353693b6fe31e76c98b4b51899",
    "audit.tsv": "7e0a56ed538155f5a181356ead6913bf0b127b7c1869f3942a3f4992136ac35a",
    "bench/*/*.txt": "b832369a9abd910345e9e48bee622cc3094e8612c7b8c5946762d4c5ca8556c5",
    "bench/config.json": "d949c04646c8ff8ac2cceea6160a567628c51dd8c1ec055d336e5f51d11bf06d",
    "bench/ground_truth.tsv": "34fbceac1b4691b18c99f91a532f68e85004681b0bda54e0f937e83c6fed5756",
    "bench/manifest.tsv": "63de78a00b3b271e532b440854961a636a250d66ec4361a6b61dc48bbef49e14",
    "bench/perturbations.tsv": "d170131cd7b99a0af20cfedc7dca97db9cb568d4cce9a09d97223fafa4a1bcc1",
    "coarse/*/*.txt": "7fc152b28dbe31c30d0bf61d774ece654bbeeab5d696e2f107030fcbfbfe0c70",
    "coarse/config.json": "7d5ae7e2458baaa42bff2b2059f0deb02ee2dccabd7f49b552bd0ad0e660027b",
    "coarse/ground_truth.tsv": "fd090a962b586b2ec30654f81d8ff960e15ba40bfd5090ebb523f00faf1a5142",
    "coarse/manifest.tsv": "18cfbf7e324bb3ad84deba72c85fd562b1b812e7041efbec351851db1f739203",
    "coarse/perturbations.tsv": "df9f61cad5e3f299721d46cc0674e9acd01483278737bb3150b25e82a54dab54",
    "eer/metrics.tsv": "8407d478d2712ea3a53076d34f7080e811e0943b4cc8346e7bbce97342ceb890",
    "eer/roc.tsv": "f6d8fe2044258af14112c032c8cd8561a6de07b2947898f1d0461a86178541a0",
    "eer/score_hist.csv": "e2f5d2aa6c4741dab095387b4db93ff91c163676f8f43baa2b33435ae3ea95a3",
    "mc/config.json": "3b3694058710e0613cf081f54e2e2ea8a7394a353693b6fe31e76c98b4b51899",
    "mc/metrics.tsv": "1478c0083c7fb377521c1730d73ce05877e853cef35420b52addbbee0204dece",
    "mc/reps.tsv": "c422e3fe27d77aff7d16144c23bdd8a0b053afbe6e2fe57db24c5a7ccb4d0a2e",
    "run/config.json": "3b3694058710e0613cf081f54e2e2ea8a7394a353693b6fe31e76c98b4b51899",
    "run/metrics.tsv": "8407d478d2712ea3a53076d34f7080e811e0943b4cc8346e7bbce97342ceb890",
    "run/raw_scores.tsv": "868c9afd573ea5b089b95efb2ce7017311dd4105983028a460e93de9aff8375c",
    "run/roc.tsv": "f6d8fe2044258af14112c032c8cd8561a6de07b2947898f1d0461a86178541a0",
    "run/score_hist.csv": "e2f5d2aa6c4741dab095387b4db93ff91c163676f8f43baa2b33435ae3ea95a3",
    "run/scores.tsv": "952f52a85f406f0feba9bb5a5f55d8ba9e956cd7e6c0c01add8b298604c9dc2c",
}


def test_quick_start_bytes_match_golden(tmp_path):
    digests = _run(str(tmp_path))
    if os.environ.get("KEYGAIT_GOLDEN_PRINT"):
        for name, digest in digests.items():
            print(f'    "{name}": "{digest}",')
    assert digests.keys() == GOLDEN.keys()
    changed = sorted(name for name in GOLDEN if digests[name] != GOLDEN[name])
    assert not changed, f"output bytes changed: {changed}"


# The contractive autoencoder at its default params on the same 4-subject
# fixture. Recorded before its gradient was fused into one product per
# epoch: a change to neural training may move the last bits of the fitted
# weights, but no score the files carry at 6 decimals.
CONTRACTIVE_GOLDEN = {
    "raw_scores.tsv": "3f2b7d321195ffab042f15f15f9e3d54e8559861b877068f73112b45c860c470",
    "scores.tsv": "5ab70b307f11fa40915a4a26b9d49bdc28ca052695eb202e4b637c59c88fbf38",
}


def test_contractive_scores_match_golden(tmp_path):
    out = str(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--out", f"{out}/bench", "--subjects", "4", "--seed", "0", *FIXTURE]) == 0
        assert main(["evaluate", "--data", f"{out}/bench", "--out", f"{out}/run",
                     "--detector", "contractive", "--score-norm", "sd"]) == 0
    digests = {name: _digest((tmp_path / "run" / name).read_bytes()) for name in CONTRACTIVE_GOLDEN}
    if os.environ.get("KEYGAIT_GOLDEN_PRINT"):
        for name, digest in digests.items():
            print(f'    "{name}": "{digest}",')
    assert digests == CONTRACTIVE_GOLDEN
