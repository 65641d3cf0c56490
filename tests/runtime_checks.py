"""Checks of the ``keygait`` command line that need numpy alone.

Each check is one function of a work directory. It runs ``keygait``
commands and asserts on what they print and write: a rerun writes the
same bytes, one CPU writes the same bytes as all of them, the CRLF and
line-by-line reader fallbacks and shuffled score rows give the same
scores, and each bad setting is one error line. A check runs
``cli.main`` in this process, with stdout and stderr captured, except
where the process matters. A rerun runs in a fresh child, which hashes
str under another ``PYTHONHASHSEED`` and starts with cold caches; the
one-CPU side runs in a child pinned to the first CPU of this process's
affinity mask, which takes ``os.sched_setaffinity`` (Linux).

The module imports only the standard library and ``keygait``, so it
runs where the package was installed without its test extra::

    python tests/runtime_checks.py

runs every check in a fresh temporary directory and prints one line per
check. Run from a checkout, it tests the installed package, not
``src/``. ``tests/test_runtime_checks.py`` runs each check as a tier-1
test. Checks that read the same input (the 3-subject dataset ``b``, its
Manhattan scores ``m``, its CRLF copy) make it once per work directory.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import keygait
from keygait import _processes
from keygait.cli import main
from keygait.events import read_sequences

PERTURBED = ("--shift-drop", "0.05", "--shift-transpose", "0.03", "--capslock-sub", "0.02")
NETWORKS = ("contractive", "autoencoder", "variational")

# python -m keygait.cli pinned to the CPU in argv[1], before numpy starts
# its threads, once keygait counts that one CPU
_PINNED_CLI = """\
import os, runpy, sys
os.sched_setaffinity(0, {int(sys.argv.pop(1))})
from keygait import _processes
if _processes.cpu_count() != 1:
    sys.exit(f"the pinned child counts {_processes.cpu_count()} CPUs")
runpy.run_module("keygait.cli", run_name="__main__", alter_sys=True)
"""


def _run(*argv: object) -> tuple[int, str, str]:
    """``keygait argv`` in this process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _ok(*argv: object) -> str:
    """The stdout of ``keygait argv``, which must exit 0."""
    code, out, err = _run(*argv)
    assert code == 0, f"keygait {argv[0]} exited {code}: {err}"
    return out


def _error(*argv: object) -> str:
    """The stderr of ``keygait argv``, which must exit 1 and print nothing to stdout."""
    code, out, err = _run(*argv)
    assert code == 1, f"keygait {argv[0]} exited {code}, not 1: {err}"
    assert out == "", out
    return err


def _one_line(err: str, prefix: str) -> None:
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), err


def _same(a: Path, b: Path) -> None:
    assert a.read_bytes() == b.read_bytes(), f"{a} and {b} differ"


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _child_env() -> dict[str, str]:
    """This environment, with ``keygait`` imported from where this process
    imports it, and a ``PYTHONHASHSEED`` other than this process's."""
    package_root = str(Path(keygait.__file__).resolve().parents[1])
    seed = os.environ.get("PYTHONHASHSEED", "random")
    return {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])),
        "PYTHONHASHSEED": str((int(seed) + 1) % 2**32) if seed.isdigit() else "0",
    }


@contextlib.contextmanager
def _children(*commands: tuple[object, ...], cpu: int | None = None):
    """Run each ``keygait`` command in a fresh child of its own while the
    block runs, pinned to ``cpu`` if one is given (``os.sched_setaffinity``:
    Linux; the checks give the first CPU of this process's mask, which
    need not be CPU 0); each must exit 0."""
    cli = ["-m", "keygait.cli"] if cpu is None else ["-c", _PINNED_CLI, str(cpu)]
    children = [
        subprocess.Popen(
            [sys.executable, *cli, *map(str, argv)],
            env=_child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        for argv in commands
    ]
    try:
        yield
    finally:
        ended = []
        for argv, child in zip(commands, children):
            try:
                err = child.communicate(timeout=600)[1]
            except subprocess.TimeoutExpired:
                child.kill()
                err = child.communicate()[1] + "\nkilled after 600 s"
            ended.append((argv[0], err, child.returncode))
    for command, err, code in ended:
        assert code == 0, f"keygait {command} in a child exited {code}: {err}"


@contextlib.contextmanager
def counted_forks():
    """Within the block, the pid of each child this process forks, in
    order: ``os.fork``, which ``_processes.across_processes`` calls, is
    wrapped for the length of the block."""
    pids: list[int] = []
    fork = os.fork

    def counting() -> int:
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    os.fork = counting
    try:
        yield pids
    finally:
        os.fork = fork


def _default_side(forks: list[int]) -> str:
    """Where this process can fork onto 2 or more CPUs, the default side,
    which forked the children ``forks``, must have forked one or more;
    elsewhere both sides run inline."""
    if _processes.cpu_count() < 2:
        return "both sides ran inline"
    assert forks, "the default side forked no child"
    return f"the default side forked {len(forks)} time(s)"


def _declined(paths: list[Path]) -> None:
    """Each file is one the block reader declines, so it loads through
    the line-by-line fallback."""
    for path in paths:
        assert read_sequences([path.read_bytes()]) == [None], f"the block reader takes {path}"


def _dataset(work: Path) -> Path:
    """The 3-subject dataset ``b``, perturbed so that align, truncate and
    discard see different sequences."""
    data = work / "b"
    if not data.exists():
        _ok("synth", "--out", data, "--subjects", "3", *PERTURBED)
    return data


def _manhattan(work: Path) -> Path:
    """``b``'s Manhattan scores, ``m/scores.tsv``."""
    scores = work / "m" / "scores.tsv"
    if not scores.exists():
        _ok("evaluate", "--data", _dataset(work), "--out", scores.parent, "--detector", "manhattan")
    return scores


def _crlf(work: Path) -> Path:
    """A copy of ``b`` whose event files end each line with CRLF."""
    copy = work / "crlf"
    if not copy.exists():
        shutil.copytree(_dataset(work), copy)
        for path in copy.rglob("*.txt"):
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    _declined(sorted(copy.rglob("*.txt")))
    return copy


def network_reruns(work: Path, detectors: tuple[str, ...] = NETWORKS) -> str:
    """The one training loop, on buffers reused across epochs, reruns to
    the same scores and raw scores (criterion 11); pinned to one CPU it
    fits inline, with no forked child, to the same bytes."""
    data, sides = _dataset(work), set()
    pinned = [("evaluate", "--data", data, "--out", work / f"r1-{det}", "--detector", det) for det in detectors]
    with _children(*pinned, cpu=min(os.sched_getaffinity(0))):
        for det in detectors:
            with counted_forks() as forks:
                _ok("evaluate", "--data", data, "--out", work / f"r-{det}", "--detector", det)
            sides.add(_default_side(forks))
            _ok("evaluate", "--data", data, "--out", work / f"r2-{det}", "--detector", det)
    for det in detectors:
        for rerun, name in itertools.product(("r2", "r1"), ("scores.tsv", "raw_scores.tsv")):
            _same(work / f"r-{det}" / name, work / f"{rerun}-{det}" / name)
    return "; ".join(sorted(sides))


def twelve_subjects_pinned(work: Path) -> str:
    """12 subjects are 288 event files, three blocks, so the load forks a
    reader per CPU; pinned to one CPU it reads inline, to the same bytes."""
    data, sides = work / "b12", set()
    _ok("synth", "--out", data, "--subjects", "12", *PERTURBED)
    pinned = [
        ("evaluate", "--data", data, "--out", work / "m12-1", "--detector", "manhattan"),
        ("audit", "--data", data, "--out", work / "audit12-1.tsv"),
    ]
    with _children(*pinned, cpu=min(os.sched_getaffinity(0))):
        with counted_forks() as forks:
            _ok("evaluate", "--data", data, "--out", work / "m12", "--detector", "manhattan")
        sides.add(_default_side(forks))
        with counted_forks() as forks:
            _ok("audit", "--data", data, "--out", work / "audit12.tsv")
        sides.add(_default_side(forks))
    _same(work / "m12" / "scores.tsv", work / "m12-1" / "scores.tsv")
    _same(work / "audit12.tsv", work / "audit12-1.tsv")
    return "; ".join(sorted(sides))


def crlf_scores(work: Path) -> None:
    """A CRLF copy loads through the line-by-line fallback and scores the
    same bytes."""
    _ok("evaluate", "--data", _crlf(work), "--out", work / "mc", "--detector", "manhattan")
    _same(_manhattan(work), work / "mc" / "scores.tsv")


def odd_copy_scores(work: Path) -> None:
    """A copy with a blank first line in one event file per subject and a
    double space in another: each block holding one declines whole and
    loads file by file through ``read_sequence``, to the same scores."""
    odd = work / "odd"
    shutil.copytree(_dataset(work), odd)
    edited = []
    for subject in sorted(p for p in odd.iterdir() if p.is_dir()):
        blank, spaced = sorted(subject.glob("*.txt"))[:2]
        blank.write_bytes(b"\n" + blank.read_bytes())
        spaced.write_bytes(spaced.read_bytes().replace(b" ", b"  ", 1))
        edited += [blank, spaced]
    _declined(edited)
    _ok("evaluate", "--data", odd, "--out", work / "mo", "--detector", "manhattan")
    _same(_manhattan(work), work / "mo" / "scores.tsv")


def shuffled_score_rows(work: Path) -> None:
    """A score file in any row order reads back in (subject, sample)
    order: ``eer`` on a copy with its rows shuffled (a fixed shuffle, so
    subjects interleave) prints the same lines and writes the same files."""
    scores, labels = _manhattan(work), _dataset(work) / "ground_truth.tsv"
    rows = scores.read_text(encoding="utf-8").splitlines(keepends=True)
    random.Random(0).shuffle(rows)
    subjects = [row.split("\t", 1)[0] for row in rows]
    assert subjects != sorted(subjects), "the shuffle left the subjects in order"
    shuffled = work / "shuffled.tsv"
    shuffled.write_text("".join(rows), encoding="utf-8")
    printed = _ok("eer", "--scores", scores, "--labels", labels, "--out", work / "eer-m")
    assert _ok("eer", "--scores", shuffled, "--labels", labels, "--out", work / "eer-r") == printed
    for name in ("metrics.tsv", "roc.tsv", "score_hist.csv"):
        _same(work / "eer-m" / name, work / "eer-r" / name)


def evaluate_matches_eer(work: Path, flag_sets: tuple[tuple[str, ...], ...] = ((), ("--h-s", "1e15"))) -> None:
    """``evaluate``'s metrics come from the scores it writes: ``eer`` on
    its ``scores.tsv`` prints the same ``global_eer`` and writes the same
    metrics, ROC and histogram, at the default ``--h-s`` and at one that
    writes every score as 0.500000."""
    data = _dataset(work)
    for flags in flag_sets:
        run, eer = work / "-".join(("h", *flags)), work / "-".join(("e", *flags))
        evaluated = _ok("evaluate", "--data", data, "--out", run, *flags)
        printed = _ok("eer", "--scores", run / "scores.tsv", "--labels", data / "ground_truth.tsv", "--out", eer)
        assert evaluated.splitlines() == printed.splitlines()[:1], (evaluated, printed)
        for name in ("metrics.tsv", "roc.tsv", "score_hist.csv"):
            _same(run / name, eer / name)


def alignment_reruns(work: Path) -> None:
    """A rerun with the same config, in a fresh child, writes the same
    bytes (criterion 11), under every alignment method."""
    data, methods = _dataset(work), ("align", "truncate", "discard")

    def argv(method: str, out: Path) -> tuple[object, ...]:
        return ("evaluate", "--data", data, "--out", out, "--detector", "manhattan", "--method", method)

    with _children(*(argv(method, work / f"m2-{method}") for method in methods)):
        for method in methods:
            _ok(*argv(method, work / f"m-{method}"))
    for method in methods:
        _same(work / f"m-{method}" / "scores.tsv", work / f"m2-{method}" / "scores.tsv")


def validate_reruns(work: Path) -> None:
    """``validate`` realigns the same key-name pairs in every repetition,
    from memoized mappings; a rerun in a fresh child writes the same bytes
    (criterion 11)."""
    argv = ("validate", "--data", _dataset(work), "--reps", "3", "--out")
    with _children((*argv, work / "val2")):
        _ok(*argv, work / "val1")
    for name in ("reps.tsv", "metrics.tsv"):
        _same(work / "val1" / name, work / "val2" / name)


def crlf_audit(work: Path) -> None:
    """The CRLF copy loads through the line-by-line reader to the same audit."""
    _ok("audit", "--data", _dataset(work), "--out", work / "audit.tsv")
    _ok("audit", "--data", _crlf(work), "--out", work / "audit-crlf.tsv")
    _same(work / "audit.tsv", work / "audit-crlf.tsv")


def resolution(work: Path) -> None:
    """A millisecond-true clock has no quantum: exit 1 and one error line.
    A 40 ms clock reads as 40."""
    assert _error("resolution", "--data", _dataset(work)) == "error: resolution indeterminate\n"
    coarse = work / "coarse"
    _ok("synth", "--out", coarse, "--subjects", "3", "--quantum", "40")
    assert _ok("resolution", "--data", coarse) == "estimated_resolution_ms\t40.000000\n"


def h_s_subnormal(work: Path) -> None:
    """A subnormal ``--h-s`` underflows the sd bound width: exit 1 and one
    error line."""
    argv = ("--out", work / "tiny", "--detector", "ocsvm", "--h-s", "5e-324")
    err = _error("evaluate", "--data", _dataset(work), *argv)
    _one_line(err, "error: h_s 5e-324 is too narrow")


def h_s_huge(work: Path) -> None:
    """An ``--h-s`` that maps a subject's distinct scores to one value:
    exit 1 and one error line."""
    err = _error("evaluate", "--data", _dataset(work), "--out", work / "wide", "--h-s", "1e200")
    _one_line(err, "error: h_s 1e+200 is too wide")


def reps_huge(work: Path) -> None:
    """A ``--reps`` past 10,000 would not finish: exit 1 and one error
    line, before any load."""
    err = _error("validate", "--data", work / "nope", "--reps", 10**29)
    assert err == f"error: repetitions must be at most 10000, got {10**29}\n", err


def victim_synth_reruns(work: Path) -> None:
    """A victim-sourced impostor is drawn as a genuine query; a rerun in a
    fresh child writes the same bytes."""
    argv = ("--subjects", "3", "--impostor-source", "victim", *PERTURBED)
    with _children(("synth", "--out", work / "v2", *argv)):
        _ok("synth", "--out", work / "v1", *argv)
    first, rerun = _tree(work / "v1"), _tree(work / "v2")
    assert first == rerun, f"v1 and v2 differ in {sorted(k for k in first.keys() | rerun.keys() if first.get(k) != rerun.get(k))}"


def name_length_error(work: Path) -> None:
    """A name length past 1000 keys: exit 1, one error line, and no output
    directory."""
    config = work / "long.json"
    config.write_text(json.dumps({"name_length": [6, 1000000000000]}), encoding="utf-8")
    err = _error("synth", "--out", work / "long", "--subjects", "1", "--config", config)
    _one_line(err, "error: name_length must satisfy 6 <= lo <= hi <= 1000")
    assert not (work / "long").exists()


# (command, config file text, its one error line with {config} for the
# file's path): each a setting that is gone, or a file that sets one twice
REMOVED_SETTINGS = (
    # the timing model is constants, not settings
    ("synth", {"letter_duration_ms": 90}, "unknown SynthConfig key(s): letter_duration_ms"),
    ("evaluate", {"per_position": True}, "unknown PipelineConfig key(s): per_position"),
    ("evaluate", {"ensemble_normalized": False}, "unknown PipelineConfig key(s): ensemble_normalized"),
    ("evaluate", {"detector": {"params": {"scaled": True}}}, "detector 'manhattan' takes no parameter(s) scaled"),
    # the pipeline seeds each detector
    (
        "evaluate",
        {"detector": {"name": "autoencoder", "params": {"seed": 5}}},
        "detector 'autoencoder' takes no parameter(s) seed",
    ),
    (
        "evaluate",
        '{"alignment": "truncate", "alignment": "align", "detector": {"name": "ocsvm", "name": "manhattan"}}',
        "{config}: duplicate key 'name'",
    ),
)


def removed_setting_errors(work: Path) -> None:
    """An old config that sets a removed setting, or a config file that
    repeats a key, is one error line, exit 1, and no output directory."""
    for k, (command, config, message) in enumerate(REMOVED_SETTINGS):
        path, out = work / f"removed-{k}.json", work / f"removed-{k}"
        path.write_text(config if isinstance(config, str) else json.dumps(config), encoding="utf-8")
        data = ("--data", _dataset(work)) if command == "evaluate" else ()
        err = _error(command, *data, "--out", out, "--config", path)
        assert err == f"error: {message.format(config=path)}\n", err
        assert not out.exists(), out


CHECKS = (
    network_reruns,
    twelve_subjects_pinned,
    crlf_scores,
    odd_copy_scores,
    shuffled_score_rows,
    evaluate_matches_eer,
    alignment_reruns,
    validate_reruns,
    crlf_audit,
    resolution,
    h_s_subnormal,
    h_s_huge,
    reps_huge,
    victim_synth_reruns,
    name_length_error,
    removed_setting_errors,
)


def run_all() -> None:
    """Every check in one fresh work directory, one printed line each."""
    if not __debug__:
        sys.exit("the checks are assert statements, which -O removes: run without -O")
    with tempfile.TemporaryDirectory() as tmp:
        for check in CHECKS:
            start = time.perf_counter()
            note = check(Path(tmp))
            line = f"ok  {check.__name__}  {time.perf_counter() - start:.2f} s"
            print(f"{line}  ({note})" if note else line, flush=True)


if __name__ == "__main__":
    run_all()
