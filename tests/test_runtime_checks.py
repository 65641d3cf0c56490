"""Each check in ``runtime_checks.py`` as a tier-1 test.

The checks share one work directory, as ``python tests/runtime_checks.py``
shares one, so the dataset and scores several of them read are made once.
"""

import os

import pytest

import runtime_checks

PINNED = (runtime_checks.network_reruns, runtime_checks.twelve_subjects_pinned)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("runtime")


@pytest.mark.parametrize("check", runtime_checks.CHECKS, ids=lambda check: check.__name__)
def test_check(check, work):
    if check in PINNED and not hasattr(os, "sched_setaffinity"):
        pytest.skip("pinning a child to one CPU takes os.sched_setaffinity")
    check(work)
