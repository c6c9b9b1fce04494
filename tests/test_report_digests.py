"""The acceptance bar of a refactor, pinned: the sha256 of every stripped
`verify --suites all` report at seeds 7 and 11, with c symbolic and
c = 5/7.  A change that should not change a report must leave these
digests as they are; a change that alters a report on purpose updates
them and says which fields changed.
"""

import hashlib
import json

import pytest

from g12calc.cli import SuiteConfig, run_suites, strip_timings

REPORT_DIGESTS = {
    (7, "symbolic"):
        "d544c4865793f3ecf07c222e9ff906dd69de4d9851f00507e0902d3faf70a50f",
    (7, "5/7"):
        "0a94986ef63040d8e2741bbcae06b47dcefc27389568a935ee3dc28848f5d8f0",
    (11, "symbolic"):
        "a341605737d6395a4426424bee162082480ecef2cb13acbbbfa8a122e20e9b39",
    (11, "5/7"):
        "ad7f4cbd34b9aedd1c97977ab156bb86a15b8a8b6af130764b832a4e6d92d971",
}


@pytest.mark.parametrize("seed, c", sorted(REPORT_DIGESTS))
def test_stripped_report_digest(seed, c):
    report = strip_timings(run_suites(SuiteConfig(["all"], seed, c)))
    assert report["summary"] == {"pass": 40, "fail": 0, "skip": 0}
    text = json.dumps(report, sort_keys=True, indent=1)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        REPORT_DIGESTS[seed, c]
