"""Golden digests of cold compiles: profiles, ledger, selections, specs.

A cold ``repro.compile(src).profile(training)`` must keep producing the
same decisions, bit for bit, while its machinery is made faster.  Each
digest is a sha256 over one program's ledger JSON, selected segment ids,
table specs, and every profiled segment's execution count, key stream,
distinct keys in first-seen order and inclusive cycles.  The programs
are the five the wall-clock ``compile`` benchmark compiles, each on a
fixed prefix of its workload's default input stream.

The digests depend on neither the backend nor ``PYTHONHASHSEED``.  When
a change is *meant* to alter a decision, regenerate them with::

    PYTHONPATH=src python -m tests.reuse.test_compile_golden

and say in the change log why they moved.
"""

import dataclasses
import hashlib
import json

import pytest

import repro
from repro.workloads.registry import get_workload

# program -> (input prefix, sha256 of its compile digest)
GOLDEN = {
    "RASTA": (
        2048,
        "acaa2f0dbc6f20ee5c2d2cd5898e61c5cb23ee6e67fc0784186eb90e5f510971",
    ),
    "G721_encode": (
        2048,
        "adc787daf4bd716113285db4337c0e124739dd08eb434cd61d026ffc3fdfce43",
    ),
    "G721_decode": (
        2048,
        "08f86eabe4448cf0e60b12522ac8f52b35ca5f01ee9d7c4b331c7cc23b6faca7",
    ),
    "UNEPIC": (
        2048,
        "91765db8214dab71909455f8218eddaa8dc8b413ada3eda84289118e270ff275",
    ),
    "GNUGO": (
        4096,
        "6245190290671531efe4e0964dd97a2d3e0cc5210360d5fa99d1f2d9d3b7f392",
    ),
}


def compile_digest(name: str, prefix: int) -> str:
    workload = get_workload(name)
    result = repro.compile(workload.source).profile(
        workload.default_inputs()[:prefix]
    )
    profiles = [
        [
            seg_id,
            profile.executions,
            list(profile.key_stream),
            [list(key) for key in profile._key_ids],
            profile.inclusive_cycles,
        ]
        for seg_id, profile in sorted(result.profiles.items())
    ]
    record = {
        "ledger": result.ledger.to_json(),
        "selected": [segment.seg_id for segment in result.selected],
        "table_specs": [dataclasses.asdict(spec) for spec in result.table_specs],
        "profiles": profiles,
    }
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_compile_digest_is_unchanged(name):
    prefix, want = GOLDEN[name]
    assert compile_digest(name, prefix) == want


if __name__ == "__main__":
    for name, (prefix, _) in GOLDEN.items():
        digest = compile_digest(name, prefix)
        print(f'    "{name}": (\n        {prefix},\n        "{digest}",\n    ),')
