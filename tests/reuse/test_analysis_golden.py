"""Golden digests of the static analysis over every workload.

Each digest is a sha256 over one compile's decision ledger JSON (keys
sorted), its transformed program text, and every candidate segment's
``describe()`` line — what the analyses (points-to, mod/ref, liveness,
invariants, I/O functions), specialization and segment enumeration
decide, on all 14 workloads at O0 and O3, each profiled on a 512-input
prefix of its default input stream.

The digests depend on neither the backend, ``PYTHONHASHSEED`` nor how
many programs were compiled before in the same process.  When a change
is *meant* to alter an analysis result, regenerate them with::

    PYTHONPATH=src python -m tests.reuse.test_analysis_golden

and say in the change log why they moved.
"""

import hashlib
import json

import pytest

import repro
from repro.api import CompileOptions
from repro.reuse.pipeline import PipelineConfig
from repro.runtime.governor import GovernorPolicy
from repro.workloads.registry import ALL_WORKLOADS, get_workload

PREFIX = 512

# (workload, opt level) -> sha256 of its analysis digest
GOLDEN = {
    ("G721_encode", "O0"):
        "5cb09a4d847f8359420057ee0b2bf9e6a0a2424f0df00c42c26c85c5b4cccf16",
    ("G721_encode", "O3"):
        "58232dab2b7d190c85bae283eb2d585c29cb8158ff25be8bab8632bf3790ae56",
    ("G721_encode_s", "O0"):
        "d357bf95b62ad964707940867d4d94e16f2ac88e5b6fc84fec36fd58cf1abe84",
    ("G721_encode_s", "O3"):
        "ecce338f26fc2abc78f2273861998a5f11275ddc2778404684e928349b4da0cc",
    ("G721_encode_b", "O0"):
        "f7b2d5d969a7de77619beded13e72025fe1985cd4baa58f65149cc5bc2b6931d",
    ("G721_encode_b", "O3"):
        "9118388685ee1f4be74e9d718ee04372397e6d956a40dd921b817d33c02445a4",
    ("G721_decode", "O0"):
        "e3e01193213c2bc0b15c9210619f87e4957f869934a4acc3dafef06697c111c0",
    ("G721_decode", "O3"):
        "9e14e389b73fbd257b8f12beee0c43508f2cfc4535ba9a220a0bb89d45b70f82",
    ("G721_decode_s", "O0"):
        "99a3a67b9dcdf2c59443a30cbeeee67fa892492e9f0bab837dc0ed8f0b5882c8",
    ("G721_decode_s", "O3"):
        "fa14b14263571cdccfd6377bef8818073a9512866b260ed1b3f7bcd433b357c5",
    ("G721_decode_b", "O0"):
        "719980b654adcf7eccbbe7755276b1ef280fd313fa335128a0ea7e9e0365a9e2",
    ("G721_decode_b", "O3"):
        "f76ed5eadb825f7686c563f244b67e7819fd7abb4176447012353ff17686efc9",
    ("MPEG2_encode", "O0"):
        "98c10f203ba804a05f7ed630df6173d0ed10b961050c9ba3bda1d79ed65bd5ea",
    ("MPEG2_encode", "O3"):
        "ad1be032a481130771b4aafafc3a8a327c462483d3d693fda17313e0a559a385",
    ("MPEG2_decode", "O0"):
        "8e536e001cbee125e28569d83ab1f4a4668afa35a5b787dd743b51f943c8b433",
    ("MPEG2_decode", "O3"):
        "35d43d0e55c77c5cef21cf989288301577099c12b36d9cc2307c4f3f122fce5c",
    ("RASTA", "O0"):
        "db2f0897edfe02b9a6ac8433234a792a8c468f36d76417b818518af814e3c032",
    ("RASTA", "O3"):
        "4046d8eeea99d608420dea196b372819e48a9711e5376e871ea4dc69f4010d20",
    ("UNEPIC", "O0"):
        "e14225c38dde052dca9ec7c26a1141722e8c230027393d7978df3932175c100b",
    ("UNEPIC", "O3"):
        "bb3b7201ae8884e74fe430f9f0827e621ee0c107e65dd33dde990e59ca928616",
    ("GNUGO", "O0"):
        "3cbdd1682fc92589e9bf8bfffa9ea21eaddf91eb5f5f5e766164823ce952c624",
    ("GNUGO", "O3"):
        "66293986ac968272abad7cd740cd602785fa608db0902a8a5312060809d830e6",
    ("MPEG2_encode_drift", "O0"):
        "98c10f203ba804a05f7ed630df6173d0ed10b961050c9ba3bda1d79ed65bd5ea",
    ("MPEG2_encode_drift", "O3"):
        "ad1be032a481130771b4aafafc3a8a327c462483d3d693fda17313e0a559a385",
    ("UNEPIC_drift", "O0"):
        "e14225c38dde052dca9ec7c26a1141722e8c230027393d7978df3932175c100b",
    ("UNEPIC_drift", "O3"):
        "bb3b7201ae8884e74fe430f9f0827e621ee0c107e65dd33dde990e59ca928616",
    ("GNUGO_drift", "O0"):
        "3cbdd1682fc92589e9bf8bfffa9ea21eaddf91eb5f5f5e766164823ce952c624",
    ("GNUGO_drift", "O3"):
        "66293986ac968272abad7cd740cd602785fa608db0902a8a5312060809d830e6",
}


def analysis_digest(name: str, opt: str) -> str:
    workload = get_workload(name)
    config = PipelineConfig(
        opt_level=opt,
        min_executions=workload.min_executions,
        memory_budget_bytes=workload.memory_budget_bytes,
        governor=workload.governor or GovernorPolicy(),
    )
    compiled = repro.compile(workload.source, CompileOptions(opt=opt, config=config))
    result = compiled.profile(workload.default_inputs()[:PREFIX])
    text = "\n".join(
        [
            json.dumps(result.ledger.to_json(), sort_keys=True),
            compiled.transformed_source(),
            *(segment.describe() for segment in result.segments),
        ]
    )
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "name,opt",
    [(w.name, opt) for w in ALL_WORKLOADS for opt in ("O0", "O3")],
)
def test_analysis_digest_is_unchanged(name, opt):
    assert analysis_digest(name, opt) == GOLDEN[name, opt]


if __name__ == "__main__":
    for workload in ALL_WORKLOADS:
        for opt in ("O0", "O3"):
            digest = analysis_digest(workload.name, opt)
            print(f'    ("{workload.name}", "{opt}"):\n        "{digest}",')
