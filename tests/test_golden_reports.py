"""Pinned report bytes.

Each case runs one CLI command and compares the sha256 of the report it
writes with a digest recorded from an earlier build. The cases cover every
one-shot scheme and time sharing, with hash and table codebooks, for both
`simulate` and `secrecy-exact`, plus PointP in orientation Y (the mirrored
noisy-copy sources, where Y is the better-correlated terminal). A refactor
that keeps these digests keeps every reported number.

To print the digests of the current build:
    PYTHONPATH=src python tests/test_golden_reports.py
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import mirrored_noisy_copy
from skpk.cli import main
from skpk.sources import dump_pmf, noisy_copy_triple, xor_triple


# at n <= 6 every window of the first mirrored source is empty, so its PointP
# decodes all fail; Z = Y in the second, whose decodes succeed in part
SOURCES = {"xor": xor_triple, "noisy": lambda: noisy_copy_triple(0.3, 0.1),
           "mirrored": lambda: mirrored_noisy_copy(0.3, 0.1),
           "mirrored-echo": lambda: mirrored_noisy_copy(0.25, 0.0)}

_SCHEMES = {"pointE": [], "pointT": [], "pointP": [], "pointQ": [],
            "timeshare": ["--ts-schemes", "pointP,pointQ", "--ts-lambda", "0.5"]}


def _simulate(source, scheme, codebook, n=6, trials=40):
    return (source, ["simulate", "--scheme", scheme, *_SCHEMES[scheme], "--n", str(n),
                     "--trials", str(trials), "--epsilon", "0.5", "--delta", "0.02",
                     "--seed", "5", "--codebook", codebook])


def _exact(source, scheme, n=4, codebooks=3):
    return (source, ["secrecy-exact", "--scheme", scheme, *_SCHEMES[scheme],
                     "--n", str(n), "--trials", str(codebooks), "--epsilon", "0.5",
                     "--delta", "0.02", "--seed", "5"])


CASES = {
    **{f"simulate-{s}-{cb}-xor": _simulate("xor", s, cb)
       for s in _SCHEMES for cb in ("hash", "table")},
    **{f"exact-{s}-xor": _exact("xor", s) for s in _SCHEMES},
    "simulate-pointQ-hash-noisy": _simulate("noisy", "pointQ", "hash"),
    **{f"simulate-pointP-{cb}-{src}": _simulate(src, "pointP", cb)
       for cb in ("hash", "table") for src in ("mirrored", "mirrored-echo")},
    **{f"exact-pointP-{src}": _exact(src, "pointP", n=6, codebooks=2)
       for src in ("mirrored", "mirrored-echo")},
    "exact-pointQ-noisy": _exact("noisy", "pointQ"),
}

DIGESTS = {
    "exact-pointE-xor":
        "f92c7644dd65bf0609548800a6d3816356b4db6b4fb5a32b1a294c1a3809e684",
    "exact-pointP-mirrored":
        "d78564537008bd3415fcf9e223b96d53d85a747390b0cc9b90c030b857661fb4",
    "exact-pointP-mirrored-echo":
        "78614a92d647770722380fad47c27165fcf1ecdeb9c0aad760df7dfae1028489",
    "exact-pointP-xor":
        "3229c797d101ff61a32eefd50ad359979fe304e85b7074d07f60e0c997aff773",
    "exact-pointQ-noisy":
        "f4bb0257b1029089f6377ad6d80210e517472330428746be8494aabb1e7cc024",
    "exact-pointQ-xor":
        "683f07ce785486a645c581f4274c00cb621031aa6672ae8121c0d285dafa17a2",
    "exact-pointT-xor":
        "0b0c45aeedf54a5fa425ef61bdf5a319c4e592a5972e6540c82df7afa0004fc1",
    "exact-timeshare-xor":
        "f32be0c1a47a597de8663de646a29bd36090c9a3397f91e42ec0c4437b135a71",
    "simulate-pointE-hash-xor":
        "db61fb74803349de07e9c3cef8f857f0ab742c3de4d263b07e1d8171e7faa609",
    "simulate-pointE-table-xor":
        "111b91d6e07bd0fe59d90a937446ee3631c6b8cd290e431992ccaec03d8d5969",
    "simulate-pointP-hash-mirrored":
        "ef3fd5fff4b2b36f92c538a95355dfee2b62958284c0e4780ff3b44982029a0c",
    "simulate-pointP-hash-mirrored-echo":
        "80348f333a4cf27bf1eaa84d9a6cdf016ce55c91355db782b0ae4845ee2ae380",
    "simulate-pointP-hash-xor":
        "9ee7e53bca7cf1d54371ae9f3f8c043fde43e83d1ea14ffec057106e923b9acb",
    "simulate-pointP-table-mirrored":
        "841750686ec75ec52b26489c7e51c0f7dead2db94b82572dba207232be77d92b",
    "simulate-pointP-table-mirrored-echo":
        "9e8bace2079432f688b867f85dae085a4f1003fdce35bb554d62720ffb9bf9da",
    "simulate-pointP-table-xor":
        "7252abd444deca05f1a066d00f2dc29a61be756285e9a9807c1432445419284e",
    "simulate-pointQ-hash-noisy":
        "c8801b28263353015c9fc14331c00ab7158c5351a32b1e9eb9ddd11b1d314e5d",
    "simulate-pointQ-hash-xor":
        "4061ea5403d46518045cdf5458fef3b31350761429ebd75605cacc817de48439",
    "simulate-pointQ-table-xor":
        "4e11c5f7629ab82ed973a621172df9a5fbf8e37910e7bb58c8fae919b4a379c8",
    "simulate-pointT-hash-xor":
        "827a17bb6a484bf2fde155dd8f3aea92a02f3a62fbc6b40cb0785d4e8404442d",
    "simulate-pointT-table-xor":
        "f2419b087b8106aad7dd025c95465ea5a34cd986e3282a668b2a5807aa5eaa8b",
    "simulate-timeshare-hash-xor":
        "b828ece4946484f54d3966299ba5b27d6003ec65ac7934ad15c6b69b16a613b0",
    "simulate-timeshare-table-xor":
        "c17d84ba57b96c303a10e6911a1a8069a87163b60e6ecea72f195e9afd96bb5b",
}


def _report_digest(workdir: Path, name: str) -> str:
    source, argv = CASES[name]
    pmf = workdir / f"{source}.json"
    if not pmf.exists():
        dump_pmf(SOURCES[source](), pmf)
    out = workdir / f"{name}.json"
    assert main([argv[0], "--pmf", str(pmf), *argv[1:], "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_every_case_is_pinned():
    assert set(DIGESTS) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_unchanged(name, tmp_path):
    assert _report_digest(tmp_path, name) == DIGESTS.get(name)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            sys.stdout.write(f'    "{case}":\n        "{_report_digest(Path(tmp), case)}",\n')
