"""Pinned report bytes.

Each case runs one CLI command and compares the sha256 of the report it
writes with a digest recorded from an earlier build. The cases cover every
one-shot scheme and time sharing, with hash and table codebooks, for both
`simulate` and `secrecy-exact`; `simulate` PointP and PointQ at n = 12,
where pair decoding meets many stage-1 survivors; `secrecy-exact` at
n = 8, where each decode step observes hundreds of distinct sequences;
time sharing whose first part is empty; time sharing whose parts have
different private-key owners; PointP in orientation Y (the mirrored
noisy-copy sources, where Y is the better-correlated terminal); and
`region` and `lemma1`.
Cases whose name ends in "-csv" write CSV, the others JSON. A refactor that
keeps these digests keeps every reported number and every serialized byte.

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
# time sharing whose first part gets no symbols: the second runs alone
_LONE_PART = ["--ts-schemes", "pointE,pointT", "--ts-lambda", "0"]


def _simulate(source, scheme, codebook, n=6, trials=40, parts=None):
    parts = _SCHEMES[scheme] if parts is None else parts
    return (source, ["simulate", "--scheme", scheme, *parts, "--n", str(n),
                     "--trials", str(trials), "--epsilon", "0.5", "--delta", "0.02",
                     "--seed", "5", "--codebook", codebook])


def _exact(source, scheme, n=4, codebooks=3, parts=None):
    parts = _SCHEMES[scheme] if parts is None else parts
    return (source, ["secrecy-exact", "--scheme", scheme, *parts,
                     "--n", str(n), "--trials", str(codebooks), "--epsilon", "0.5",
                     "--delta", "0.02", "--seed", "5"])


CASES = {
    **{f"simulate-{s}-{cb}-xor": _simulate("xor", s, cb)
       for s in _SCHEMES for cb in ("hash", "table")},
    **{f"exact-{s}-xor": _exact("xor", s) for s in _SCHEMES},
    "simulate-pointQ-hash-noisy": _simulate("noisy", "pointQ", "hash"),
    # pair decoding with tens to hundreds of stage-1 survivors per trial
    **{f"simulate-{s}-{cb}-xor-n12": _simulate("xor", s, cb, n=12)
       for s in ("pointP", "pointQ") for cb in ("hash", "table")},
    **{f"simulate-pointP-{cb}-{src}": _simulate(src, "pointP", cb)
       for cb in ("hash", "table") for src in ("mirrored", "mirrored-echo")},
    **{f"exact-pointP-{src}": _exact(src, "pointP", n=6, codebooks=2)
       for src in ("mirrored", "mirrored-echo")},
    "exact-pointQ-noisy": _exact("noisy", "pointQ"),
    # n = 8: hundreds of observed sequences per decode step; PointT's second
    # Y step observes the recovered z, PointE's the verbatim z
    **{f"exact-{s}-xor-n8": _exact("xor", s, n=8) for s in ("pointT", "pointQ", "pointE")},
    "exact-pointP-mirrored-echo-n8": _exact("mirrored-echo", "pointP", n=8),
    "simulate-timeshare-lone-hash-xor": _simulate("xor", "timeshare", "hash",
                                                  parts=_LONE_PART),
    "exact-timeshare-lone-xor": _exact("xor", "timeshare", parts=_LONE_PART),
    # parts with different private-key owners: PointP in orientation Y, then
    # PointE, whose owner is X
    "simulate-timeshare-mixed-owner-hash-mirrored-echo": _simulate(
        "mirrored-echo", "timeshare", "hash", n=12,
        parts=["--ts-schemes", "pointP,pointE", "--ts-lambda", "0.5"]),
    # one CSV row per blocklength
    "simulate-pointT-hash-sweep-xor-csv": (
        "xor", ["simulate", "--scheme", "pointT", "--sweep", "4,6", "--trials", "40",
                "--epsilon", "0.5", "--delta", "0.02", "--seed", "5",
                "--codebook", "hash"]),
    "exact-pointQ-xor-csv": _exact("xor", "pointQ"),
    **{f"region-xor-{fmt}": ("xor", ["region"]) for fmt in ("json", "csv")},
    **{f"lemma1-xor-{fmt}": ("xor", ["lemma1", "--n", "6", "--rs", "0.2", "--rz", "0.3",
                                     "--delta", "0.05", "--codebooks", "4",
                                     "--seed", "5"])
       for fmt in ("json", "csv")},
}

DIGESTS = {
    "exact-pointE-xor":
        "f92c7644dd65bf0609548800a6d3816356b4db6b4fb5a32b1a294c1a3809e684",
    "exact-pointE-xor-n8":
        "c550b602ab2c361ba661dcba8661c73ec6c0911576e3b275b5136711efd26b94",
    "exact-pointP-mirrored":
        "d78564537008bd3415fcf9e223b96d53d85a747390b0cc9b90c030b857661fb4",
    "exact-pointP-mirrored-echo":
        "78614a92d647770722380fad47c27165fcf1ecdeb9c0aad760df7dfae1028489",
    "exact-pointP-mirrored-echo-n8":
        "b2bacb6ac7461f757cc86fa58ec7e920f362d42175461b57ed057b79636c2ffe",
    "exact-pointP-xor":
        "3229c797d101ff61a32eefd50ad359979fe304e85b7074d07f60e0c997aff773",
    "exact-pointQ-noisy":
        "6bcfb370a558a998bec8215ab0f86cb20062e373df962f61c07e5021901b78e2",
    "exact-pointQ-xor":
        "683f07ce785486a645c581f4274c00cb621031aa6672ae8121c0d285dafa17a2",
    "exact-pointQ-xor-csv":
        "c5ca605a0ebc73fa1cefcfbde4020a20d10796f9131bb09d3b42b9551605963a",
    "exact-pointQ-xor-n8":
        "293fb3b696fc8971e9769c6ab82dd0015646e7b61c796b5991b6fb0194a7ab50",
    "exact-pointT-xor":
        "0b0c45aeedf54a5fa425ef61bdf5a319c4e592a5972e6540c82df7afa0004fc1",
    "exact-pointT-xor-n8":
        "88d5ec7032adb3ce6468adb629baa1d83c033f4cd073240cd18678cabaa021fa",
    "exact-timeshare-lone-xor":
        "c1075352de0473466c7d094512e6346194f0fcbe7735e9046c052d73cf3cf7e6",
    "exact-timeshare-xor":
        "f32be0c1a47a597de8663de646a29bd36090c9a3397f91e42ec0c4437b135a71",
    "lemma1-xor-csv":
        "57c3a41e42ef11b1cf6dd11d69b67c09b5e26ab65d29d010f24089087f0aaeb1",
    "lemma1-xor-json":
        "6ff26c164cb283221ae2f9f7f8d55faa575085cda097854c9b249e8ed897734a",
    "region-xor-csv":
        "f4a4d7a7dfdb1e6d0b0f450453663017ffe44df9e4677ae28b17d1bae58b84f0",
    "region-xor-json":
        "1ac0cd3154625022ee818c53ccc8fa32a12052c753159cf0235d004f3de1f094",
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
    "simulate-pointP-hash-xor-n12":
        "63d2edae3c5b64f290db46a4f7bea2115b776cfecb32c1252a67bc9b7c8858cc",
    "simulate-pointP-table-mirrored":
        "841750686ec75ec52b26489c7e51c0f7dead2db94b82572dba207232be77d92b",
    "simulate-pointP-table-mirrored-echo":
        "9e8bace2079432f688b867f85dae085a4f1003fdce35bb554d62720ffb9bf9da",
    "simulate-pointP-table-xor":
        "7252abd444deca05f1a066d00f2dc29a61be756285e9a9807c1432445419284e",
    "simulate-pointP-table-xor-n12":
        "8804575958c041af6e0bac414921f856197d19b7c5f4376126e524e27b7572bd",
    "simulate-pointQ-hash-noisy":
        "c8801b28263353015c9fc14331c00ab7158c5351a32b1e9eb9ddd11b1d314e5d",
    "simulate-pointQ-hash-xor":
        "4061ea5403d46518045cdf5458fef3b31350761429ebd75605cacc817de48439",
    "simulate-pointQ-hash-xor-n12":
        "927159b3bbc893a771ed45fe9371cfb45afdf25d77f2feb469479346102d9aa2",
    "simulate-pointQ-table-xor":
        "4e11c5f7629ab82ed973a621172df9a5fbf8e37910e7bb58c8fae919b4a379c8",
    "simulate-pointQ-table-xor-n12":
        "368e3cd6dfbf78844a83234c77d111b86ecbaa11781f9b31cea85b311cc49ddb",
    "simulate-pointT-hash-sweep-xor-csv":
        "f51bb02a89e17c6cbab91b9b1e6b7d55cd8fe939b2a86411cf616fb134c1f701",
    "simulate-pointT-hash-xor":
        "827a17bb6a484bf2fde155dd8f3aea92a02f3a62fbc6b40cb0785d4e8404442d",
    "simulate-pointT-table-xor":
        "f2419b087b8106aad7dd025c95465ea5a34cd986e3282a668b2a5807aa5eaa8b",
    "simulate-timeshare-hash-xor":
        "b828ece4946484f54d3966299ba5b27d6003ec65ac7934ad15c6b69b16a613b0",
    "simulate-timeshare-lone-hash-xor":
        "173f972899741554b40100345ba40e2198eb72825dbd8b938117a1f53313fcf1",
    "simulate-timeshare-mixed-owner-hash-mirrored-echo":
        "8ffdafb4a989f0a8c1c23b01280fd040a930e1d9ca5ba76eee37cf2f1c0c0d97",
    "simulate-timeshare-table-xor":
        "c17d84ba57b96c303a10e6911a1a8069a87163b60e6ecea72f195e9afd96bb5b",
}


def _report_digest(workdir: Path, name: str) -> str:
    source, argv = CASES[name]
    pmf = workdir / f"{source}.json"
    if not pmf.exists():
        dump_pmf(SOURCES[source](), pmf)
    # region takes its pmf positionally
    pmf_args = [str(pmf)] if argv[0] == "region" else ["--pmf", str(pmf)]
    out = workdir / (name + (".csv" if name.endswith("-csv") else ".json"))
    assert main([argv[0], *pmf_args, *argv[1:], "--out", str(out)]) == 0
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
