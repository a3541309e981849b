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
        "e06e3ac21a61949895208966d1387c3a53d4b66b393f8aff1a7c0dda6af32214",
    "exact-pointE-xor-n8":
        "dcd73d1e6af4c86bc463b98a3f983cfd2ccb55d7e0f4cdc10be031b24c4c42e0",
    "exact-pointP-mirrored":
        "127fef74421c178be4473515432b25987a5aff18f0108fa3bcd8320d546cd1a9",
    "exact-pointP-mirrored-echo":
        "6e03b0891b1bb3cea63de77c21dfa3314575dfc759dd39d1925c8a9a8ad57f7c",
    "exact-pointP-mirrored-echo-n8":
        "4a8a4569c6b63cd018b23b1480314f4d09e286612f0e5fc3e3c984aeecfe3e04",
    "exact-pointP-xor":
        "6806313202279414902ee3209f20339e395e1fcfba87f2cce4d7ff4ab6a65185",
    "exact-pointQ-noisy":
        "3562f44064f7b74486320118c5d447f7c9c5eb5ebabadf612cf922bd775a015c",
    "exact-pointQ-xor":
        "f2c3d577c1b2a98b21098fa5a774e280ef223965452a471e90355ff8327b9131",
    "exact-pointQ-xor-csv":
        "16abaff147c7f86b1bc3a57211273ed931e1f3922e2ddd8cf8965788c051bd46",
    "exact-pointQ-xor-n8":
        "5b3655fde79cc50cdba049c1ffa3e14b03dad07b50ad8a8c4514ad3cc0257f36",
    "exact-pointT-xor":
        "bf6dbb341e86ba43cf244524cf86b3ac57fefef75d10a7c838f0570cd4ad189c",
    "exact-pointT-xor-n8":
        "0c3ed8703b3b59d0a1ad698074b950514bd20922bf76ad4f8d5dcb3cd7695f9e",
    "exact-timeshare-lone-xor":
        "86dc2a443dfe65ca3f344b3a2fcbb333589cc6ae7e96bc8429984e9a28608708",
    "exact-timeshare-xor":
        "8a093414ac6d1e610ec5d019043e3bda79921c927a3bd912d15befde3da3047a",
    "lemma1-xor-csv":
        "57c3a41e42ef11b1cf6dd11d69b67c09b5e26ab65d29d010f24089087f0aaeb1",
    "lemma1-xor-json":
        "6ff26c164cb283221ae2f9f7f8d55faa575085cda097854c9b249e8ed897734a",
    "region-xor-csv":
        "f4a4d7a7dfdb1e6d0b0f450453663017ffe44df9e4677ae28b17d1bae58b84f0",
    "region-xor-json":
        "1ac0cd3154625022ee818c53ccc8fa32a12052c753159cf0235d004f3de1f094",
    "simulate-pointE-hash-xor":
        "0f5a6946e3241624093e0986c5b6dafb9cad4be3c06939a56844fb9988b20b6f",
    "simulate-pointE-table-xor":
        "f1eb356a02ea6686bc63bcbd7e2aa7b6732e2451f4c0c2ac8d96136337e9240c",
    "simulate-pointP-hash-mirrored":
        "5f5f50cb810a2bb86c02bde4d000add6685d0aca3a9303389706573b357dca3d",
    "simulate-pointP-hash-mirrored-echo":
        "2a3a0aea354228953498875d4afd4352748d13573a8559201104c4409410da8d",
    "simulate-pointP-hash-xor":
        "4d9661b85646a3cab740587d88d88c845f441166f59bcaf1571b64db137d3eb9",
    "simulate-pointP-hash-xor-n12":
        "8e032266e0376754ce20f4c1a36285c8cb991ea110c8775a903e3cce61cbe023",
    "simulate-pointP-table-mirrored":
        "e3e2b8706ee194b73e06d9b6e9edb6a6b130e09835bd539870b2460e59508008",
    "simulate-pointP-table-mirrored-echo":
        "440cafb11d779faf826f2c86f381f50dc097b749c40d920dcf6d8a04b060028e",
    "simulate-pointP-table-xor":
        "90e658f045ba7953dbb725f92a5139bcce850d338f0fa4fa790dc0e66a95c02f",
    "simulate-pointP-table-xor-n12":
        "267f53eab4d02255fd0532a72c1eb8e12d771696be0be3f642673add9946f7fe",
    "simulate-pointQ-hash-noisy":
        "f8e0acda2fa3ed43f60f26b44178b3bf4aae7f0fe01307195ce27e4dae1c34ab",
    "simulate-pointQ-hash-xor":
        "8b5b5dc522df0961971c4b668a2c04af10a143b30c77fd6dfa564d9b2cc85634",
    "simulate-pointQ-hash-xor-n12":
        "9f3a2b0d513edaa4efc30225563c8f42de99d30a945fee994b7db64c072575ee",
    "simulate-pointQ-table-xor":
        "75faadfcb0063eb35619bda4725d4a81c5ade61154ac8843ddb94eadae6708ba",
    "simulate-pointQ-table-xor-n12":
        "37fbfa8f0a9d91dc2d8a4719901a5cfd01a6fd0d1904c3db24164db2e0d9e8e3",
    "simulate-pointT-hash-sweep-xor-csv":
        "77d6976f660478fdd4fd0d118b5692aa44e07ad28bd1baf650cf5da7acefe352",
    "simulate-pointT-hash-xor":
        "0c81df981c6795ff231528ada17e5b3442fa9bbccb0ed55f1c872fd96dd2887c",
    "simulate-pointT-table-xor":
        "ac200463805ad2c549d3dbc6d7e88a8b301ef4bbbdfe6327b98ff221dc968985",
    "simulate-timeshare-hash-xor":
        "26abf9e83284d6eb8dfd3ff4a3030771f66d41d6dc1e13b266ca62f120e567f2",
    "simulate-timeshare-lone-hash-xor":
        "56dee13c517370521d6971bcc7f5d592f7db87290573bd64d11418875cbb1bee",
    "simulate-timeshare-mixed-owner-hash-mirrored-echo":
        "3c267d58d33d2d31d461e5b7950b0027c150ee7e1fbc2ea23abaa4a3f34aad37",
    "simulate-timeshare-table-xor":
        "8c51f0992383076864cea818c9ca74b8db80b435330b6f4e27f54ca073526e46",
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
