"""Byte-for-byte regression of the walk, lemma-sweep, dynamics and figure outputs.

Outputs echo their output directory, so every run happens inside a fresh
temporary directory with a relative --out, which keeps the bytes the
same wherever the suite runs.  A change that alters these outputs on
purpose records the new digests here and says why.

Every run also proves that no decision of the command uses the point API:
AlphaContext.sign and in_interval raise, so only the integer-form sign
(AlphaContext.sign_scaled) can decide.
"""

import hashlib

import pytest

from equigraph.algebra import AlphaContext
from equigraph.cli import main

CONFIG = "bfs_budget = 500\nball_radius = 4\nsamples = 20\n"
# dynamics also reads the window and the instance count; the other
# commands keep the config their digests were recorded under
DYNAMICS_CONFIG = CONFIG + "window = 60\ninstances = 12\n"

ALPHAS = {"sqrt2": "-1,1,2,1", "sqrt3": "-1,1,3,1", "phi": "-1,1,5,2"}

# (alpha, subcommand and its flags, output file) -> sha256 of that file
GOLDEN = {
    ("sqrt2", "explore-I", "explore.json"):
        "ce3bb6205a85953ced49edfee240adb0842339d3c2e5371e5f7a38c2fa22fecb",
    ("sqrt2", "explore-J", "explore.json"):
        "c81ea147b8476e0fdc2d32a077c46acd5ffe4c23b9e89abc44f180558a7fb630",
    ("sqrt2", "verify-lemma", "verify_lemma.json"):
        "ad504d60add2facbbf919f9992ea0d26408946a65a92800509128ba299d557f1",
    ("sqrt3", "explore-I", "explore.json"):
        "a606ea619aaa3e3b01a04b30d56572700a5fdc3f62c8fa5a72adfdaea3a4fafb",
    ("sqrt3", "explore-J", "explore.json"):
        "273c18555ac627b46c54a2b89fcc406c3551097fd74aa3c2e6fc392013623a0c",
    ("sqrt3", "verify-lemma", "verify_lemma.json"):
        "d49c2b5f21385d35541ab7c07c9ee5c63989c51a2825edeb999003df8674c492",
    ("phi", "explore-I", "explore.json"):
        "39378d048c95047cc2166cc47d57c45d7ce375fbdea3807316e28c8f633bbd98",
    ("phi", "explore-J", "explore.json"):
        "593cb207b2c73f4e3f6a6f5c37a061f64e7da904f4d9f7fc334a4a201b78d60f",
    ("phi", "verify-lemma", "verify_lemma.json"):
        "75727a962d7e2f68f2891ec54ff85cb3503a25371e86fdbdc046030a3ffea8ba",
    ("sqrt2", "dynamics", "dynamics_summary.json"):
        "c6c2c953deff9c2ecfe56b41760435c5a29a12a85b10819a564633e09e196388",
    ("sqrt2", "dynamics", "trace_K3.csv"):
        "a28ea43af43809d899922838547303345fec77a007ced8738502d239876b400f",
    ("sqrt2", "dynamics", "trace_K5.csv"):
        "dab5fe0e20c3f95ad87461e099c21687d5c5b77aa8400e5de31c3e5d49971b6c",
    ("sqrt2", "dynamics", "trace_K7.csv"):
        "1da520c8d35a8ebaab3baf2efa0a0413f5f9cb76cea0d9afb0627e1339730d1c",
    ("sqrt2", "dynamics", "trace_K9.csv"):
        "5e45d38730dbf63f1bfebdc0dfdc5d29331b3ca33774a3fa55a67b9ab376eb65",
    ("sqrt3", "dynamics", "dynamics_summary.json"):
        "a2cda049ab73a51e55c75439f58ee0634d344ab2e53fea462b94df102f3e707a",
    ("sqrt3", "dynamics", "trace_K3.csv"):
        "a28ea43af43809d899922838547303345fec77a007ced8738502d239876b400f",
    ("sqrt3", "dynamics", "trace_K5.csv"):
        "dab5fe0e20c3f95ad87461e099c21687d5c5b77aa8400e5de31c3e5d49971b6c",
    ("sqrt3", "dynamics", "trace_K7.csv"):
        "1da520c8d35a8ebaab3baf2efa0a0413f5f9cb76cea0d9afb0627e1339730d1c",
    ("sqrt3", "dynamics", "trace_K9.csv"):
        "5e45d38730dbf63f1bfebdc0dfdc5d29331b3ca33774a3fa55a67b9ab376eb65",
    ("phi", "dynamics", "dynamics_summary.json"):
        "c7113dd6cec87d1fa2f110ded48930cacde6be61081c1502f02ef44d43b6743a",
    ("phi", "dynamics", "trace_K3.csv"):
        "a28ea43af43809d899922838547303345fec77a007ced8738502d239876b400f",
    ("phi", "dynamics", "trace_K5.csv"):
        "dab5fe0e20c3f95ad87461e099c21687d5c5b77aa8400e5de31c3e5d49971b6c",
    ("phi", "dynamics", "trace_K7.csv"):
        "1da520c8d35a8ebaab3baf2efa0a0413f5f9cb76cea0d9afb0627e1339730d1c",
    ("phi", "dynamics", "trace_K9.csv"):
        "5e45d38730dbf63f1bfebdc0dfdc5d29331b3ca33774a3fa55a67b9ab376eb65",
    ("sqrt2", "figure", "figure.svg"):
        "ace5d0ab13a8a04eec001d11adfe851cf4462decd189b05b7c7e826e3e074026",
    ("sqrt3", "figure", "figure.svg"):
        "042055a44a903bf9fe625c3f0f055b1131ac8f81948bb8e16880b0aa4ccb56a1",
    ("phi", "figure", "figure.svg"):
        "1bcd1d965088114cf88201ea35109b3a521221821815a2b5b973ae0b26e8ecd0",
}

COMMANDS = {
    "explore-I": ["explore", "--point", "1/2", "--side", "I"],
    "explore-J": ["explore", "--point", "0,1", "--side", "J"],
    "verify-lemma": ["verify-lemma"],
    "dynamics": ["dynamics"],
    "figure": ["figure"],
}


@pytest.mark.parametrize("alpha, command", sorted({key[:2] for key in GOLDEN}))
def test_output_digest(alpha, command, tmp_path, monkeypatch):
    def point_api(*args):
        raise AssertionError("a decision path called the point API")

    monkeypatch.setattr(AlphaContext, "sign", point_api)
    monkeypatch.setattr(AlphaContext, "in_interval", point_api)
    monkeypatch.chdir(tmp_path)
    config = DYNAMICS_CONFIG if command == "dynamics" else CONFIG
    (tmp_path / "run.cfg").write_text(config)
    flags = ["--config", "run.cfg", f"--alpha={ALPHAS[alpha]}", "--out", "out"]
    assert main(flags + COMMANDS[command]) == 0
    expected = {
        name: digest
        for (a, c, name), digest in GOLDEN.items()
        if (a, c) == (alpha, command)
    }
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (tmp_path / "out").iterdir()
    }
    assert written == expected
