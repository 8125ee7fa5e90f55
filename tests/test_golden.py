"""Byte-for-byte regression of the walk and lemma-sweep outputs.

Outputs echo their output directory, so every run happens inside a fresh
temporary directory with a relative --out, which keeps the bytes the
same wherever the suite runs.  A change that alters these outputs on
purpose records the new digests here and says why.
"""

import hashlib

import pytest

from equigraph.cli import main

CONFIG = "bfs_budget = 500\nball_radius = 4\nsamples = 20\n"

ALPHAS = {"sqrt2": "-1,1,2,1", "sqrt3": "-1,1,3,1", "phi": "-1,1,5,2"}

# (alpha, subcommand and its flags) -> sha256 of the one output file
GOLDEN = {
    ("sqrt2", "explore-I"):
        "ce3bb6205a85953ced49edfee240adb0842339d3c2e5371e5f7a38c2fa22fecb",
    ("sqrt2", "explore-J"):
        "c81ea147b8476e0fdc2d32a077c46acd5ffe4c23b9e89abc44f180558a7fb630",
    ("sqrt2", "verify-lemma"):
        "ad504d60add2facbbf919f9992ea0d26408946a65a92800509128ba299d557f1",
    ("sqrt3", "explore-I"):
        "a606ea619aaa3e3b01a04b30d56572700a5fdc3f62c8fa5a72adfdaea3a4fafb",
    ("sqrt3", "explore-J"):
        "273c18555ac627b46c54a2b89fcc406c3551097fd74aa3c2e6fc392013623a0c",
    ("sqrt3", "verify-lemma"):
        "d49c2b5f21385d35541ab7c07c9ee5c63989c51a2825edeb999003df8674c492",
    ("phi", "explore-I"):
        "39378d048c95047cc2166cc47d57c45d7ce375fbdea3807316e28c8f633bbd98",
    ("phi", "explore-J"):
        "593cb207b2c73f4e3f6a6f5c37a061f64e7da904f4d9f7fc334a4a201b78d60f",
    ("phi", "verify-lemma"):
        "75727a962d7e2f68f2891ec54ff85cb3503a25371e86fdbdc046030a3ffea8ba",
}

COMMANDS = {
    "explore-I": (["explore", "--point", "1/2", "--side", "I"], "explore.json"),
    "explore-J": (["explore", "--point", "0,1", "--side", "J"], "explore.json"),
    "verify-lemma": (["verify-lemma"], "verify_lemma.json"),
}


@pytest.mark.parametrize("alpha, command", sorted(GOLDEN))
def test_output_digest(alpha, command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(CONFIG)
    argv, name = COMMANDS[command]
    flags = ["--config", "run.cfg", f"--alpha={ALPHAS[alpha]}", "--out", "out"]
    assert main(flags + argv) == 0
    digest = hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
    assert digest == GOLDEN[(alpha, command)]
