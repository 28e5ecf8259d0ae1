"""Golden stdout digests: the records, sweeps, tables and certifications
that the CLI prints are pinned byte for byte.

A change that means to alter output must record the new digests here
(the sha256 of stdout, printed by the failing assertion) and say why.
"""

import hashlib

import pytest

from eaqmds.cli import main

GOLDEN = [
    ("enumerate --q 2..9 --t 3",
     "54fa60cc87a2326d012fe73317b1353f0f32b0e94aacdabf127b627c28a3981d"),
    ("enumerate --q 2..16 --t 3",
     "307ee7d32ed2699e1f56e70a551bba42a74f54edf59b5d98e3e2ae5aff7c7313"),
    ("enumerate --q 2..9 --t 3 --format csv",
     "74aa36e508da87aa08f8594089e936ba3d6a38be0d1b9f7b3590d1fee827698d"),
    ("verify",
     "eed63930b56d0b8088159ec1d9caf00e0d42654be0a4f0edf5ed0f1035540a6d"),
    ("verify --lemma consta",
     "3e66287d0817c41a80bed9feecd8299bca29472467c6c2b7b085ba9175a908f9"),
    ("verify --q 3,5 --t 3",
     "be3bb463f854bee8d13141090ad3377e71e0585726d723f72146f233fc4f070f"),
    ("verify --lemma consta --q 5..29",
     "0fcea327c0a4f7df8138d9b0e784c99c94e2b3236810aba8fcae88a5fd28b771"),
    ("verify --lemma rank-ers --q 2..5",
     "c17201ff7ab3f2099a78ba76b9c29c06cb6af4fc66cf4ac816b742d86b9ffc7e"),
    ("table --q 2..9 --format json",
     "f55ec188f3f8c96bfe8e4d873f70317605b7d23c5a522e91a90246b3ff9ff0f6"),
    ("distance --family ii --q 3 --d 4",
     "202e1e5650a3842e4bc25a5f5b5f0e63c12e358821b9000cdd4709c6fb0c7ada"),
    ("distance --family iii --q 5 --d 5",
     "984393f79699c9210a3f37170855c80710b77bb6c4df5de855390e91bf2e3278"),
    ("distance --family v --q 27 --t 7 --d 26",
     "dd36aac4388721325ced569a9e2b5e0df383af108c92c3ef26171f539be500c7"),
    ("distance --family iv --q 5 --d 7",
     "07b0fee45f40a1dfddb21c830d9e6957e383fd2ce1e346af2a6ab8a905d43b40"),
]


@pytest.mark.parametrize("command, digest", GOLDEN,
                         ids=[command for command, _ in GOLDEN])
def test_stdout_digest(capsys, command, digest):
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
