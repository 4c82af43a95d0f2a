"""Byte identity of CLI stdout on a small fixed corpus.

Each digest is the SHA-256 of stdout, taken before weight sets became
root-index bitmasks (the E6 translation graph's is the pin of the same call
in ``bench/cases.py``); the corpus covers both translation-graph renderings
on one top cell of each classical family, the E6 translation graph and Nash
report, the Nash report and translation graph of the A7/P4 top cell and of
a length-18 E7/P7 cell, a covexillary conjecture check, the S_6 conjecture
sweep and ``verify`` at its defaults (the last six are the pins of the same
calls in ``bench/cases.py``), so a change of representation, of an enumeration's
order or of the JSON encoder that alters any rendered byte fails here.
"""

import hashlib

import pytest

from nashblowup.cli import main

A3_TOP = ["--type", "A", "--rank", "3", "--node", "2", "--word", "2,3,1,2"]
B3_TOP = ["--type", "B", "--rank", "3", "--node", "1", "--word", "1,2,3,2,1"]
C3_TOP = ["--type", "C", "--rank", "3", "--node", "3", "--word", "3,2,3,1,2,3"]
D4_TOP = ["--type", "D", "--rank", "4", "--node", "1", "--word", "1,2,4,3,2,1"]
E6_TOP = [
    "--type", "E", "--rank", "6", "--node", "1",
    "--word", "6,5,4,3,2,4,5,6,1,3,4,5,2,4,3,1",
]
A7_TOP = [
    "--type", "A", "--rank", "7", "--node", "4",
    "--word", "4,5,6,7,3,4,5,6,2,3,4,5,1,2,3,4",
]
E7_CELL = [
    "--type", "E", "--rank", "7", "--node", "7",
    "--word", "5,6,7,4,5,6,2,4,5,3,4,1,3,2,4,5,6,7",
]

CORPUS = [
    (["peterson", *A3_TOP, "--format", "json"], 0,
     "0800cf330bcc1a72fda5397495c058693d7fd621ca887d960e34267f5d7db245"),
    (["peterson", *A3_TOP, "--format", "dot"], 0,
     "ace693e2727070c075f929e303d04be8c31760571a1e896a08437bc375421fa8"),
    (["peterson", *B3_TOP, "--format", "json"], 0,
     "42a8303f98acade92e499559c6e807f692c0e9dd3dcb7b626aaa751526794021"),
    (["peterson", *B3_TOP, "--format", "dot"], 0,
     "d1b40d155d6cc09ae5c66aa022eb20c44357476fed8c1f857e573ba3d565fd9f"),
    (["peterson", *C3_TOP, "--format", "json"], 0,
     "0cb1fb9db25a2abadf350718b5152e0f1738e26fb1062b195e287e7062d9967e"),
    (["peterson", *C3_TOP, "--format", "dot"], 0,
     "3baaf90eb0db564e72ca7db2e6a081afa69d6c421db88c5a7aa3b3b6f9cad581"),
    (["peterson", *D4_TOP, "--format", "json"], 0,
     "d00042f84ea888110936dbb3c539ee46e0f676889e17f9043ddf5b85e664a489"),
    (["peterson", *D4_TOP, "--format", "dot"], 0,
     "19bfd5fae5f9ebd95e9811b266cefe4dddc2828889352142adbbf959761c7208"),
    (["peterson", *E6_TOP, "--format", "json"], 0,
     "1183c17dac05cf9df2b2604365cf7cdb0b0cf36d7e7782228169c973a471e5da"),
    (["nash", *E6_TOP, "--format", "json"], 0,
     "226b8fa8c30734785dc10dcc456e52fbbcc290876f5f44c0a65dc73932acf68e"),
    (["nash", *A7_TOP, "--format", "json"], 0,
     "ea34bf28a2a725a6ac7ff390dc77d6b917acff90ab78bdb0215a0f9f6b46b4d9"),
    (["peterson", *A7_TOP, "--format", "json"], 0,
     "d56f57d68ede34044de69aba9240ad2b687515d8f04b699ec1dbe727a308b178"),
    (["nash", *E7_CELL, "--format", "json"], 0,
     "a7d770e26ca217cee6b7383617be12d4f0eaa6d6279c4bd1f0d673321b8d5225"),
    (["peterson", *E7_CELL, "--format", "json"], 0,
     "9acdbeb3a23841bc05ad93c2fa9a37f282f763f1f7747337a4a567bdc719f75b"),
    # (5,2,3,4,1) is the documented mismatch: exit 1 with a full report
    (["conjecture", "--perm", "5,2,3,4,1", "--format", "json"], 1,
     "d8f7d344e5b5712f3bf8f44bd543fa6fd2f1e4bf0981a16d9aa1aa97f459f998"),
    # the sweeps: the order of the enumeration shows in their bytes.  S_6
    # fails on the 20 w that contain (5,2,3,4,1)
    (["conjecture", "--n", "6", "--format", "json"], 1,
     "da69384b8c6076e3b4d23ae27fa3ec8f7fd512c218b64a004bdcac3b6a01fa1c"),
    (["verify", "--format", "json"], 0,
     "f6cd9e7fcd1dcf69f8a1895ebd02cd592a808efa1928315aaa284a11dc661a61"),
]


def _case_id(argv):
    # e.g. "peterson-B3-dot", "nash-E6-json", "conjecture-5,2,3,4,1-json",
    # "conjecture-6-json", "verify-json"
    if argv[0] == "verify":
        return f"verify-{argv[-1]}"
    what = argv[2] if argv[1] in ("--perm", "--n") else argv[2] + argv[4]
    return f"{argv[0]}-{what}-{argv[-1]}"


@pytest.mark.parametrize(
    "argv,code,digest", CORPUS, ids=[_case_id(a) for a, _, _ in CORPUS]
)
def test_stdout_digest(capsys, argv, code, digest):
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_output_file_has_the_stdout_bytes(capsys, tmp_path):
    # --output writes the bytes that stdout gets, through the same encoder
    argv = ["peterson", *E6_TOP, "--format", "json"]
    ((code, digest),) = [(c, d) for a, c, d in CORPUS if a == argv]
    target = tmp_path / "report.json"
    assert main([*argv, "--output", str(target)]) == code
    assert capsys.readouterr().out == ""
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest
