"""The CLI's standard output, pinned byte for byte.

Each case is one CLI call; `DIGESTS` holds its exit code and the sha256 of
everything it printed to stdout.  The calls are `run`, `check` and
`search` with every query, mode and format on both `programs/`, and the
same on a program of the benchmark's knowledge-equiv shape (three spaces
with two shared tells each, and an ask in the first that extrudes a tell
to the root: 612 states, 366 equiv solutions).  That one sends many
solutions, sharing a few witnesses, through the JSON writer.

To print the table for the current code: `PYTHONPATH=src:tests python
tests/test_output_digests.py`.
"""

import hashlib

import pytest

from conftest import PROGRAMS
from test_cli import invoke

MESSAGE = str(PROGRAMS / "message.sccp")
SPACES = str(PROGRAMS / "spaces.sccp")

KNOWLEDGE = """\
var D4, Q5 Int
begin
[ tell(Q5 >= 31) || tell(Q5 <= 98) || ask Q5 >= 31 -> x( tell(D4 >= 57) )_1 ]_1 .
[ tell(Q5 >= 31) || tell(Q5 <= 98) ]_4 .
[ tell(Q5 >= 31) || tell(Q5 <= 98) ]_9 .
end
"""

PROGRAM_FILES = {"message": (MESSAGE, ""), "spaces": (SPACES, ""), "knowledge": ("-", KNOWLEDGE)}
QUERIES = {
    "message": (["inconsistent"], ["equiv"], ["entails", "Z > 9"]),
    "spaces": (["inconsistent"], ["equiv"], ["entails", "X >= 5"]),
    "knowledge": (["inconsistent"], ["equiv"], ["entails", "D4 > 50"]),
}
CHECKS = {
    "message": ("X > 3", "X > 2"),
    "spaces": ("Y < X", "Y < 3"),
    "knowledge": ("Q5 >= 31 and Q5 <= 98", "Q5 > 30"),
}


def _cases() -> dict:
    cases = {}
    for name, (path, stdin) in PROGRAM_FILES.items():
        for fmt in ("text", "json"):
            cases[f"{name} run {fmt}"] = (["run", path, "--format", fmt], stdin)
            cases[f"{name} check {fmt}"] = (["check", path, "--entails", *CHECKS[name], "--format", fmt], stdin)
            for q in QUERIES[name]:
                for mode in ("any", "final"):
                    argv = ["search", path, "--query", *q, "--mode", mode, "--format", fmt]
                    cases[f"{name} search {q[0]} {mode} {fmt}"] = (argv, stdin)
    return cases


CASES = _cases()

# case -> (exit code, sha256 of stdout)
DIGESTS = {
    "message run text": (0, "af0ce66bcda510d8d03fd216292971e434a7e1aa4691fa78c6f799566905a0d5"),
    "message check text": (0, "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74"),
    "message search inconsistent any text": (0, "74e462a2aa9cf7a010a1bd86689702c82f10c734ce80cdbb3c5f39cf68f1bc18"),
    "message search inconsistent final text": (0, "74e462a2aa9cf7a010a1bd86689702c82f10c734ce80cdbb3c5f39cf68f1bc18"),
    "message search equiv any text": (0, "74e462a2aa9cf7a010a1bd86689702c82f10c734ce80cdbb3c5f39cf68f1bc18"),
    "message search equiv final text": (0, "74e462a2aa9cf7a010a1bd86689702c82f10c734ce80cdbb3c5f39cf68f1bc18"),
    "message search entails any text": (0, "9f1c8ebd53baa1927b7a006c165989a3d5fabd520f23f231f2c64b44974a1a8e"),
    "message search entails final text": (0, "16c4d6a2e2846cd09dec490bab924d582b8f7ee1b077988ab3cbddb7887f991b"),
    "message run json": (0, "e026c678cf6da2126e61a759ccbd46791433138dd3877e99d74c6354db0033b6"),
    "message check json": (0, "faf72e1ad5daeaead151140db4e6cffa2025ee55ecd7194f8bd89f9190b71455"),
    "message search inconsistent any json": (0, "7a1146f677c30a2d527456954e7209bfd90bb40fde367bf6e0a838ab0882ad0b"),
    "message search inconsistent final json": (0, "7a1146f677c30a2d527456954e7209bfd90bb40fde367bf6e0a838ab0882ad0b"),
    "message search equiv any json": (0, "02891694a0eeac89225175f9dc14294e4b7235f2aab17c7497c41b67fdf62a4c"),
    "message search equiv final json": (0, "02891694a0eeac89225175f9dc14294e4b7235f2aab17c7497c41b67fdf62a4c"),
    "message search entails any json": (0, "aad932977b34d0b298792f3089917fb78da4f5a405d5d953e05f1817ab4db45b"),
    "message search entails final json": (0, "7de98d43af57abe9b45019b554bf8f8f050a2d00322906c737981823d4f7daa0"),
    "spaces run text": (0, "34ce0fc8057694c601c41101b3dbc08b01cd25336c6918134708c69a3fc69798"),
    "spaces check text": (0, "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0"),
    "spaces search inconsistent any text": (0, "5a5f517d6fa3e3c717b1da89d3a4c1791bca26d2db6bf26e684762936f52cb3f"),
    "spaces search inconsistent final text": (0, "5a5f517d6fa3e3c717b1da89d3a4c1791bca26d2db6bf26e684762936f52cb3f"),
    "spaces search equiv any text": (0, "c2f6bb391cc38b8c91c3af91b627f70871c9bb95cdc845ad4f8efb8df516d417"),
    "spaces search equiv final text": (0, "5a5f517d6fa3e3c717b1da89d3a4c1791bca26d2db6bf26e684762936f52cb3f"),
    "spaces search entails any text": (0, "d95d6a3a9f52fae6f328e44d3ab6df345ef13dd440543a0471f78a77566d28da"),
    "spaces search entails final text": (0, "f872867f1fd8d629cc04a051eaa97b3ab44efcb92c38b45da334b37951667a30"),
    "spaces run json": (0, "b20331dd5db4b6d8832d8d9c117cc8a4b672798fcb937396ebc4f20f414790db"),
    "spaces check json": (0, "185b4bd8233c3815fc6654e2fd1de4938c608ee78b1fe57d9f0cf6e12c88aa8c"),
    "spaces search inconsistent any json": (0, "f866597805f08e64a3edf93e8d792972276dc62b9245bf5d0cec321b2822c30b"),
    "spaces search inconsistent final json": (0, "f866597805f08e64a3edf93e8d792972276dc62b9245bf5d0cec321b2822c30b"),
    "spaces search equiv any json": (0, "1507acc188daeea41ca3735465834b786eb57b8790af0ab638f0c686d24563c1"),
    "spaces search equiv final json": (0, "c6608e253578ed8def16d3b4b15e0e64318d9cdc9e5b24e17c5001f616b2baf0"),
    "spaces search entails any json": (0, "06e11994ef70acc89076f44b8b44d3b59e6b6f226a202068ef4530b6a6f91aa9"),
    "spaces search entails final json": (0, "bacb03256b77849d14fcd48a85b9a2b6e62a1b178740082bb197a30b55a7c9e2"),
    "knowledge run text": (0, "4390c9621e6a44f89fd771aedacdc380082a954b5ee13058bb8c537025ea96cb"),
    "knowledge check text": (0, "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74"),
    "knowledge search inconsistent any text": (0, "ed422bb8276aa48700dadc207f9c8121d31c2ded332870415cf216e106e4e537"),
    "knowledge search inconsistent final text": (0, "ed422bb8276aa48700dadc207f9c8121d31c2ded332870415cf216e106e4e537"),
    "knowledge search equiv any text": (0, "b85e3cdf80d96ba88c3506ec0e5b03121ddc1df06ce8b71204054ac3af36a05c"),
    "knowledge search equiv final text": (0, "53c4ae4f3e6635e4400a9ce4381fac7e0b740655f1cafbb010849cb4ba50e372"),
    "knowledge search entails any text": (0, "870b9bc78a7cba08518551f4f9a3966254e9dfda038f4c49dd802f02548d1495"),
    "knowledge search entails final text": (0, "d8d1634154e61e2a5c82d0bb96f5340cb02f13e76706cd8eed842a05355e6393"),
    "knowledge run json": (0, "98e11446d6be4d43d31062a496e0a89b12273ba8028a01801da0dc5f30da03fe"),
    "knowledge check json": (0, "7bb2b20dc1908274518e1aee55a2811d381ef74ba62273aef373a50725d163cc"),
    "knowledge search inconsistent any json": (0, "03a37dc60dcfa968c7162fccfc99331d8aad91f25270bc554d5e8cda19269ab9"),
    "knowledge search inconsistent final json": (0, "03a37dc60dcfa968c7162fccfc99331d8aad91f25270bc554d5e8cda19269ab9"),
    "knowledge search equiv any json": (0, "68ccc56d042f2a175751477b7dd05408993712cfd30d30441462ff6ef044be53"),
    "knowledge search equiv final json": (0, "73b17bf31d74613963008f3e0a0c597f14dae1c003cd83656c5cbd0a45383ef8"),
    "knowledge search entails any json": (0, "a41186fb7616d0e4d8d6b30e4cbd776d3fd8362b7fd056e69b9bbc6ea73bdad8"),
    "knowledge search entails final json": (0, "260c04566b4df230731c9ca52d0b9ae9e5be8f51dbb60f75631bade08149d9a9"),
}


def _digest(case: str) -> tuple:
    argv, stdin = CASES[case]
    code, out, _ = invoke(argv, stdin)
    return code, hashlib.sha256(out.encode("utf-8")).hexdigest()


def test_every_case_is_pinned():
    assert set(DIGESTS) == set(CASES)


@pytest.mark.parametrize("case", CASES)
def test_stdout_is_unchanged(case):
    assert _digest(case) == DIGESTS[case]


if __name__ == "__main__":
    for case in CASES:
        code, digest = _digest(case)
        print(f'    "{case}": ({code}, "{digest}"),')
