"""Report bytes on a fixed corpus, pinned by SHA-256.

The corpus is the README's `count` examples, three `oracle` calls, two
`multipliers` calls (one with both cross-checks), four `batch` files (the
second is one `rho` line at the 16-pole maximum, the third dense
`vanishings` lines of rank n-3 and n-2, the fourth one structure on every
line, so its listing is reused), one traced recursion and one
dense `count --json` whose partition listing runs to Bell-number length.
A change that is meant to keep reports byte-identical must pass unchanged;
a change that alters a report updates its digest and says which fields
changed and why.  The `multipliers` call past three poles with `--oracle`
is an error, pinned by its exit code and its bytes on stderr.
"""

import hashlib
import json

import pytest

from isoresidual.cli import main

BATCH_LINES = [
    {"mu": [2, 1, 1, 2], "rho": ["2", "-1", "-1"]},
    {"mu": [4, 2, 2, 1, 1], "vanishings": "1,2", "recursive": True},
    {"b": [2, 1, 1], "vanishings": "3", "oracle": True, "seed": 2},
    {"b": [3, 1, 2, 2, 1], "rho": ["1/2", "-1/2+i", "3", "-3", "-i"]},
    {"mu": [2, 1, 1, 2], "rho": ["0", "0", "0"]},
]

# Sixteen poles: {1,2} and {7,8,9} vanish; the real parts of {3,4} cancel
# but not their imaginary parts, and the other way round for {5,6}.
WIDE_LINES = [
    {
        "b": [2, 1, 1, 3, 1, 1, 2, 1, 1, 1, 1, 2, 1, 1, 1, 1],
        "rho": [
            "1/3+2/7i",
            "-1/3-2/7i",
            "5/11+i",
            "-5/11+3i",
            "2/13+1/9i",
            "7/17-1/9i",
            "3/5-1/2i",
            "-1/5+1/4i",
            "-2/5+1/4i",
            "19/23+5/29i",
            "-31/37",
            "41/43i",
            "-47/53-59/61i",
            "67/71+73/79i",
            "-83/89+97/101i",
            "20272439438/62986294397-3667812293/606938593i",
        ],
        "seed": 3,
    },
]

# Dense structures at n = 6, 7, 8, of rank n-3 and n-2 each; poles forced
# to zero residue have order >= 2, so no total is a plain 0.
DENSE_LINES = [
    {"b": [1, 2, 3, 1, 2, 1], "vanishings": "1,2;3,4;1,5"},
    {"b": [2, 1, 3, 1, 2, 2], "vanishings": "1;2,3;4,5;2,4"},
    {"b": [2, 1, 3, 2, 1, 1, 2], "vanishings": "1,2;3,4;5,6;1,3"},
    {"b": [3, 2, 2, 1, 2, 1, 1], "vanishings": "1;2;3;4,5;4,6"},
    {"b": [2, 3, 1, 2, 1, 2, 1, 1], "vanishings": "1;2;3,4;5,6;7,8;3,5"},
    {"b": [2, 1, 2, 2, 3, 2, 2, 2], "vanishings": "1;3;4;2,5;6,7;6,8"},
]

# One structure at n = 7 on every line (pole 7 is forced to zero residue
# and has order >= 2): three pole-order profiles, then the same generators
# in another order, which must give the same listing.
SHARED_LINES = [
    {"b": [2, 1, 1, 2, 1, 3, 2], "vanishings": "1,2;3,4;5,6"},
    {"b": [1, 2, 2, 1, 3, 1, 3], "vanishings": "1,2;3,4;5,6"},
    {"mu": [10, 3, 1, 1, 2, 2, 1, 2], "vanishings": "1,2;3,4;5,6"},
    {"b": [2, 1, 1, 2, 1, 3, 2], "vanishings": "5,6;3,4;1,2"},
]

CORPUS = [
    pytest.param(
        ("count", "--mu", "2,1,1,2", "--rho", "2,-1,-1"),
        "a8a60948725d6c78acbd10838fa0b6481d51d067557efae2f3c5da582bab6e94",
        id="count-generic",
    ),
    pytest.param(
        ("count", "--mu", "4,2,2,1,1", "--vanishings", "1,2"),
        "707a02608f6384e46a943ad4072cf2a0f7015567948bb39336b83abe0c270f66",
        id="count-one-vanishing",
    ),
    pytest.param(
        ("count", "--b", "2,2,1,1", "--vanishings", "1,2;1,3", "--recursive", "--json"),
        "cb52e89855effadf79734a88d883d5d10e8d0a8212f4d0554a620a147444b664",
        id="count-recursive-json",
    ),
    pytest.param(
        ("count", "--mu", "2,1,1,2", "--rho", "0,0,0"),
        "bc28a71cb5a924ebed25449a1013b8edc8d88850d129cc2d341c27ecc54c175b",
        id="count-zero-tuple",
    ),
    pytest.param(
        ("multipliers", "--lambdas", "0,1/2,4/3"),
        "254445e115ca9199af481e07372a5e1224509be96c501cc38b3a284d4189eda5",
        id="multipliers",
    ),
    pytest.param(
        ("batch", BATCH_LINES),
        "e19012ce6fc36fc38f15bc618709ac34bbc835e82108fe3a1bec38993713b73a",
        id="batch",
    ),
    pytest.param(
        ("batch", WIDE_LINES),
        "33aa08701c53594b00aac5ae9f5167684dfed5e26ba0f3ee0aba033a51e31f56",
        id="batch-16-poles",
    ),
    pytest.param(
        ("count", "--b", "2,2,2,2,2", "--vanishings", "1;1,3;1,4",
         "--recursive", "--trace", "--json"),
        "795da75d36b3a5b84275c373b8b3a99e3cd93d4bf7ebcc351856eab39bdf7fd9",
        id="count-recursive-trace",
    ),
    pytest.param(
        ("batch", DENSE_LINES),
        "e2cd222cad199b1f8b485451abdb949bfe7e158890c08fcbbb24573d03cc5785",
        id="batch-dense",
    ),
    pytest.param(
        ("count", "--b", "2,3,2,2,2,1,1", "--vanishings", "1;2;3;4;5", "--json"),
        "acdc69bd5e530107d6829bb75200607d8641c37257eb52fb8f8b09e06308f6ed",
        id="count-all-but-two-zero-json",
    ),
    pytest.param(
        ("oracle", "--mu", "2,1,1,2", "--rho", "2,-1,-1"),
        "cbccb4c1c90850902c0aa38faa608c4da8c3356484bba7ff3813ac820dbc417c",
        id="oracle-generic",
    ),
    pytest.param(
        ("oracle", "--mu", "2,1,1,2", "--rho", "2,-1,-1", "--json"),
        "0a868484397df2da2068a34e922001afc11787d2957f10279756e382e5e7a759",
        id="oracle-generic-json",
    ),
    pytest.param(
        ("oracle", "--b", "2,2,2", "--vanishings", "1;2", "--json"),
        "7a57dec8bf7e55635dc5cbf965d4ee9540c83542036aa9199b0aa8614aa4c2e8",
        id="oracle-zero-tuple-json",
    ),
    pytest.param(
        ("multipliers", "--lambdas", "0,1/2,4/3", "--recursive", "--oracle"),
        "598967c6ddaba8a6548ec27b4c923ab7c8fa363260246635a44e355db382a632",
        id="multipliers-cross-checks",
    ),
    pytest.param(
        ("batch", SHARED_LINES),
        "1fa49872ee87b87d7b281fd8a483fab71cb11057599ca93e660773ee5956e5f8",
        id="batch-shared-structure",
    ),
]


@pytest.mark.parametrize("argv, digest", CORPUS)
def test_report_bytes(tmp_path, capsys, argv, digest):
    path = tmp_path / "requests.jsonl"
    args = []
    for arg in argv:
        if isinstance(arg, list):  # the lines of a batch file
            path.write_text("".join(json.dumps(line) + "\n" for line in arg))
            arg = str(path)
        args.append(arg)
    assert main(args) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_multipliers_oracle_past_three_poles(capsys):
    # Four multipliers make four poles, one more than the oracle handles.
    argv = ["multipliers", "--lambdas", "0,2,1/2,3/2", "--recursive", "--oracle"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the elimination oracle handles at most three poles\n"
