"""SHA-256 digests of reports, taken from earlier versions of the calculator.

The survey and check digests were taken before the survey engine classified
whole equivalence classes and before the groupoid exploration kept its
transition table.  The sweep digests were taken while the sweep heuristic
still reflected whole diagrams for every word.  They pin these outputs byte
for byte:

* ``subsystems n --max-rank 3 --include-infinite`` for n = 2..30, which
  lists the infinite classes too, so it exercises the equivalence relation
  on subsets whose groupoid fails or whose root closure exceeds its bound;
* ``groupoid check``, covering EXISTS, FAILS_AT and BOUND_EXCEEDED
  (``--max-objects 5``), whose morphism count includes the objects a
  stopped exploration never expanded;
* ``groupoid sweep --max 200``, whose composites are settled by a divisor,
  the heuristic words or the whole three-reflection word family;
* ``groupoid sweep --max 100 --verify``, which sends every composite up to
  100 through the heuristic words.

The Hilbert digests were taken while the Nichols and quadratic calculators
each kept their own constructor, budget check and series loop.  They pin
the Nichols, quadratic and compared series, exact and modular, of a YD
module of G(m,p,n) and of a cyclic diagonal braiding.
"""

import contextlib
import hashlib
import io

import pytest

from fknichols import cli

CHECK_DIGESTS = {
    "4": "6675e8d8b316d7d96263cb7d62494f1c8ba2c38ce3dfa267385d228c810efae3",
    "5": "90c90969dfef2ee39132d079e831be017d6502803b68e64afc946176713d6628",
    "6": "ebfd3bdc99a852eb921cd76264a86b9d673ac535e5aa028ffe5360e689ee872c",
    "8": "de52db0be78eb4b69a19f8d854ac16d09f22c3e9e3243f2e82fde4fbef99c4f2",
    "10": "c4526789eacc4560e6b457b246a8b227285d02383c99c9773124849c8b9df1b5",
    "8 --subset 1,4": "fb3293f7216df466a56a942479f62cad7fc7768d54e2857bbc0649d66c24481a",
    "12 --subset 1,2,3": "9efa2327b5f5d74a56419ce0f5d326625287f52cba24d1da6a79e1e7bfb367dd",
    "12 --subset 2,3,5": "2de4776e09ead4d6531e535167902e8936516df5a0ee996f0dd36f55806c0fbe",
    "30 --subset 1,2,4": "988d089f21e11fd4d02a59c48787f3fa4ee7c0d86cd8da8881f494f5b74c92ad",
    "9 --subset 1,2": "375f2744e11d4078f2f2718c70c4c1c5cb08d2bacc55b46e99a882decf22e7b0",
    "8 --max-objects 5": "11781bfff902024b117c1b75505b323aef04f83623427c7e66e03526db9ebc8c",
    "4 --max-objects 5": "7e4a155cd0d26034b2960ad7e4c735eba6418bd9f42f9c8616d6a7475a344e98",
    "12 --subset 2,3,5 --max-objects 5": "008ee527d61eedb9173c90a550a0d7c872141ca55385023093d8f7ae954a5b45",
}
SURVEY_DIGESTS = {
    2: "973c355f769b471902f942127e43409fc5999b59f2a444609741980b2ba26ca2",
    3: "5b3b6b4923420bdebda5fabae6803be77922b2da89eb5c9cea32b6f83a336a67",
    4: "69029d64c132fcceb4f77d3cc6763d74034afb4056d4cefd0ad684f01e624f01",
    5: "85129063e2e5c8b3f69be57de766613e7db5679b06ae0a0e7020de3b4af5faa4",
    6: "f2d239cf2a6cdcc15c329fdf4d2f65e5785035948cdf9775fcd23ade8bc28f54",
    7: "3be6ae518749d398ffd81b4be262a4278c64bdf1fb2686d42fb78c8a77cf6aaf",
    8: "fb8ae972fff5570f333f90665a23e19a74e9bae0f51c7db0d9a0746a97e86ad8",
    9: "6d7ec57b53aa2b1df159114bd84205cdda31fe9658171cf75a174454f6ec77db",
    10: "4307fadc2d3ad0c57afaa28b41c310e1767a1a7d88a8334281bae9f748bf643d",
    11: "86003005efee1100d5a50490b2dfd9b2feea85c48178b5ed7d1a26a61118e97c",
    12: "29cdca7fa53b2d4a524b4e74cf779a4f8856e9240a989094768e44167680a954",
    13: "52685e7f919fc4f1f5692aeb6f72b584cb49464c563b89d52d91cc8d5a82d16b",
    14: "1d1ffa5d5f8b860e1b3b2b03942d8a91e17b69566bd585760f9376849bb0264c",
    15: "3486ab6459256990c9afa54d2258156810f731da73f1b70226a4de2e74f24c69",
    16: "0e7bb5b1b446823c962f0ad5cb3fa6e9fb58575f9dd189e1efb103eb2528bb76",
    17: "3fdb3f40d3766710b899c33f553df037f536f8b48f2509c247b0906ea14164cc",
    18: "a5af05897e1484f58a0364280bae7c69d49e3ab7117557d86db723436e60e66f",
    19: "0dc4cc2a568292fa2d62248396c8abd7e6cc517a4fc85d42231ce89a0a4a39c3",
    20: "a5e9b091b0bd82ce3b33444721308ed1c92f3621490fe1102b9d22730d5b3294",
    21: "b99a2cb36902ae9e5d6c1f95072856aade6e50e70978374c8b625912c15115bb",
    22: "3776f07608863a9d4edc07400d732c593f238572c147b281bdb317cae27b8e04",
    23: "91328036423fe80e6b3e50250969f9cd0253ce3999091aefe141df899bd6e2dd",
    24: "b1cfb15fa6325e1b9500622594b7f1ca638b6b7a181d2413054a5750d95ab9f2",
    25: "74b87b2560934e612635838021e4d09687c1f779425709c2c2811c36302472bd",
    26: "842dca4556780d24f3686167fa84414017a8753c7eb33af26a8a0fdd16a4246e",
    27: "b8d5124e009cf76d153b85c6017fc236380ab42688aae45b8d52d956cc636d80",
    28: "6cc457f17631ac0d66e4d9d2570925bb3b6b0c1b0e6b9b443d176daa4e504b63",
    29: "9778ad373f1d6dbb4d876cbe78e35f69eae0d58b77ed3f65e1efe8ef65a7fda3",
    30: "6698818ca5b32a82b3d6a9ed5983a24e0ee4cdb514f413908fd11757cda75356",
}

SWEEP_DIGESTS = {
    "--max 200": "39147d3798f37810834e7ce22f1db2e870085e8b3cc34291a715d56bd982d4a8",
    "--max 100 --verify": "9f31e1e9255cdd5c882416c7748d5534f3601dd9316369443e2d2a1786ea703a",
}

HILBERT_DIGESTS = {
    "nichols hilbert --group 2 1 2 --max-degree 4": "e3fc40ac13f52587016582e959621407bd9e31466847ef1a9ca785fe9d465949",
    "nichols hilbert --cyclic 8 --subset 2,7 --max-degree 6": "da776acffe5afa63a4cf323206afc256e42ed9343057c76bd273b48246ce4280",
    "fk hilbert --group 5 5 2 --max-degree 4": "4a3e0ae99852893a9803c7a51bff50a127c46861a0a7d3d527ecc8a71ca1fa8d",
    "fk hilbert --group 5 5 2 --max-degree 4 --modular": "1d6d170053e16e0def79a9515d31aa17434989c268a07c113bb7917935a7f837",
    "hilbert compare --group 2 1 2 --max-degree 4": "a25455f994264a63eca4b54f9fe5c0a3b36954a45aef4952006fb76cbbfefc1c",
    "hilbert compare --group 2 1 2 --max-degree 4 --modular": "07e86b05a1db387fa327cd4bebe80287621d52522e967d3d41f6c231d7cfd05b",
}


def _digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv + ["--format", "json"]) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("args", sorted(CHECK_DIGESTS))
def test_groupoid_check_report_is_pinned(args):
    assert _digest(["groupoid", "check", *args.split()]) == CHECK_DIGESTS[args]


def test_include_infinite_survey_reports_are_pinned():
    for n, digest in SURVEY_DIGESTS.items():
        argv = ["subsystems", str(n), "--max-rank", "3", "--include-infinite"]
        assert _digest(argv) == digest, n


@pytest.mark.parametrize("args", sorted(SWEEP_DIGESTS))
def test_groupoid_sweep_report_is_pinned(args):
    assert _digest(["groupoid", "sweep", *args.split()]) == SWEEP_DIGESTS[args]


@pytest.mark.parametrize("args", sorted(HILBERT_DIGESTS))
def test_hilbert_report_is_pinned(args):
    assert _digest(args.split()) == HILBERT_DIGESTS[args]
