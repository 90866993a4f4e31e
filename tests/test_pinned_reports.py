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
  stopped exploration never expanded, and diagrams without edges (n = 3,
  and the rank-one subset {2} of n = 5; these two digests were taken while
  a separate diagram type, built from the groupoid object, wrote the JSON);
* ``subsystems n --max-rank 4`` for n = 5, 10, 20 and 30, with and without
  ``--include-infinite``, and ``pbw dim --cyclic 5`` on the triple
  (1, 2, 3) and on the full braiding; these were taken while every rank-3
  root closure still ran to its total bound and the survey still built,
  explored and closed the rank-4 subsets all of whose triples are infinite;
* ``subsystems 60 --max-rank 5``, ``subsystems 120 --max-rank 4`` and
  ``subsystems 24 --max-rank 4 --include-infinite``: composite n with many
  divisors, taken while each n was still surveyed over all its subsets
  rather than assembled from the primitive classes of its divisors;
* ``subsystems 16 --max-rank 5 --include-infinite``, the one rank-5
  survey with its infinite classes, taken while the survey still explored
  every member of a class whose groupoid exists that no exploration had
  linked directly;
* ``groupoid sweep --max 200``, whose composites are settled by a divisor,
  the heuristic words or the whole three-reflection word family;
* ``groupoid sweep --max 100 --verify``, which sends every composite up to
  100 through the heuristic words.

The survey digests for n = 8, 10, 14, 16, 20, 24, 28 and 30 were re-pinned
when the Weyl linkage stopped depending on vertex order: a groupoid object
whose vertices are a permutation of a subset, with the pair sums in that
order as edges, now links that subset.  A vertex-permuted object is the same
diagram, so it has the same root system up to a permutation of coordinates.
Those eight reports change only by merging classes (nine merges, each of two
classes that were both infinite); every other survey report, and every
default survey report for n <= 30 at rank 4 and n <= 20 at rank 5, kept its
bytes.

The relation digests were taken while ``quadratic_relations`` found
R = ker(Psi + Id) by dense elimination over Q(zeta), block by block.  They
pin the relation lists themselves: their order, keys and coefficients.  The
G(3,3,3) and G(5,5,2) digests were re-pinned when the symmetrizer stopped
splitting a block by total group degree: the relations are ordered by the
repr of their block, which is now the multidegree alone, so those two lists
came out permuted.  The relation-set digests, taken over the sorted lists
before that change, pin that the relations themselves did not change.

The Hilbert digests were taken while the Nichols and quadratic calculators
each kept their own constructor, budget check and series loop.  They pin
the Nichols, quadratic and compared series, exact and modular, of a YD
module of G(m,p,n) and of a cyclic diagonal braiding.  The two G(3,3,3)
compare digests, the benchmark's Hilbert jobs, were taken while the
quadratic cover was still computed from its ideal in T^d.  The exact
C8 (1,4) series to degree 12, the benchmark's other exact job and its case
of non-rational leads at phi = 4, was pinned while the exact combination
kernel still multiplied every entry by a convolution of the two tuples,
reduced mod Phi_8 (``_cyc_mul`` in ``tests/_oracles.py``); every product
now applies the matrix of its fixed factor.  The modular Nichols series
of G(3,3,3) to degree 5 and the modular compare of G(1,1,5), the
transpositions of S_5, to degree 7 were taken while the rank-only top level
still eliminated every group degree of a block, not one degree per
conjugacy class.  The exact C12 (1,5) series to degree 10, which asks for
matrices of more distinct factors than the ring's table holds, so that the
table is emptied during the run, was pinned while the matrices of the
signed roots of unity were kept apart from the others, in an unbounded
table, and the products c zeta^e of a basis had a table of their own.

The YD digests were taken while ``yd_module`` built each braiding entry
from a group product and the coroot action.  They pin the
``yd decompose`` reports and the braiding tables (targets and lambda
exponents) of six groups.
"""

import contextlib
import hashlib
import io

import pytest

from fknichols import _kernels_py, cli, cyclotomic, diagonal, reflection_groups, symmetrizer

CHECK_DIGESTS = {
    "3": "7682a4b7357d1370a88ca8ba81222e2cea9a0898342e0f05bab2ebc4f6ea130a",
    "5 --subset 2": "fa5ece09a8e701dc04089cae503a885c59f60a7947ee3d79cef8fa262d1f3daa",
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
    8: "430c68d1c3734859f118d553336bfe8526c3c6ac2b957b9726ae37fe16c8259e",
    9: "6d7ec57b53aa2b1df159114bd84205cdda31fe9658171cf75a174454f6ec77db",
    10: "67820ab6e31da03e50a7d359acd6f73f744911ef6073090b3b67e828cc9976e0",
    11: "86003005efee1100d5a50490b2dfd9b2feea85c48178b5ed7d1a26a61118e97c",
    12: "29cdca7fa53b2d4a524b4e74cf779a4f8856e9240a989094768e44167680a954",
    13: "52685e7f919fc4f1f5692aeb6f72b584cb49464c563b89d52d91cc8d5a82d16b",
    14: "cc39e62fdf3c3e1919647c11d246b62e2b8320915749ed45c1bb1cf7413789d8",
    15: "3486ab6459256990c9afa54d2258156810f731da73f1b70226a4de2e74f24c69",
    16: "b3fafe6bb0e3eca86b11cd24f95d8b339d31ab8924c99bd1e81023f0931d2c0d",
    17: "3fdb3f40d3766710b899c33f553df037f536f8b48f2509c247b0906ea14164cc",
    18: "a5af05897e1484f58a0364280bae7c69d49e3ab7117557d86db723436e60e66f",
    19: "0dc4cc2a568292fa2d62248396c8abd7e6cc517a4fc85d42231ce89a0a4a39c3",
    20: "a2fd9d6ceb8fd8d528464cf5b91836f89e0f809a907e19fce85e190252bd1462",
    21: "b99a2cb36902ae9e5d6c1f95072856aade6e50e70978374c8b625912c15115bb",
    22: "3776f07608863a9d4edc07400d732c593f238572c147b281bdb317cae27b8e04",
    23: "91328036423fe80e6b3e50250969f9cd0253ce3999091aefe141df899bd6e2dd",
    24: "05b569c32ecb9dba9ca718035cb7c55c63b916fb6ccce5629f40b033631e7416",
    25: "74b87b2560934e612635838021e4d09687c1f779425709c2c2811c36302472bd",
    26: "842dca4556780d24f3686167fa84414017a8753c7eb33af26a8a0fdd16a4246e",
    27: "b8d5124e009cf76d153b85c6017fc236380ab42688aae45b8d52d956cc636d80",
    28: "141c5f8ee4985b6cccd397b1b445fc067f33009d2817cf1266a85e4f890820a2",
    29: "9778ad373f1d6dbb4d876cbe78e35f69eae0d58b77ed3f65e1efe8ef65a7fda3",
    30: "11a7a65683c59e03d3bd33fa7c36990236b6f7cc8ec37b01d34a0e8e7bbe5648",
}

INFINITE_VERDICT_DIGESTS = {
    "subsystems 5 --max-rank 4": "766c156873b4298254bcdae2d29cc69bdfc0465495cbc7157269f568a3d08745",
    "subsystems 5 --max-rank 4 --include-infinite": "be81903483eafdb745d40ded9b390c2aa03fef1fc2123d4eb1b1395e470b431f",
    "subsystems 10 --max-rank 4": "da3c2e1438f5106d3ef19f4992c0a2ccfe7a1ce0f27fde9e2180e61da8d66c99",
    "subsystems 10 --max-rank 4 --include-infinite": "1b2c6d4b9910318a78509b13c428b2f2090a2c2605d17be67f41347ff627fdb2",
    "subsystems 20 --max-rank 4": "9a747b583b71b9407f496c853acb29acf0a9963af60b7fa32fb596bdf961f01d",
    "subsystems 20 --max-rank 4 --include-infinite": "def06909bc3edc396f0a759e3cd45c0f315f21153c0f6a5f2f8f39e456866379",
    "subsystems 30 --max-rank 4": "79d88f39ad0d0680088cad32e091cad9487c1110f4f3de09e8ec3d62fddd6f85",
    "subsystems 30 --max-rank 4 --include-infinite": "5f59c56a48f44dcdab27fb857d52dc9429fb347d1b23a18ab721f5d3e4318f3c",
    "pbw dim --cyclic 5 --subset 1,2,3": "4d26a912fd0840aa827b79f60b5564dddaedb0f2a046841cd8feaa1a05902fa1",
    "pbw dim --cyclic 5": "929f412daca36a8677f5dca056736a1629682a303217f68b4d10fa9e8ea7c946",
}

DIVISOR_SURVEY_DIGESTS = {
    "subsystems 60 --max-rank 5": "3ea2b36ebe7b8d1f5e8149ced2b69b40d22c03ae52605b3248808d346fa6c1a8",
    "subsystems 120 --max-rank 4": "f44c986340c04eb1df095b02c5af724c658b9c201553577a83a8b686497baba7",
    "subsystems 24 --max-rank 4 --include-infinite": "9bc33c7dde91e1bab824ae7931a5c50dac37389af562200412800783831461fc",
    "subsystems 16 --max-rank 5 --include-infinite": "29e986fba228c713fc98b8fcb50b2553601d496447e4cbfd2d0b41c44c57037b",
}

SWEEP_DIGESTS = {
    "--max 200": "39147d3798f37810834e7ce22f1db2e870085e8b3cc34291a715d56bd982d4a8",
    "--max 100 --verify": "9f31e1e9255cdd5c882416c7748d5534f3601dd9316369443e2d2a1786ea703a",
}

HILBERT_DIGESTS = {
    "nichols hilbert --group 2 1 2 --max-degree 4": "e3fc40ac13f52587016582e959621407bd9e31466847ef1a9ca785fe9d465949",
    "nichols hilbert --cyclic 8 --subset 2,7 --max-degree 6": "da776acffe5afa63a4cf323206afc256e42ed9343057c76bd273b48246ce4280",
    "nichols hilbert --cyclic 8 --subset 1,4 --max-degree 12": "c4320ff7b8a33daccd67dd216d16f1ddc57150380a3d845d883a18bf4396fdeb",
    "fk hilbert --group 5 5 2 --max-degree 4": "4a3e0ae99852893a9803c7a51bff50a127c46861a0a7d3d527ecc8a71ca1fa8d",
    "fk hilbert --group 5 5 2 --max-degree 4 --modular": "1d6d170053e16e0def79a9515d31aa17434989c268a07c113bb7917935a7f837",
    "hilbert compare --group 2 1 2 --max-degree 4": "a25455f994264a63eca4b54f9fe5c0a3b36954a45aef4952006fb76cbbfefc1c",
    "hilbert compare --group 2 1 2 --max-degree 4 --modular": "07e86b05a1db387fa327cd4bebe80287621d52522e967d3d41f6c231d7cfd05b",
    "hilbert compare --group 3 3 3 --max-degree 4": "d47401461b2c97b900545771d445e5ef4678e4cdc664b1b08141b5ad5ccd7053",
    "hilbert compare --group 3 3 3 --max-degree 4 --modular": "582c12a7661d0f49a6108828bc7ba8bba39a969014432d1ca4b6b7bcf66fafd9",
    # vectors that meet several pivots each, in both modes
    "nichols hilbert --cyclic 8 --subset 1,4 --max-degree 18 --modular --budget 50000": "1cf326e5aa26d25449f0f69b89c944f021dddfee3aa00b229ab6a51abd98a211",
    "hilbert compare --group 3 1 2 --max-degree 5": "1a0c566fa3a116b366d0b7dbe621b84f22cb1db9ceefc59b5e63818dbc0b742b",
    "nichols hilbert --cyclic 7 --subset 1,3 --max-degree 16 --modular": "99a56adadd5e191d14efb040598a8c3a646aabb965de37bf0b4a5ebd06d53d23",
    # top levels split by conjugacy class: 27 group degrees in 3 classes,
    # and the 60 odd permutations of S_5 in 3 classes
    "nichols hilbert --group 3 3 3 --max-degree 5 --modular": "1356c666a954b9d4850961f36aac084316d69c909267ef3c8dd500d828d30709",
    "hilbert compare --group 1 1 5 --max-degree 7 --modular --budget 1000000": "c1a1d7025e9c0ab7aa3ed0dbfdebfd01f566d537d8bac59cffb9dae81d599fb0",
    # an exact run that empties the ring's matrix table: 8,014 distinct
    # factors at phi = 4
    "nichols hilbert --cyclic 12 --subset 1,5 --max-degree 10": "0a2e011fec1af5ab339eb7bc99dcbfeed35ad8b448ff2a77a3cb796b8486c05c",
}

RELATION_DIGESTS = {
    "G(3,3,3)": "fe97f24e6cff95f4f0d732306e583447ab92728b9de3ac7f656c2b471d7f0940",
    "G(5,5,2)": "38f1204a8b7918aafd0177116e2c458510e11f08a6d81af37b048327db815bee",
    "C8 (1,4)": "8dcf23fccc949f0551e6bbee961c267e86ec469647f469d343a24c3d9112c923",
    "C5 full": "747d2397f0c17635c445bc13d588ce0461c62bd14460e609ff4662fb8a37cbaa",
}

YD_GROUPS = ["4 1 5", "6 2 4", "3 3 6", "2 1 2", "4 4 3", "5 1 2"]

YD_REPORT_DIGESTS = {
    "4 1 5": "7858ae6fe453fdb15bcf6b12fc78399126e132c431797fb811e58f5d345ed930",
    "6 2 4": "3ac1dbcfa767efe49fe63b796e91648f520c1ee1faa5866114d4e049d4099f79",
    "3 3 6": "5c5cfd6c3d0c517bab1898dd593ed113f5dae9df584215eca269c9bbfa90f280",
    "2 1 2": "ed4055e896e7c3f030b6abca27af3b0d60e1ce358218341ecb0693d8baf12caf",
    "4 4 3": "26472446036f74c606c719d37642eadbe1b708343e0439b02f11ccad68cd93e3",
    "5 1 2": "9eb2451cfefa0be4689146033112afa17a8d93fffdc2ba39048454d2b11fcf10",
}

YD_TABLE_DIGESTS = {
    "4 1 5": "6add6e0add1b4a6969097b10f2eabe8c4763881eb51dc516da7ec1da1de34178",
    "6 2 4": "341c11459140add9d36be2cb3a8be8c44e92a55bf8b25a875d2fffa4b31f91c9",
    "3 3 6": "a8a6a867b32f7490b4db600488e341f90e660b081663410a8e8dbebb1eefb913",
    "2 1 2": "795438204c740e96eb9925befd7d74e9c7d9a4d4445a6cf3d50cafc2271a128e",
    "4 4 3": "492328b63a9114cad67241cd4031e4b125c94799993c973d44cd7c52b87b1e52",
    "5 1 2": "d1db8df8aa5ea27feb0611dd3f00ceb0d51565ff35106fc90c3c3480f222f4e6",
}

# SHA-256 of repr(sorted(relation lists)): the relations as a set, in any order
RELATION_SET_DIGESTS = {
    "G(3,3,3)": "6ba22616b234e0c091c3b635eefe2cfc88491e8e1dd19a39db4dc2ff0a2a961e",
    "G(5,5,2)": "2312f25da18e3caf26f3f9aeb77c29d5289811c2fbc38960e83e2e8cd6c0305e",
    "C8 (1,4)": "8dcf23fccc949f0551e6bbee961c267e86ec469647f469d343a24c3d9112c923",
    "C5 full": "747d2397f0c17635c445bc13d588ce0461c62bd14460e609ff4662fb8a37cbaa",
}

RELATION_SPACES = {
    "G(3,3,3)": lambda: symmetrizer.space_from_yd(
        reflection_groups.yd_module(reflection_groups.GroupParams(3, 3, 3))
    ),
    "G(5,5,2)": lambda: symmetrizer.space_from_yd(
        reflection_groups.yd_module(reflection_groups.GroupParams(5, 5, 2))
    ),
    "C8 (1,4)": lambda: symmetrizer.space_from_diagonal(diagonal.cyclic_braiding(8, [1, 4])),
    "C5 full": lambda: symmetrizer.space_from_diagonal(diagonal.full_cyclic_braiding(5)),
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


@pytest.mark.parametrize("args", sorted(INFINITE_VERDICT_DIGESTS))
def test_infinite_verdict_reports_are_pinned(args):
    assert _digest(args.split()) == INFINITE_VERDICT_DIGESTS[args]


@pytest.mark.parametrize("args", sorted(DIVISOR_SURVEY_DIGESTS))
def test_divisor_survey_reports_are_pinned(args):
    assert _digest(args.split()) == DIVISOR_SURVEY_DIGESTS[args]


@pytest.mark.parametrize("args", sorted(SWEEP_DIGESTS))
def test_groupoid_sweep_report_is_pinned(args):
    assert _digest(["groupoid", "sweep", *args.split()]) == SWEEP_DIGESTS[args]


@pytest.mark.parametrize("args", sorted(HILBERT_DIGESTS))
def test_hilbert_report_is_pinned(args):
    assert _digest(args.split()) == HILBERT_DIGESTS[args]


@pytest.mark.parametrize(
    "args",
    [
        "hilbert compare --group 3 3 3 --max-degree 4",
        "nichols hilbert --cyclic 8 --subset 1,4 --max-degree 12",
    ],
)
def test_emptying_the_matrix_table_changes_no_report(args, monkeypatch):
    # a table of two matrices is emptied again and again in the middle of
    # every elimination, the matrices of the roots of unity included; the
    # rings built under the small bound are dropped before and after
    monkeypatch.setattr(_kernels_py, "_MATRICES", 2)
    cyclotomic.zeta_ring.cache_clear()
    try:
        assert _digest(args.split()) == HILBERT_DIGESTS[args]
    finally:
        cyclotomic.zeta_ring.cache_clear()


def _relation_items(name):
    rels = symmetrizer.quadratic_relations(RELATION_SPACES[name]())
    return [sorted((k, tuple(str(c) for c in v.coeffs)) for k, v in rel.items()) for rel in rels]


@pytest.mark.parametrize("name", sorted(RELATION_DIGESTS))
def test_quadratic_relations_are_pinned(name):
    text = repr(_relation_items(name))
    assert hashlib.sha256(text.encode()).hexdigest() == RELATION_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(RELATION_SET_DIGESTS))
def test_quadratic_relation_sets_are_pinned(name):
    text = repr(sorted(_relation_items(name)))
    assert hashlib.sha256(text.encode()).hexdigest() == RELATION_SET_DIGESTS[name]


@pytest.mark.parametrize("group", YD_GROUPS)
def test_yd_decompose_report_is_pinned(group):
    assert _digest(["yd", "decompose", *group.split()]) == YD_REPORT_DIGESTS[group]


@pytest.mark.parametrize("group", YD_GROUPS)
def test_yd_braiding_tables_are_pinned(group):
    params = reflection_groups.GroupParams(*map(int, group.split()))
    module = reflection_groups.yd_module(params)
    text = repr((module.braid_targets, module.braid_exponents))
    assert hashlib.sha256(text.encode()).hexdigest() == YD_TABLE_DIGESTS[group]
