"""Pinned witnesses: sha256 digests of construction output that must not
change when the construction code is reorganised.

Three kinds of entry, one test:

- `construct`: the stdout of `orient4 construct --explain --verify` on one
  routed spec per case id.  The branch order of every mkspec spec is
  reversed, so classes are interleaved and slot order differs from user
  order; two hand-written specs add larger leaf multiplicities.
- `json`: the stdout of `orient4 construct --json --explain` on the same
  routed specs, so the machine-readable block sizes, zeros included, are
  pinned as well as the text form.
- `core`: the direction bits of the core `build_base_orientation` returns
  for every acceptance `REFERENCE_SETS` entry and every `CORE_CASES` entry,
  including the recipes those entries force on specs the router would send
  elsewhere.

A third test pins the cores of a whole grid of count tuples, so that every
promotion and split route is covered, not only one spec per case; a
fourth checks on that grid the extension lemma's hypothesis on each core,
which `construct_optimal` does not sweep when the lift passes.

To re-pin after an intended change of witnesses, print
`_digest(_produce(...))` for each entry and say why in CHANGES.md.
"""

import hashlib
import itertools
import json

import pytest

from test_acceptance import REFERENCE_SETS
from test_constructions import CORE_CASES, build_case, mkspec

from orient4.build import build_base_orientation, construct_optimal
from orient4.classify import C0, CASE_IDS, classify
from orient4.cli import main
from orient4.digraph import diameter, shortest_cycle_lengths
from orient4.errors import ConstructionError
from orient4.tree import BranchSpec, TreeSpec, _blocks, spec_to_dict


def _reversed(spec):
    return TreeSpec(spec.s, spec.branches[::-1])


ROUTED = [
    ("P34", _reversed(mkspec(2, a4=2, e=2))),
    ("P35_D1", _reversed(mkspec(5, a2=4))),
    ("P35_D2", _reversed(mkspec(5, a2=4, e=2))),
    ("P35_D3", _reversed(mkspec(5, a2=6))),
    ("P35_D4", _reversed(mkspec(5, a2=9, e=2))),
    ("P39", _reversed(mkspec(4, a3=6, a4=2, e=2))),
    ("P310", _reversed(mkspec(4, a2=4, a4=2))),
    ("P310", TreeSpec(4, (BranchSpec(4, (2,)), BranchSpec(2, (3, 2)),
                          BranchSpec(2, ()), BranchSpec(4, (2,)),
                          BranchSpec(2, (2,)), BranchSpec(2, (2,)),
                          BranchSpec(4, (2, 2)), BranchSpec(2, (2,))))),
    ("P311", _reversed(mkspec(4, a2=2, a3=1, e=1))),
    ("P312", _reversed(mkspec(4, a2=1, a3=3, a4=2))),
    ("P312", _reversed(mkspec(6, a2=12, a3=8, a4=2, e=2))),
    ("P41", _reversed(mkspec(3, a3=4, a4=2, e=2))),
    ("P43_D1", _reversed(mkspec(3, a2=2, a3=1))),
    ("P43_D2", _reversed(mkspec(3, a2=1, a3=2, e=2))),
    ("P43_D3", _reversed(mkspec(5, a2=6, a3=7, e=2))),
    ("P411", _reversed(mkspec(3, a2=2, a4=2, e=2))),
    ("P411", TreeSpec(3, (BranchSpec(2, (5, 3)), BranchSpec(6, (2, 2, 4)),
                          BranchSpec(2, (7,)), BranchSpec(4, ())))),
    ("P413", _reversed(mkspec(3, a2=1, a3=2, a4=2, e=2))),
    ("Thm16a", TreeSpec(3, (BranchSpec(3, (3,)), BranchSpec(2, (2, 4))))),
]

ENTRIES = (
    [(f"construct-{j}-{case}", "construct", case, spec)
     for j, (case, spec) in enumerate(ROUTED)]
    + [(f"json-{j}-{case}", "json", case, spec)
       for j, (case, spec) in enumerate(ROUTED)]
    + [(f"core-ref{j}-{case}", "core", case, spec)
       for j, (case, spec) in enumerate(REFERENCE_SETS)]
    + [(f"core-case{j}-{case}", "core", case, spec)
       for j, (spec, case) in enumerate(CORE_CASES)])

DIGESTS = {
    "construct-0-P34":
        "a9d5bac9b9600744716300ad979219540a0237b2e655e37f6233b4132ffca0df",
    "construct-1-P35_D1":
        "2753f7f673bbf60ad83bff11529bf3e60da02b1abc9375c2d1deea2692113ffb",
    "construct-2-P35_D2":
        "be0201712be4882c9f4fa9f6fee81677a99dfb62e6b1ceffed0e68bd065266f8",
    "construct-3-P35_D3":
        "242780ea0cfc7a21639ccc95aec670032d472b44f672e0d5d831642f5e301781",
    "construct-4-P35_D4":
        "4365ff6393e3b94174a46c62ca23ce6d74b2f506fed86717be1447edcb0bacec",
    "construct-5-P39":
        "1c70f8041df5e7d30cf0a2c82cb561c105509dda33829c583dc23c04351dbc70",
    "construct-6-P310":
        "1e6c9021f3cfeddf4819b8ca439cc6203c4e0df45a75b44bb7bc2733b4da2645",
    "construct-7-P310":
        "0152ed2568664bb8a992debaa2107fdf5c5a4e5ed773684259a2cac035f3e5bb",
    "construct-8-P311":
        "a8b5f3a1cb9e313af003d6d2eefa8a43d2f93f849b95586887f9321f41888613",
    "construct-9-P312":
        "a3b016e5571395179fa4929209cb6923154498ab9bb724fcff624674de00202d",
    "construct-10-P312":
        "322ffb3139aea4954b3314c1fd29d2dd99018930a418b96da24081244ec087dc",
    "construct-11-P41":
        "3f0903601fa53662ca52ed95619f37aed788cd84bd5cb3136bc28506ccce2aef",
    "construct-12-P43_D1":
        "0e55ce7d4c5d875f16c3c385be82c3acc9b89274c8b47515e29c3c0e7420c18a",
    "construct-13-P43_D2":
        "611110373515c85a6da3c9d20095b3bf68daae2f0434e1ac39319478babcf758",
    "construct-14-P43_D3":
        "d82f8235a232d8ac4c1a95769caed1074ec210c5bea5fb09f1328189c717a4d1",
    "construct-15-P411":
        "df69029d9b355279403055d02b869173bc38933b45975a54150033d6d44adce0",
    "construct-16-P411":
        "4faf54284dbf457c00f3254aae7746fb0ca01ed38f1a1dff9343d2bf06c1ed3d",
    "construct-17-P413":
        "62be547593cb06a5512feb3265437faaa28ab02b876a41b0110ebe5ed342c289",
    "construct-18-Thm16a":
        "60de43f48751b920892a44eb316548e47dd4980b2a5d54d27f81d0ba4b2e9a70",
    "json-0-P34":
        "52c1fa8076aa77f6cee25f14e2e86dcf46b01b702d00fe53d264b289688ae002",
    "json-1-P35_D1":
        "ed7979b22cb36ff50a26143ef25894daa71515b2bac6ef9fff5455766ced10c8",
    "json-2-P35_D2":
        "ebee521cdcb0a2c70aeb7dfd37c66ef9a819d0978e133701f604e9e26799bb8c",
    "json-3-P35_D3":
        "a2e27feb75a92cca751593613b703e10229cee0064417d47ea6a71ae12aed66a",
    "json-4-P35_D4":
        "7d1e8cff3ad54fcfe0e224d99251e2cef40520ca9a76cbed7ec00a2badcbe2e3",
    "json-5-P39":
        "d60e3f6fc7494ef72947c0ceab70b3f462bd43dd741125b49e45d9c49fa5c563",
    "json-6-P310":
        "9b09a985209b5284cd699daa24a4b279db88f687b2d0aad7fb9af00b62e8780d",
    "json-7-P310":
        "31d491513474049aefed8bd3140e1824b02cdf2fd7de2a01ee095f3b587ba502",
    "json-8-P311":
        "524117555c136296832edf94f2c3e2854a38479fb226deded70d1b65bd994e9a",
    "json-9-P312":
        "18517a9801984fb39974f14060512e4deca80e121e3bcd7123acfd77b5758329",
    "json-10-P312":
        "0223ee6f6c17106ff46870158e954101701130ce3f1caa62f5851d8d8a95ac6b",
    "json-11-P41":
        "ac5f4ea6b3fb4b243c51c8d64a065fcfdc33455c94c551b78dadf227dd65e90e",
    "json-12-P43_D1":
        "9ef3a1b4e0d9f602d1f2b5f002c113eb2b5fbae93c18436e439530fc823162e8",
    "json-13-P43_D2":
        "69b01795675eb88d92953d0c7b4255a72c12482d5e0e1a5d4c8ac23772e2f036",
    "json-14-P43_D3":
        "4c40a9bcc7cad3a55578256f5e42fd662bf4e0ec659b5ee1299381f6275ef691",
    "json-15-P411":
        "958585c2fa4ccd68f10373e8b3229e8deb1be1eb685aad0b381b09135bec827b",
    "json-16-P411":
        "3e8f2f2fc17b680fe09c1cd020698ce8e873d8c4da2a777c8bf6011b9ec9db6b",
    "json-17-P413":
        "d441e689aa1b6f6beaed2ec95fb76258c76505440a24bcd696e4dce40e05135a",
    "json-18-Thm16a":
        "9caa93101dd5b2f1a2487de02006ee7b7d6d402310c82c108556b82e2c0b79d7",
    "core-ref0-P34":
        "1ea26385562ed0b0af0a896220c69b6507ad6de283f800e236c3ddde759e4370",
    "core-ref1-P35_D1":
        "4824aed8d948fd30f76e3bad1edd2c47f71d89ba4a16b3896c6bada53d21c301",
    "core-ref2-P35_D2":
        "a8deffea2ba33adaa1c9073a1b194c9ae273eef9b5273d17c450d58093a72dc5",
    "core-ref3-P35_D3":
        "4d8756b1b7909e4354b9fdf88a0fff8e35e9c28d2667e8f1a53581d60deba474",
    "core-ref4-P35_D4":
        "046fd24aee65004a473e5ddeb7a550f25e61a907f36a0eb9f8f45cb9199d1950",
    "core-ref5-P39":
        "3f6b85aaf6fbc4400e12acfa0583622158b0a403b6514c56f8d8fcbf22a3968d",
    "core-ref6-P310":
        "9b65dee022113a6e94ba158035a5ffd4d1966a4c28ac395f1d7267d5dd14ba57",
    "core-ref7-P312":
        "b32e8465b3a1e75dee34407e229e3368f56c7ecf5c5f41f514bc8e1506d474e4",
    "core-ref8-P41":
        "ba3c14fd704024420ef5c4a820ba4fa3e3db6634b28ad59425ae4d8087939161",
    "core-ref9-P43_D1":
        "46699e65f26f82af68b1757b57f6749c3f587d6b199428e55d9dd64cfc795e4a",
    "core-ref10-P43_D2":
        "a8a080208320ecc5b73efa9364024b20d9688b29f87f6eb6e1263cb81671f84d",
    "core-ref11-P43_D3":
        "72840a73bd94f38a6490248728f3c2efe415afbd33abf2e06929bc63aa916135",
    "core-ref12-P43_D3":
        "de4059d5d96896a1abcb8118c76e17d569e83cde3000d4dd6379c7980aa4c346",
    "core-ref13-P411":
        "ed2c53d65f0e22b6ca45a50e11d23e435741d075475f3900baaa97a31c9b9f9b",
    "core-ref14-P413":
        "18f32d20c87e9b19ba3d0e0b817b0b20482419c9cc45f481887510e8dceb3e39",
    "core-case0-P34":
        "1ea26385562ed0b0af0a896220c69b6507ad6de283f800e236c3ddde759e4370",
    "core-case1-P35_D1":
        "4824aed8d948fd30f76e3bad1edd2c47f71d89ba4a16b3896c6bada53d21c301",
    "core-case2-P35_D2":
        "a8deffea2ba33adaa1c9073a1b194c9ae273eef9b5273d17c450d58093a72dc5",
    "core-case3-P35_D4":
        "046fd24aee65004a473e5ddeb7a550f25e61a907f36a0eb9f8f45cb9199d1950",
    "core-case4-P39":
        "3f6b85aaf6fbc4400e12acfa0583622158b0a403b6514c56f8d8fcbf22a3968d",
    "core-case5-P310":
        "9b65dee022113a6e94ba158035a5ffd4d1966a4c28ac395f1d7267d5dd14ba57",
    "core-case6-P311":
        "3c98d7e7732a81d265d3c0af1c90047bec09b5c56a65fe84b30365bc56a45aef",
    "core-case7-P312":
        "58392397dfbc5c906bb1093221ab2610028c6bbac16d4f5d04e5dfbda3c38ad0",
    "core-case8-P41":
        "ba3c14fd704024420ef5c4a820ba4fa3e3db6634b28ad59425ae4d8087939161",
    "core-case9-P43_D1":
        "21346499abb0b618d44369c302122aaaeb90443a251a7678eb5eba3682506b16",
    "core-case10-P43_D2":
        "a8a080208320ecc5b73efa9364024b20d9688b29f87f6eb6e1263cb81671f84d",
    "core-case11-P43_D3":
        "de4059d5d96896a1abcb8118c76e17d569e83cde3000d4dd6379c7980aa4c346",
    "core-case12-P411":
        "ed2c53d65f0e22b6ca45a50e11d23e435741d075475f3900baaa97a31c9b9f9b",
    "core-case13-P413":
        "18f32d20c87e9b19ba3d0e0b817b0b20482419c9cc45f481887510e8dceb3e39",
}


def _produce(kind, case, spec, tmp_path, capsys):
    if kind == "core":
        d, _ = build_case(spec, case)
        return "".join(map(str, d.bits))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_to_dict(spec)))
    if kind == "json":
        assert main(["construct", str(path), "--json", "--explain"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["explain"]["case"] == case
        return out
    assert main(["construct", str(path), "--explain", "--verify"]) == 0
    out = capsys.readouterr().out
    assert f"# case: {case}\n" in out
    return out


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_routed_specs_cover_every_case_id():
    assert {case for case, _ in ROUTED} == set(CASE_IDS)


@pytest.mark.parametrize("name,kind,case,spec", ENTRIES,
                         ids=[e[0] for e in ENTRIES])
def test_witness_digest_is_pinned(name, kind, case, spec, tmp_path, capsys):
    assert _digest(_produce(kind, case, spec, tmp_path, capsys)) \
        == DIGESTS[name]


# every C0 count tuple (s, |A2|, |A3|, |A4+|, |E|) with s = 2..7, |A2| and
# |A3| <= 10, |A4+| <= 2, |E| <= 1 and at least two internal branches, each
# internal branch with one 2-copy leaf
CORE_GRID = "b4b1354ed8d7ea5f4cc0a05347a059689bf77e0daff393d0183e6d8033ee9f5e"


def _core_grid():
    """(counts, spec, case) of every C0 count tuple of the grid."""
    for counts in itertools.product(range(2, 8), range(11), range(11),
                                    range(3), range(2)):
        if sum(counts[1:4]) < 2:
            continue
        spec = mkspec(*counts, first_two_leaves=False)
        cls = classify(spec)
        if cls.verdict == C0:
            yield counts, spec, cls.case


def test_core_grid_digest_is_pinned():
    lines, failed = [], 0
    for counts, spec, case in _core_grid():
        try:
            d, r = build_case(spec, case)
        except ConstructionError as exc:
            # the known P312 gap: no split completes the schedule
            failed += 1
            lines.append(f"{counts} {case} {exc}")
            continue
        lines.append(f"{counts} {case} {r.slot_to_user} {r.k} "
                     f"{''.join(map(str, d.bits))}")
    assert (len(lines), failed) == (2122, 22)
    assert _digest("\n".join(lines)) == CORE_GRID


def test_every_grid_core_meets_the_lemma_hypothesis():
    # `construct_optimal` sweeps only the lifted witness when it passes;
    # here each core of the grid is swept itself: every vertex on a
    # directed cycle of length <= 4, and diameter 4
    built = 0
    for counts, spec, case in _core_grid():
        try:
            res = construct_optimal(spec)
        except ConstructionError:
            continue   # the P312 gap, pinned above
        core, user = res.reduced.h_spec, _blocks(spec)
        for (role, j, alpha), (_, size, *_) in _blocks(core).items():
            key = (role, j and res.reduced.slot_to_user[j - 1], alpha)
            assert size <= user[key][1], (counts, key)
        base = build_base_orientation(res.reduced)
        assert max(shortest_cycle_lengths(base)) == 4, counts
        assert diameter(base) == 4, counts
        built += 1
    assert built == 2100
