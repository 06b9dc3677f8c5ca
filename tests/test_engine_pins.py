"""Pins for the simplex engine and for the search walk.

Engine pins. The search's answers depend on more than the solution set:
node counts, the final basis at degenerate optima (which decides H and H')
and the witnesses of the membership MILPs all follow from the exact pivot
sequence Bland's rule picks. `data/search_node_programs.txt` holds the 379
node programs of the 3x10x5 walk on seeds 0-9, and ENGINE_PINS digests
solve_lfp's status, basis, value and point on each, solved from scratch.
MEMBERSHIP_PINS digest every membership verdict and witness. Neither depends
on the search, so any change of engine that moves a single Bland decision
fails here, and a change of the search alone does not. The programs are the
walk's as it stood when they were recorded; they stay fixed when the search
changes. The membership digests were last recomputed when every membership
MILP came to try the rounded-down vertex of each fractional node and to stop
at the dominating point it gives (`milp.rounded_down`): a digest of the
verdicts alone was unchanged over 3x10x5 seeds 0-44, and on seeds 0-9, 67
of the 293 witnesses moved (seed 5's none), each new one feasible and
strictly dominating its point.

A change of engine that moves Bland decisions on purpose recomputes
ENGINE_PINS and checks, against the parent engine, that status, value and
point are unchanged on every program; only the basis may move, at
degenerate and tied optima. They were last recomputed when a solve from
scratch came to reach feasibility by dual simplex for the zero cost in place
of a primal phase one with artificials: status, value and point were
unchanged on all 379 programs, the set of basic variables moved on 61 (the
row order of the basis on 199), and the pivots of the 379 solves fell from
5031 to 2601. MEMBERSHIP_PINS and SEARCH_PINS passed unrecomputed.

Search pins. SEARCH_PINS digest the whole walk of branch_cut.run on the same
instances: each node's action, point, value and rounds. They change only in
a change of the search, never of the engine. Such a change recomputes them,
lists the old and new node counts per seed, and keeps the engine pins and the
oracle-equivalence and walk-invariance acceptance checks unchanged. They were
last recomputed when every node but the root came to be solved by a dual
re-solve from its parent's ratio optimum, which moves the walk where optima
tie: nodes on seeds 0-9 went 32, 13, 45, 13, 18, 14, 30, 7, 38, 6 to 33, 11,
39, 26, 14, 14, 30, 7, 40, 6, with every solution set equal to the oracle's.
SEARCH_PINS pin the dfs walk that maximizes utility 0; WALK_PINS pin the
other three walks (bfs/0, dfs/1, bfs/1) on the same seeds, so a change in a
rule they share, such as branching, is seen from every walk order.
WALK_PINS_3X10X10 pin all four walks on the 3x10x10 instances of seeds 0-9,
whose larger trees fathom far more nodes at their utility ideal point.
Membership witnesses enter the search's archive, which rejects candidates
and fathoms nodes, so moved witnesses move walks too. The rounding that
moved the membership pins moved two entries: bfs/0 seed 4 went from 102 to
104 nodes and dfs/1 seed 8 from 153 to 167, with every solution set of the
four walks equal to the oracle's on 3x10x5 seeds 0-49 and 3x10x10 seeds
0-9.
"""
import hashlib
from fractions import Fraction
from pathlib import Path

import pytest

from effset import branch_cut, oracle
from effset.efficiency import is_in_solution_set
from effset.fractional import solve_lfp
from effset.generator import GeneratorConfig, generate
from effset.simplex import LinearRow, constraint_rows

PROGRAMS = Path(__file__).parent / "data" / "search_node_programs.txt"


def _instance(seed, num_vars=5):
    return generate(
        GeneratorConfig(num_vars=num_vars, num_constraints=10, num_criteria=3, seed=seed)
    )


def _text(values):
    return None if values is None else tuple(str(v) for v in values)


def _digest(items) -> str:
    return hashlib.sha256(repr(list(items)).encode()).hexdigest()


def _row(text):
    *coeffs, relation, rhs = text.split()
    pairs = (c.split(":") for c in coeffs)
    return LinearRow.of({int(j): Fraction(c) for j, c in pairs}, relation, Fraction(rhs))


def node_programs(seed):
    """[(node id, parent id or None, appended rows)] in processing order."""
    programs = []
    for line in PROGRAMS.read_text().splitlines():
        if line.startswith("#"):
            continue
        head, rows = line.split("|")
        line_seed, node, parent = head.split()
        if int(line_seed) == seed:
            parsed = tuple(_row(r) for r in rows.split(";") if r.strip())
            programs.append((int(node), None if parent == "-" else int(parent), parsed))
    return programs


def walk_digest(report) -> str:
    return _digest(
        (
            rec.node_id,
            rec.action,
            _text(rec.point),
            None if rec.value is None else str(rec.value),
            None if rec.h is None else tuple(sorted(rec.h)),
            None if rec.hprime is None else tuple(sorted(rec.hprime)),
        )
        for rec in report.trace
    )


def assert_integer_optima_are_distinct(report) -> None:
    """No integer optimum recurs in a walk (a branch child splits its
    parent's region, a round successor cuts its vertex off), so each
    integral node optimum on the trace is tested once, as a candidate."""
    optima = [
        rec.point
        for rec in report.trace
        if rec.point is not None and all(v.denominator == 1 for v in rec.point)
    ]
    assert len(set(optima)) == len(optima) == sum(report.candidates.values())


def membership_digest(inst) -> str:
    verdicts = []
    for point in oracle.enumerate_feasible(inst):
        v = is_in_solution_set(inst, point)
        verdicts.append((point, v.moilfp_efficient, v.boilfp_efficient, v.witness))
    return _digest(verdicts)


# seed: (programs, SHA-256 of (node, status, basis, value, point) over them)
ENGINE_PINS = {
    0: (32, "982956b8d52bdf70663b07cacc1b973a931c0f26b8e5266b3fd8f815a9c27c2f"),
    1: (74, "c5c710bd3971a5ef1a7ebd72fe52f4b172d30621da361927802111befd31d07d"),
    2: (57, "d1284a76135bb781f5deab8707d3d3cfcde1c2f3758ac4739d8bcea84fdcbafd"),
    3: (51, "a03a4b748751932d11f4f8ad75935cece21803024bfa4af7007375be2eab5c10"),
    4: (23, "5668697d5437cc1e9d92a08f82315adf0175d8354cf3f9d51c2b0829bf8dddab"),
    5: (24, "4f3cf6a6d5cdebadbb9c88efbb090542c0bfb574542cd2f532674fb68cb65d6d"),
    6: (43, "6527cb01e571178c46a147e0e6d939060deea800f44abeed120712430090adf0"),
    7: (18, "3c8b7e8a5a62b5c87b91b4bfa7d6fddf3891cb4d85b9a4675e427467265b7d9e"),
    8: (43, "6dc4f18551a4fb577b1df14ce51c9c9df85274633bf4ce202027c618a01d3021"),
    9: (14, "db452cab16ffd6c429dba2f20d0de4ae105402ceb7d1755eddcb41583fbff6b7"),
}

# seed: SHA-256 of (point, criteria verdict, utility verdict, witness) over
# every feasible point, in enumeration order
MEMBERSHIP_PINS = {
    0: "520753985f92bddc0c31684fead54db7688573210ca0661e5ed1be2df17d7325",
    1: "14a62566b28351aa118c5a3d9f408f957c60983f78d664d4ba036565677c16a7",
    2: "dedd63d7b8634638b5a3f1f9c965530d6efd39a7a7adc4cf2191a22994965d2c",
    3: "c015dc626ede90b346d7b000c2b12e16f3376771e8b8ffd6247c1f77c4260f45",
    4: "738062a2a57d38f4df1a9a9519d962ccdea0a1dbc79a61252770024233683a99",
    5: "fa16f389dc29138af9b6ad658514174bf002f8a844f8d614f8884e6a6483897e",
    6: "f0d9df9e0e93c87ff5a6d241466e654ac1b7404e495344835b5d20284cad4b17",
    7: "e514c3721098f42c55fc2df3d24bf8d316803abb4144bc9f01ab2bdbc2a7d8ab",
    8: "344e17f4ac1b15322e9dd52d17c623adededca4cb064985c168620bec0ebc96f",
    9: "c39702b285a28b4cde95ba218082cc4b12ce2a6901b05ddb5071024f5179b1b5",
}

# seed: (nodes_processed, SHA-256 of the trace tuples)
SEARCH_PINS = {
    0: (33, "b1dde80f44a5bd06c568fef74beca65eb11f08e31716aee72a64c33f7def29ec"),
    1: (11, "0bcd217e46f9a49f2c2cd09a327e09d245629f861996f75305693f3d743e8431"),
    2: (39, "fbd19a3318392583d58590af4401a1fce8ad342ac304200d84ba98e34f48a42c"),
    3: (26, "36f857f6ffb8a46cf02e3b672892740eb428574a1e5b2d218ef8c3a4121fc0c0"),
    4: (14, "9a73c0c97c9f0fc03a9f90f79a507c18f54281bc6605e823b7b66d6da68527eb"),
    5: (14, "041a721f6242ab3441335e5748110167163d1efa637a7c570ec4e46d83639063"),
    6: (30, "80eeb85f0a035b75954e9138d84ef6bb5de8c2a58e494db384c2fcb50f8c3b4c"),
    7: (7, "8c45e522d0f38202e9f32470cc701635cafe07d4b03fcb68fd9a5328120d093b"),
    8: (40, "34f272e459d8b73a9d682d68ca45c1128e14d736226fdd594ce7a50e0d5e78fa"),
    9: (6, "16451caa5dee174bdb753d91b690d5370a97ef968e9e26969270461b7e7e8882"),
}

# (strategy, objective): the other three walks as SEARCH_PINS pins dfs/0,
# seed: (nodes_processed, SHA-256 of the trace tuples)
WALK_PINS = {
    ("bfs", 0): {
        0: (33, "8397acbf1b461b5ee062d7abf03068c88d0f7a2a21d3cd8ecbabb8a883f07dbb"),
        1: (11, "bbf370f3ea6747c1087f6b2f9e757521311edb3af9174519c9a4b60ea95e258d"),
        2: (36, "53786438d20c341964e5d2e495ec5fddfd6261ea24da35c14b07c9a6f0becbba"),
        3: (26, "36c0d9e11fdb649515439674939f1af1365d5fa7aec8cfd9fcba73fea2b0611c"),
        4: (14, "a20d752f2ab0bd23bb0df921472cb81b11acbaff527d57ec323e03cb70982667"),
        5: (14, "73a6a427127620dc0821430599affb460472fc7bbb1f1ce75c9e362b8b70df56"),
        6: (30, "2d290b10ad03810dbb2465044deb465cefae2468dac25f8a0030e4a955e09b47"),
        7: (7, "86f1cba8d671481603439a7e1ffe6d3840438a96c6643e7de3492b3fa0412d33"),
        8: (40, "c0f77114361f1fae53ec3ec02de0c227a5cf48382aab02a00113e257d718a408"),
        9: (6, "8a72d8f82b80e72d504e7845fd0e6cb3a81c3432b53798985da4626bbfe7dafc"),
    },
    ("dfs", 1): {
        0: (29, "c307891d1be236a3a198fd781aa9a496dadd9af8ef34a97e153cd5d5ba3a0869"),
        1: (23, "4a69912fb3f5fa51e11315f355ed78a5505dd7ffe841b80fa57e49f66d34f3c1"),
        2: (41, "c64c25f2b97d32f75ef9ade4b5457672888c7a034c94a00c450101d361f32d97"),
        3: (40, "a68999bc788bcc7a6d92242402df2e3d2e259c701d1f7b3fefd63e3e35a1e4e7"),
        4: (17, "f020cbb7b7c450541b1d58de4cb511c6daeadd90d73f61349e769d17a7b69f92"),
        5: (14, "301bbd76b8f8b7401d7d6f04dd8ecaf39ef3f2d7cfbe6208473c222d03f44509"),
        6: (48, "8de5577e6a1d0c3082143527467a7e92cb9860f5b457cae4ca480f6991a0c381"),
        7: (5, "5ae65d39d0ad1ce6d0dad2e636b4d4e62c7468194445e7ba3c7d0fed4253b258"),
        8: (12, "94e385a7726560bbc55431fcc957ab514e5dd1ff318fd22d9fea061a04813315"),
        9: (4, "3f8b6e4c6509cf624731b99d2bc6ad132d6f3418bbe6cb4a78a38b3fb852eb28"),
    },
    ("bfs", 1): {
        0: (34, "4ff02a1cb9f64d8140509c92eae8ec00a2347aa603b9d3127c3327a130467981"),
        1: (29, "674dc9f5c87aa44f1ee1f77294ca43bdf3b9225a4d473f8dc0b723a32948e44d"),
        2: (41, "cd708bd7f0ce9529071665378f6d7f37b89b40abdcdea193c74eac3bfdc2e700"),
        3: (28, "43759037b035ec5b311cd59c6ed7cfab03bfe9dab442b3ea772dd18cdc4a3772"),
        4: (17, "1761ddd7507e1be1a1545addd4445ec9fcfff9e4079de1fd2d03e8a738be5542"),
        5: (14, "e568328d49eda53c50b4e35c10587fa707d29871367608710bc9dade80256173"),
        6: (50, "f831941552d8253a60547b2f1ca923451bfca054b0be9023388a37b7ae201dca"),
        7: (5, "e16eaf777d726f719b16f98bcad93797d0f8cca27cd931461e492ff76b7021b3"),
        8: (14, "c4ab8824e510c8ebbd421d8ba605bc5be63f61419aa247b38d84c1edf17f1020"),
        9: (4, "88333588e01e511567e180c5e120c640106d33c6daab903c66112ac5647f223a"),
    },
}

# (strategy, objective): the four walks on 3x10x10 seeds 0-9,
# seed: (nodes_processed, SHA-256 of the trace tuples)
WALK_PINS_3X10X10 = {
    ("dfs", 0): {
        0: (83, "724c809f8a7aa6001383703f6e3a24cd9c464c2e98caa29f8c4e0221bc51df93"),
        1: (33, "6dbfd4413488090fc0627a98f14ea9958b79f524d8787fb2a2e2d7a8db16f2b1"),
        2: (61, "5a64c53db8ea282475d3a5f54d2f2e20d987268d9d06886c0936254c8dda87e4"),
        3: (362, "f4ce964d4ed84c824fd5c4dbb456e7c53d030ef978119958225159c93a5fd5f9"),
        4: (103, "93177472ff72316ec38fbc1ddd33bcf172c805ec99ba1ffbfe9746f206fbe032"),
        5: (97, "8daaa75d5a08fabbc5c40931ba7425445431d1f6c625bc469430e3e75edd14dc"),
        6: (37, "b17a91c7c45993c52295fcf66828a62b4dd54f79f524e82f2085595ff8057ed6"),
        7: (55, "96ed48f1ebee835e7775da3aca1c3137c68810afed586ca2cbdc3792b265dc69"),
        8: (119, "2be1ff5b391aa72535f3a418557f6e9fd6c93ac0f295ae78dc4e534e6b1d8ead"),
        9: (39, "6d60eada77a45b6429ea3fe228ac2e5d9e485c890f111cab84c3c7a7fbc9f432"),
    },
    ("bfs", 0): {
        0: (106, "9a919c547492563b6f0f0c6fd1de9a408ae8f1f62367961e3986d568a96bd0cd"),
        1: (33, "56422d045326433cb135a0f9afd5155b09302073616c4b5509cdd8bbdea23a12"),
        2: (51, "24808850814dcd1a646413e4bec021bf35da1ad252e3d28ecc0dc1d4d8d2d5c0"),
        3: (125, "a53e2607bb313a4364432117846e52989b427334f6507cd9d4c5a46f388bcf17"),
        4: (104, "6228427d33a0031d58ed25ca29aa3f36446246e3a1a97762e673ab0a61e8bad1"),
        5: (98, "1c9859734c3e47e00cbe0ec6d024ba29943941b084937e1b9809e1d9eea95149"),
        6: (22, "f8f459031ccc9b0a45ef9ca15231945a511a9f1d2707ff0bac3f96dece0b91e3"),
        7: (53, "160482f5c0b1ab21129c807cff2351265cf5099ef4b08f8c72c0148269e8dcbe"),
        8: (112, "3e546ed479796c970024eb5d3d7efdb313777cdd04543f1cf79e61f56e2cd642"),
        9: (39, "0ea74c8ff63a2abee15bbe82c9e65fe1a7bb83bded80b23998b489d8815db009"),
    },
    ("dfs", 1): {
        0: (164, "774cfcae708c7f3ee7ffa45862a4a5acaf1ced5f1e4d57cb1a7f66baf275ee97"),
        1: (59, "24ec349904de07815cb7b27ac5d7481f9ee0f334ac910e7109abf4ef32093ebb"),
        2: (69, "6c82feda797817883bd9c4f101db674305ab5cfcaa7a4a6d136737cac848a0b5"),
        3: (217, "ee8cc040b409d756107c9e41ee8fb57750b8ad41f849ffaf84a0dbf67cf1fe8b"),
        4: (77, "45511263677e022d0618e67c763deb4492d52c766376f75215604c2f0f11e849"),
        5: (142, "e856aa3f1261f5be7cc209743656b7c14eeb0e42ac427350c0bf71509b2c2f3a"),
        6: (80, "7e877859c66cc51110ec6213626b1f6a3148bdbb01f9a9f919391522d0db624b"),
        7: (65, "8869fc2d042dbb8f90749dc130dd3b4fe3aac86f8e18188bd605d3fdf3c42d00"),
        8: (167, "b8baab1c3950fa0d819ddcdad201084a53d51e237ed24f0c593f46110ca0c76f"),
        9: (51, "9b4c5a56ccf00f7b97216ff8e43e6f285247478c8055835d2386754115d0beaa"),
    },
    ("bfs", 1): {
        0: (121, "948d1ef6636bb7d5dfa60b2c7955183bbc857ff6fd145df4991f0b2e21884ce1"),
        1: (59, "4bc0aae3d04fc290d5abbbda4bcb606e871623fbf8afec4c057ea46ff1e515da"),
        2: (71, "d5420e4a24309d0663a96b7176b24c151d3f169b0bdeb6312351e19070059f9c"),
        3: (153, "f9bee5b6fe45aeff47118f1f4d2d13ddc99a487af50bf864d5ca2f8b87308cb0"),
        4: (88, "798a1c33c37e49f40f0850096cafc70557c32f1323b5527929d4f0768ea0fc41"),
        5: (104, "eee11ad82bcebf6a54b97259a4eb273637f21a1abaaaee3c3d37db96a7525951"),
        6: (48, "bc212d778ad124b8343b7169036e3cd4d5943dacd622fce09ad1e340c8096b57"),
        7: (46, "be64374778d89691d515f95e7103f3b517be987ed09f0b183d80ac37bfdf044e"),
        8: (122, "1f05dd96c6d7afc12bc9fda097a950b931a6f481932154a95b0c95d77549d395"),
        9: (33, "508e1fafdec12050695738f5d5cf3ec7a8a4fe18ddedf200a5c9ed63907a3293"),
    },
}


@pytest.mark.parametrize("seed", sorted(ENGINE_PINS))
def test_node_program_solves_are_pinned(seed):
    """Each program solved from scratch matches its pin, and solving the rows
    it adds to its parent's from the parent's final state (the search's
    path) gives the same status and value."""
    inst = _instance(seed)
    base = constraint_rows(inst.a_matrix, inst.b_vector)
    n, utility = inst.variable_count, inst.utilities[0]
    added, states, solved = {}, {}, []
    for node, parent, rows in node_programs(seed):
        result = solve_lfp(n, base + rows, utility)
        added[node], states[node] = rows, result.state
        if parent is not None:
            before = added[parent]
            assert rows[: len(before)] == before, (seed, node)
            warm = solve_lfp(n, rows[len(before) :], utility, states[parent])
            assert (warm.status, warm.value) == (result.status, result.value), (seed, node)
        solved.append(
            (
                node,
                result.status.value,
                result.state.basis,
                None if result.value is None else str(result.value),
                _text(result.point),
            )
        )
    assert (len(solved), _digest(solved)) == ENGINE_PINS[seed]


@pytest.mark.parametrize("seed", sorted(MEMBERSHIP_PINS))
def test_membership_verdicts_are_pinned(seed):
    assert membership_digest(_instance(seed)) == MEMBERSHIP_PINS[seed]


@pytest.mark.parametrize("seed", sorted(SEARCH_PINS))
def test_search_walk_is_pinned(seed):
    report = branch_cut.run(_instance(seed))
    assert (report.nodes_processed, walk_digest(report)) == SEARCH_PINS[seed]
    assert_integer_optima_are_distinct(report)


@pytest.mark.parametrize(
    "walk, seed", [(walk, seed) for walk in WALK_PINS for seed in sorted(WALK_PINS[walk])]
)
def test_other_walks_are_pinned(walk, seed):
    strategy, objective = walk
    report = branch_cut.run(_instance(seed), strategy=strategy, objective=objective)
    assert (report.nodes_processed, walk_digest(report)) == WALK_PINS[walk][seed]
    assert_integer_optima_are_distinct(report)


@pytest.mark.parametrize(
    "walk, seed",
    [(walk, seed) for walk in WALK_PINS_3X10X10 for seed in sorted(WALK_PINS_3X10X10[walk])],
)
def test_the_four_walks_at_ten_variables_are_pinned(walk, seed):
    strategy, objective = walk
    report = branch_cut.run(_instance(seed, num_vars=10), strategy=strategy, objective=objective)
    assert (report.nodes_processed, walk_digest(report)) == WALK_PINS_3X10X10[walk][seed]
    assert_integer_optima_are_distinct(report)
