"""End-to-end tests for the command-line surface.

Each test drives ``main`` with an argv list and captures the emitted
envelope; a single subprocess test covers the ``python -m`` entry point.
"""

import argparse
import ast
import hashlib
import io
import json
import re
import subprocess
import sys
import time
from fractions import Fraction as Q
from math import gcd
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corelab import cli, ehrhart, genfun, stats
from corelab.affine import AffineElement
from corelab.cli import EXIT_BUDGET, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main
from corelab.rootsys import build_root_system
from oracles import size_point


# text with quotes, backslashes, control and non-ASCII characters
TEXT = st.text(st.sampled_from('a"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u20ac\U0001f600')
               | st.characters(blacklist_categories=("Cs",)), max_size=6)

# lists of dicts that share one key set, each key's values drawn from one kind
ROW_CELLS = [
    TEXT | st.text(st.sampled_from("%sd("), max_size=4),
    st.integers(-10**30, 10**30),
    st.lists(TEXT, max_size=3),
    st.lists(st.integers(-9, 9), max_size=3).map(tuple),
    st.just([]),
    st.lists(st.integers(-9, 9) | st.booleans(), max_size=3),
    st.none() | st.booleans() | st.integers(-9, 9),
    st.fractions(),
]
ROW_LISTS = st.lists(TEXT | st.just("%s"), min_size=1, max_size=4, unique=True).flatmap(
    lambda keys: st.tuples(*(st.sampled_from(ROW_CELLS) for _ in keys)).flatmap(
        lambda cells: st.lists(st.fixed_dictionaries(dict(zip(keys, cells))),
                               min_size=1, max_size=8)))


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def run_json(argv):
    code, text = run(argv)
    return code, json.loads(text)


def off_at(dilation):
    """``weighted_lattice_sum`` with its value at one dilation off by one."""
    exact = ehrhart.weighted_lattice_sum

    def perturbed(rs, b, k, lattice, centered=False):
        return exact(rs, b, k, lattice, centered) + (b == dilation)

    return perturbed


def rat(s):
    num, den = s.split("/")
    assert int(den) > 0
    return Q(int(num), int(den))


# the command-line examples of README.md, as argv lists
README_EXAMPLES = [
    line.split()[1:]
    for line in (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    if line.startswith("corelab ")
]

# a value each option of the command table accepts
VALUES = {"--type": "A", "--rank": "2", "--b": "4", "--b-range": "4..4", "--k": "2",
          "--trunc": "4", "--lattice": "coroot", "--stat": "zise", "--residue": "0",
          "--m": "1", "--trials": "2", "--seed": "0"}


def request(*words):
    """``words``, a command or experiment of the table and what follows it, then
    its row's --type, --rank, --b, --k and --trials at VALUES, unless ``words``
    gives them; every other option of the row keeps its default."""
    name = words[0] if words[0] in cli._COMMANDS else " ".join(words[:2])
    row = cli._COMMANDS[name][2].split()
    given = [flag for flag in row if flag in ("--type", "--rank", "--b", "--k", "--trials")
             and flag not in words]
    return list(words) + [token for flag in given for token in (flag, VALUES[flag])]


# what the budgeted commands, verify selectors and experiments compute once admitted
BUDGETED_WORK = (
    "alcove_size_sums",
    "verify_max",
    "moments",
    "floor_identity_check",
    "enumerate_simultaneous_cores",
    "macdonald_series",
    "core_product_series",
    "coroot_points_in_size_ellipsoid",
    "experiment_weak_order_maximality",
    "experiment_cn_fuss",
    "experiment_cn_selfconjugate_weighting",
    "leading_coefficient_checks",
    "core_points_in_sommers",
    "coroot_points_in_bA",
    "coweight_points_in_bA",
    "fit_residues",
    "coxeter_char_poly",
)


class TestEnvelope:
    def test_schema_fields_and_rational_rendering(self):
        code, doc = run_json(["verify", "mean", "--type", "A", "--rank", "2", "--b", "4"])
        assert code == EXIT_OK
        assert doc["schema_version"] == 1
        assert doc["grade"] == "theorem"
        assert doc["verdict"] == "pass"
        assert doc["config"]["command"] == "verify"
        assert doc["config"]["lattice"] == "coroot"
        (entry,) = doc["results"]
        assert entry["value"] == "2/1"
        assert rat(entry["value"]) == 2

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-10**30, 10**30), st.integers(1, 10**6))
    @example(0, 1)
    @example(0, 24)
    @example(-36, 24)
    @example(Q(-7, 6), 1)
    @example(Q(9, 4), 6)
    def test_rat_of_an_int_over_den_matches_fraction(self, n, den):
        q = Q(n, den)
        assert cli._rat(n, den) == "%d/%d" % (q.numerator, q.denominator)

    @settings(max_examples=200, deadline=None)
    @given(st.recursive(
        st.none() | st.booleans() | st.integers(-10**30, 10**30) | TEXT | st.fractions(),
        lambda inner: st.lists(inner, max_size=5) | st.dictionaries(TEXT, inner, max_size=5)
        | ROW_LISTS,
        max_leaves=12,
    ) | ROW_LISTS)
    @example([])
    @example({})
    @example([1, True, 0, False])
    @example([True, 2])
    @example([10**30, -7, 0])
    @example(["x", "\u00e9\n"])
    @example({"b": [], "a": {}, "": ["\u00e9\"\\\x00\x1f", 7, None]})
    @example(("tuple", [("nested", -1)]))
    @example([Q(1, 2), {"q": Q(-7, 3)}, Q(4), (Q(0),)])
    @example([{"point": ["0/1", "%d"], "size": "0/1", "core": []}]
             + [{"point": ["1/1", "-1/1"], "size": "%s", "core": [k, 1]} for k in range(5)])
    def test_writer_matches_indented_json_dumps(self, value):
        assert cli._dump(value) == json.dumps(value, indent=2, sort_keys=True, default=cli._rat)

    def test_csv_cells_render_fractions_through_rat(self):
        rows = [{"q": Q(-3, 6), "nested": {"x": [Q(5, 1), 2, None]}, "v": (Q(1, 3),)}]
        assert cli._render(rows, "csv") == (
            'nested,q,v\n"{""x"":[""5/1"",2,null]}",-1/2,"[""1/3""]"\n')

    @pytest.mark.parametrize("value", [1.5, [0.0], {"x": float("nan")}, {1, 2}, [set()],
                                       {1: "int key"}, {"a": {None: 0}},
                                       [{"point": ["0/1"], "size": v} for v in (0, 1, 2, 3, 0.5)]])
    def test_writer_refuses_types_the_envelope_never_holds(self, value):
        with pytest.raises(TypeError):
            cli._dump(value)

    def test_deterministic_bytes_across_runs(self):
        argv = ["enum", "--type", "D", "--rank", "4", "--b", "5", "--stat", "size"]
        _, first = run(argv)
        _, second = run(argv)
        assert first == second

    def test_csv_is_sorted_union_of_fields(self):
        code, text = run(
            ["verify", "mean", "--type", "A", "--rank", "2", "--b-range", "4..7",
             "--format", "csv"]
        )
        assert code == EXIT_OK
        lines = text.strip().splitlines()
        header = lines[0].split(",")
        assert header == sorted(header)
        assert len(lines) == 5
        assert any("skipped(b not coprime)" in line for line in lines)

    def test_table_renders_aligned_header(self):
        code, text = run(
            ["stat", "--type", "A", "--rank", "2", "--b", "4", "--format", "table"]
        )
        assert code == EXIT_OK
        header, row = text.splitlines()
        assert "mean" in header and "2/1" in row


class TestEnum:
    def test_size_lists_the_five_cores(self):
        code, doc = run_json(
            ["enum", "--type", "A", "--rank", "2", "--b", "4",
             "--lattice", "coroot", "--stat", "size"]
        )
        assert code == EXIT_OK
        cores = sorted(tuple(r["core"]) for r in doc["results"])
        assert cores == [(), (1,), (1, 1), (2,), (3, 1, 1)]
        sizes = sorted(rat(r["size"]) for r in doc["results"])
        assert sizes == [0, 1, 2, 2, 5]

    @pytest.mark.parametrize("rank", range(2, 7))
    def test_core_size_is_f1_and_its_box_count(self, rank):
        # a type-A record prints the certified box count; hold it to an
        # independent F_1 at the printed point and to the printed parts
        rs = build_root_system("A", rank)
        for b in (b for b in range(1, 10) if gcd(b, rank + 1) == 1):
            code, doc = run_json(["enum", "--type", "A", "--rank", str(rank), "--b", str(b),
                                  "--stat", "size"])
            assert code == EXIT_OK
            for r in doc["results"]:
                size = rat(r["size"])
                assert size == size_point(rs, [rat(v) for v in r["point"]])
                assert size == sum(r["core"])

    def test_unit_dilation_is_a_single_zero_record(self):
        for family, rank in (("A", 2), ("E", 6), ("C", 3)):
            code, doc = run_json(["enum", "--type", family, "--rank", str(rank), "--b", "1"])
            assert code == EXIT_OK
            (entry,) = doc["results"]
            assert rat(entry["zise"]) == 0

    def test_coweight_count_outside_coprime_range(self):
        code, doc = run_json(
            ["enum", "--type", "D", "--rank", "4", "--b", "3", "--lattice", "coweight"]
        )
        assert code == EXIT_OK
        assert len(doc["results"]) == 24
        total = sum(rat(r["zise"]) for r in doc["results"])
        assert total == 80

    def test_size_requires_coprime_dilation(self):
        code, _ = run(["enum", "--type", "D", "--rank", "4", "--b", "3",
                       "--lattice", "coweight", "--stat", "size"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv, digest",
        [
            ("enum --type A --rank 4 --b 7 --stat size",
             "6f687559facc027a9f8369d59ce9818ec023922138202e7c0aad9c9ca93dea53"),
            ("enum --type A --rank 3 --b 41",
             "dadf5883baca53b854d7250cacc83c40af0521cc0fb164ea2ba0d04f0128dfea"),
            # the two largest core listings of the benchmark, 1430 (8,9)- and (9,8)-cores
            ("enum --type A --rank 7 --b 9 --stat size",
             "b5b9cd426939f04a65671a6023a3c6d83e162901ba162f0c36a7298b7a12824d"),
            ("enum --type A --rank 8 --b 8 --stat size",
             "2e9f0ea00db6c719188bdbf44f1bdbdd52138bedb79c0b6631bd7c8984ab2396"),
            # --stat size off type A, where the size is F_1 at the point
            ("enum --type D --rank 4 --b 5 --stat size",
             "3af4ead96b74ab43c69bff6c6ba4e83c6a55aa3c04df119b05197839f02a2ef4"),
            ("enum --type B --rank 3 --b 5 --stat size",
             "5029c38da8f559d63f56805f746e6bd883ac4dea81f16cb505ec164ff2e2bb90"),
            ("enum --type E --rank 6 --b 5 --stat size",
             "464d74eb0fafeab46dc132a92b5d37744d1b62ea6f70432393487d54eb0e37fc"),
            ("enum --type G --rank 2 --b 5 --stat size",
             "6f6f5460c040fbae2253fa198f63f9b028f6c2f250eba1219752f9b249b33248"),
            # coweight zise rows, and zise by the closed F_b at b not coprime to h
            ("enum --type D --rank 4 --b 3 --lattice coweight",
             "d52985a703aa030ce9e24b5d67acdabb5ac73166c9d829a3d0b22825f8bc236d"),
            ("enum --type A --rank 2 --b 6",
             "758e1f3ccd54fb6353dbb9423a76b4ffd687a93c3c0682f896628d841925f30c"),
            ("enum --type A --rank 3 --b 7 --stat size --format csv",
             "7f494ee298ded243328b12e301aafec5c53c318b89981c8ed3aae057bb365e4a"),
            # --stat size on the coweight lattice: w_b^-1 moves the integer vectors d x
            ("enum --type D --rank 5 --b 7 --stat size --lattice coweight",
             "4a6353d4a739fb8242335dd93b3ac71eeec5934a91c7fda59e47e28620a7656c"),
            ("enum --type E --rank 6 --b 5 --stat size --lattice coweight",
             "6004900ce6eee3cd37328783e135557e58b1f9d42fc88e8ef236fc2aacc43d8a"),
            ("enum --type B --rank 3 --b 5 --stat size --lattice coweight",
             "af13166816903277c203c535417e16c12748dd9abcb0231503c8805b5597d5e6"),
            ("enum --type C --rank 3 --b 5 --stat size --lattice coweight",
             "e8bcae18e8a77d3cdfdaebc684c96cd16e60050dfff52c8f3e9d979bd68a2679"),
            ("enum --type F --rank 4 --b 5 --stat size --lattice coweight",
             "bd0290009311e4ee9224d7b06df33b168ff4cc08d5698234fb48aeb36dc55334"),
            ("enum --type G --rank 2 --b 5 --stat size --lattice coweight",
             "40f9decfb7455e2b4514203f048da0d9a4fb4424577dff8f1180e0f714ca4a8e"),
            # coweight zise at b coprime to h, and at b = 6 by the closed F_b
            ("enum --type E --rank 6 --b 5 --lattice coweight",
             "9c2afb497879a1b4d6af410bf7e53e375d1f069afcb018cde8a1c0eb1ae86a35"),
            ("enum --type A --rank 3 --b 6 --lattice coweight",
             "a6728c5b347851aad172d6e1fafe84f639629e5e8db1265c73956c286df2fdf1"),
            # the constructor's integer 24 <rho, rho>
            ("verify --type E --rank 8 strange",
             "730f2c458cdca44a05217c2dbba27e8d2be3eb13b12e286dc6962d9b53758ab8"),
            ("verify --type G --rank 2 strange",
             "c01f61798b97ad05809fbc9806aae872262631c264c27db2cd5da145519a67b7"),
            ("experiment weak-order --type D --rank 4 --b 7",
             "01ed9f5a352e6a8e608531bc517085494fcdd28a2690dde9d11407edb0b17888"),
            ("experiment weak-order --type B --rank 3 --b 7",
             "40df1c01b582c326228faffc557a2761be4a7ed0bae4349f0968efd964b615f3"),
            ("experiment cn-weighting --rank 3 --trials 50",
             "959a0d6b4f76820bc6f3cd3dbacb9b5de38fd1295e76bf5a1572c9d256a5c980"),
            ("fit --type A --rank 6 --k 2",
             "1f5ba7ac76a093ba9a29a1dce721ae879f5651d39ce42bbfb550e4faccc4f9d1"),
            ("fit --type D --rank 4 --k 3 --lattice coroot",
             "bb9efa54fcd6c08d0431ff2fd9d75128f84729251edc0e7dd00899a6ab83a2cd"),
            # every verify selector family over a sweep with skipped rows, stat's
            # sweep, both projections of each, and the experiments without a pin
            ("verify --type E --rank 7 --b-range 1..20 count",
             "4d0b55e56023dfb08ca892d5089056a5ae1434f4c6aefdb3f0f734902fa51d4b"),
            ("verify --type D --rank 4 --b-range 1..7 max mean variance m3",
             "53725c14ef636241e628b88bec474d3a93c12f4dfe689f9c7a42a1d7c856d37e"),
            ("verify --type A --rank 6 --b-range 1..12 floor",
             "5f4380f51cc5812facfc14229354a6935cf564ee4b74628970419dbc3a7c22bb"),
            ("verify --type A --rank 3 --b-range 1..9 anderson strange macdonald genfun-A",
             "19aa8a61af9917ccfcee2c60aa05cc55346e09b9b601df85a188b8f1ded4256b"),
            ("stat --type A --rank 3 --b-range 2..6",
             "2983b54726668c37a8efaaf5423597de5aca648c53ab8cb41ebf32b1b808a85a"),
            ("verify --type A --rank 3 --b-range 1..9 count "
             "max mean variance m3 floor anderson strange --format csv",
             "93914d756f98961f55cb404c0ba6d497bae6eb8d5016ecf6574374203c7b38cb"),
            ("verify --type A --rank 3 --b-range 1..9 count "
             "max mean variance m3 floor anderson strange --format table",
             "a521054e698bf442a52b3de586434708118ab74e490ee94d24e494d4109709eb"),
            ("stat --type D --rank 4 --b-range 1..7 --format csv",
             "2138d585e640a5973211afb99f379157b9da93510beec206fe3f85e08316c04e"),
            ("stat --type D --rank 4 --b-range 1..7 --format table",
             "bd6b26c0d22d42ee56a6935723ad8aabefaf0bcd446c81ded25ddb2ccfcea768"),
            ("experiment cn-fuss --rank 3 --m 2",
             "5c462d8a00d4ef7b939a02ee1dff4cae81a7956386fa13cee9d3565b67ef8d4f"),
            ("experiment top-coeff --type A --rank 3 --k 3",
             "245fadc5ec43003eee4490e5c1bf58bb5d61b8f1cf2a984a221d6191df53faae"),
            # the other requests of the benchmark workloads
            ("verify --type A --rank 4 --b-range 1..13 count max mean variance m3",
             "09672a7126f8fbbbd16839b37afd2d596faadfa45c1fa950244a0f1113ca7ed0"),
            ("experiment top-coeff --type A --rank 3 --k 2",
             "927de408323191c3be37264f61547de5a7716addd3b3ec63c454e92ad1021fad"),
            ("experiment top-coeff --type D --rank 4 --k 2",
             "bfd30852dacff929fa5492429b2e8902551dcf9263148ee2f9477fdc4b79a910"),
            ("fit --type A --rank 3 --k 4 --lattice coroot",
             "3ff20aa7d1b582173c51120d6a6329f69aba37988110c224e3963e5429277714"),
            ("fit --type E --rank 6 --k 1 --lattice coroot",
             "155fca89cce8f7c595306caeb70ab03b3ff9662949c5aae8f73348f3eefceffa"),
            ("fit --type A --rank 4 --k 0 --lattice coroot",
             "d712f1c3e2ba1f986f0a619088ba21ae28c3379e59f4544cb934c1f506e8171f"),
            ("verify --type E --rank 8 --b-range 1..240 count"
             " --max-points 1000000000000000000000000",
             "2684eaed0d75a6b593a56701dcf513424df88d873630c8d241ea32ab381b12b3"),
            ("verify --type E --rank 7 --b-range 1..150 count"
             " --max-points 1000000000000000000000000",
             "785f18f7dbdd11435c2f613176d01b73dcbdb6090b816da74c29f7f5b9c4f83c"),
            ("verify --type A --rank 6 --b-range 1..64 count"
             " --max-points 1000000000000000000000000",
             "eb07508b4cf2b1139d47840a9efce68ecaa1e256b52c52656c124605c0958c3a"),
            ("verify --type E --rank 6 --b 13 count max mean variance",
             "682aeaca7fb23756aac8d6132556f8bc43210abde42f8a03ae3e28afa54729a8"),
            ("verify --type E --rank 7 --b 11 count max mean variance",
             "dd50625315f2fa00e15b3aabc455878b42e66c8141724e8913b2e667f2ec8609"),
            ("verify --type D --rank 5 macdonald",
             "a28c4006a3e0c4328af71ea208c1cfcd376dbd4ce68ef6ba5f3e04d5900b318e"),
            ("verify --type E --rank 6 macdonald",
             "c55fd25f824c4d3d8445a69d9d2556ddbc00baca5a534f55bc35f9413597f473"),
            ("series --type E --rank 8 --trunc 60",
             "b2e41dfe4aff61d522cfdc459a3bd3f6dde61411d4cdfcec25e13ba231363542"),
            ("experiment weak-order --type E --rank 6 --b 7",
             "5b4be8943538e68b6a8f3ec020ccb49045f2d92345e86765915ab9af2ec99f32"),
            ("verify --type E --rank 7 --b-range 1..100 count",
             "61e38e16b3e1fafb86d50f6361a974587b945e8fe82d3c8ac8fd471eea482ec0"),
            # the README examples
            ("enum --type A --rank 2 --b 4 --stat size",
             "ba2072309ad4598f578dbbf32f2f6dc985e4ebd5b4eb247da599b2d9104815a4"),
            ("enum --type D --rank 4 --b 3 --lattice coweight",
             "d52985a703aa030ce9e24b5d67acdabb5ac73166c9d829a3d0b22825f8bc236d"),
            ("stat --type D --rank 4 --b-range 2..7",
             "39db76fe7f453e5558b8aa28864330326f6899ef3947ad8baffbf6ba375b4e99"),
            ("verify --type E --rank 8 --b 7 count mean",
             "1412e710ed8d6996c2fefd6a2b9ad62e15f8a6061c307c29bcd66c086b4d0ade"),
            ("verify --type A --rank 3 --b-range 1..9 count max mean variance m3",
             "b964ec834fb26496a32b33328c7527d32b228e39182a846f6cb58da957df8edc"),
            ("verify --type A --rank 3 strange macdonald genfun-A",
             "4bebcb23d12ab8a1151ad00b7b398b0235986825e87f19113f0ad51b5e3e25bd"),
            ("fit --type A --rank 2 --k 0",
             "fde6785d41c96149e249186c543877931b8ba67e45cbd4a16421af6a7a987111"),
            ("fit --type E --rank 6 --k 1 --lattice coroot --residue 1",
             "bcb5c389a98aeb4f79367b436cd22467940d1744c3a37c4f586498690a37c4c1"),
            ("series --type A --rank 2 --trunc 10",
             "825c40915f4dac4dfa32ed294a26d27213444a4e5a3eccde4ae1d1c890f394c6"),
            ("experiment weak-order --type A --rank 2 --b 4",
             "963d00581d7d13bfbbe285849f5defe06578e50e096c3b8bdcd05037d80f9094"),
            ("experiment cn-fuss --rank 2 --m 1",
             "9a306e404d659c5fa3ecf6c58c954f77e8ac3cfc85f55c93ca503c4e9986ac43"),
            # the fit grid on A2, A3, A4, D4 and E6: coroot fits at k = 0..4,
            # top-coeff at k = 1..4 and coweight fits at k = 0..2
            ("fit --type A --rank 2 --k 0 --lattice coroot",
             "22092a796e154c7ee84660f0fe84ca5e3dc5f69d30229ae114e364fb2d127ef6"),
            ("fit --type A --rank 2 --k 1 --lattice coroot",
             "5e0eb1c6f62a45ab50d1cdf219a1bf2b7661cc173159b20068582b0b8d32d816"),
            ("fit --type A --rank 2 --k 2 --lattice coroot",
             "254c420a925b63045a83e1c07e62f78be98bff1d725aa6ad7bff1f4100a7e9f9"),
            ("fit --type A --rank 2 --k 3 --lattice coroot",
             "0cb31cc79ed12d0702980e04e0cdfdb1f3dd46b811a5c18cd44dd01a119950d8"),
            ("fit --type A --rank 2 --k 4 --lattice coroot",
             "a4775f3e9bfc231243138f7da873df6a3d19aaac5d8e30427c12bb1cbcddddb9"),
            ("fit --type A --rank 3 --k 0 --lattice coroot",
             "55196690df44d42fb77ca40fcc3a87ad030bb6292b18a1b6bcd99e39938fd960"),
            ("fit --type A --rank 3 --k 1 --lattice coroot",
             "a5fcc0b420a3ba0609c0d9e007f4e944ead24eeaa087ed9d4fbfdcd79898aab4"),
            ("fit --type A --rank 3 --k 2 --lattice coroot",
             "d1e3f913b4cfe95fd6373689c2096fcfa15d0e6acbef82f24fe5fc58750e1cd6"),
            ("fit --type A --rank 3 --k 3 --lattice coroot",
             "34592d5e7d26b77adcac5a88ccf5679596cbc2534d63b99a550fec78eb1328b4"),
            ("fit --type A --rank 4 --k 1 --lattice coroot",
             "55ba27091f0289c9a38dd51ab9fce8516477bc71ecf002f76c8723e7d4fa6231"),
            ("fit --type A --rank 4 --k 2 --lattice coroot",
             "4994abb4b3dea1a1eee72561cc56b82f19534cb34f0b2f9a5032a84081cb64a9"),
            ("fit --type A --rank 4 --k 3 --lattice coroot",
             "09e2c1aaf845fd2ab19389269df0be16b20c66756c4d20d20e6be6e96ec1fd45"),
            ("fit --type A --rank 4 --k 4 --lattice coroot",
             "e63cdfe42ff3a502be58979da17f87a804a3bf114908379da0acac00beaab3a9"),
            ("fit --type D --rank 4 --k 0 --lattice coroot",
             "f9acd65e726ddef01bdfa6b77685d1a0f3f084d07e283635b981cc3e71e6d412"),
            ("fit --type D --rank 4 --k 1 --lattice coroot",
             "f410cd24222e5f7400b040f0daeadd914fb52ea9ad48636e6bf5e37cb8dc736b"),
            ("fit --type D --rank 4 --k 2 --lattice coroot",
             "ec671d57967049802c80958638ee446b9c70bae55f254c22552506cd0454e826"),
            ("fit --type D --rank 4 --k 4 --lattice coroot",
             "0d0fe0637bf8ecb05a7ed56df2b978fcee86cc94e08baf787e4352b79e1748cd"),
            ("fit --type E --rank 6 --k 0 --lattice coroot",
             "55b6029c7dda77b40319fb6efa5c64a1e38a5490cb7cb6525d70e97129ff0351"),
            ("fit --type E --rank 6 --k 2 --lattice coroot",
             "58b5fccfce51b4df37641497eb62c5ab8e9ba8a84c7e86c217c5d52c346c2604"),
            ("fit --type E --rank 6 --k 3 --lattice coroot",
             "04c334a64e597f82dad0ea797c36f8031c26c60c2642af4e642d78fd9ef2547d"),
            ("fit --type E --rank 6 --k 4 --lattice coroot",
             "0326fc92d055b627b99c2447716102be77c42f55cb0d1aab346c23f340419ff0"),
            ("experiment top-coeff --type A --rank 2 --k 1",
             "5ec77dc08c17c6dc6136317c4f835bc7115668976df98cbe84f9c484906baf5c"),
            ("experiment top-coeff --type A --rank 2 --k 2",
             "80e7d3c0642fa8526f09cbb222703fb40a01a911a18ab75d345a248167ecd882"),
            ("experiment top-coeff --type A --rank 2 --k 3",
             "dbf81081446a97a26caf0a0557edb7142a435d259df62339cda1d91e82111e11"),
            ("experiment top-coeff --type A --rank 2 --k 4",
             "35531a6fc97cf285edbd5575d3ab2b22cf5bcd522067fe9261d3c8a75f2a75ab"),
            ("experiment top-coeff --type A --rank 3 --k 1",
             "25f67c29bc795176b9b3438d8597c9559c860ff14e482c07dd5b47fd9aa87452"),
            ("experiment top-coeff --type A --rank 3 --k 4",
             "069e2c8b2a51806197d4c0f98cd22029ae65ac1ead7e44c9b2aedc99ba9714a1"),
            ("experiment top-coeff --type A --rank 4 --k 1",
             "45fb6593283a910ef6b07927ca184c7aca5ca061982fbfd67a8696f120fd5a83"),
            ("experiment top-coeff --type A --rank 4 --k 2",
             "8976294d5b87d556b164f0d50fd7b86d642d448857fed02145466feab4809b6d"),
            ("experiment top-coeff --type A --rank 4 --k 3",
             "6d47d7755d51100ad4ec6245e9e1f97e831bd2ffd9b8bb01f7ba5ca99b1fa02b"),
            ("experiment top-coeff --type A --rank 4 --k 4",
             "6a93e555957ea4b2f782cdda2ec010626efcfc58c90348396cb2ca013dca38eb"),
            ("experiment top-coeff --type D --rank 4 --k 1",
             "17ad6efce80cacea615d19d1d7ab123528b30c88d1581e2d00ba0440bb7e8861"),
            ("experiment top-coeff --type D --rank 4 --k 3",
             "a88118b3eeb546743d0929bbaf6053666a720a2430b2528fd041f522dca39778"),
            ("experiment top-coeff --type D --rank 4 --k 4",
             "b608130429ac9dd6ff7dac744f611d0e81c9a528391a3298e559cf8301285681"),
            ("experiment top-coeff --type E --rank 6 --k 1",
             "033b6293b33221ac170b76b3f23c0b0b1acc8cbc4fa4fe2799ee98ca21072c71"),
            ("experiment top-coeff --type E --rank 6 --k 2",
             "3d176ab3d7a4ff406d6c689b7a02cb17ac4145addd25540db9f60b3c7ab89a04"),
            ("experiment top-coeff --type E --rank 6 --k 3",
             "f614ee348a5efdb5ff4781fd65de5577888ef5c4d45e9251eb5eb7be8947e719"),
            # the uniform k = 4 leading ratio on E6, E7 and E8
            ("experiment top-coeff --type E --rank 6 --k 4",
             "d479418035f2fa7423a45fd2a0d678327b26315dc1f20ce4676b89d46b4fa75e"),
            ("experiment top-coeff --type E --rank 7 --k 4",
             "680cf2bef892032be2388ac59611c824bec55588b079849b026ac668d26379fd"),
            ("experiment top-coeff --type E --rank 8 --k 4",
             "f881d27f5f4f5d48d9c311a9675ebcc38c278f29dc4d314fc262c3f2c43b20cd"),
            ("fit --type A --rank 2 --k 1",
             "ee9ce8cd223582184bfb64a7e8b3713921fcebc6c403e24a3ea868f402ef8484"),
            ("fit --type A --rank 2 --k 2",
             "2c34b2b5ddd503c2e88e9df00474e1a0d749af59e613b5babd47df0d207415b6"),
            ("fit --type A --rank 3 --k 0",
             "b3333f20396e4488d67d4343d28bfc8e2ae59d4f0e6e5b28d38bb8cd28b26458"),
            ("fit --type A --rank 3 --k 1",
             "e2d0b5c2c7a9c4e32ee4dd26c01f3d0246a85bd04b3a9d7a16409045bafa336a"),
            ("fit --type A --rank 3 --k 2",
             "9832ffefb2d2351f5c46abfe7927dc3302bbad88837cf11a00b71fdedd8674b3"),
            ("fit --type A --rank 4 --k 0",
             "12e3ab29838fb1aae3954788c0018eaf0429315e955de20043a6a13032e6212c"),
            ("fit --type A --rank 4 --k 1",
             "0180fb47b19a51009f829a11aaaa0bf06f75fa247fc82efe3febb6bae54c6d3e"),
            ("fit --type A --rank 4 --k 2",
             "a54bf69da4fb5a8800298d5a9441d875e396577cff9fdb55bf907175dfea378f"),
            ("fit --type D --rank 4 --k 0",
             "0ca7e7d32ea5b72e456e4b9ea3767af9c9177cfcf1ea78be0a254e4907f27ecf"),
            ("fit --type D --rank 4 --k 1",
             "6e5e6d9535bfe0c8e68e0d90b15dbfff0e53b25f3742856b57bd753ab1b2eb98"),
            ("fit --type D --rank 4 --k 2",
             "eebc4a6559484e10324e98769473d56e8b187d5f41d87c4e481b98e17a582c98"),
            ("fit --type E --rank 6 --k 0",
             "bf04a9c4f542d8306bd9498a454b1d805e08360ed43b8c3abe61c3279ddd83ea"),
            ("fit --type E --rank 6 --k 1",
             "ba4252d14f9a13fa78efbd6f4fd8457349298678ba8ee5034243cb41da691be1"),
            ("fit --type E --rank 6 --k 2",
             "f0158598be93c6c3b7226e0b8dba6769151e11141071589e203bd980593a972a"),
        ],
    )
    def test_stdout_bytes_are_pinned(self, argv, digest):
        code, text = run(argv.split())
        assert code == EXIT_OK
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_zise_values_match_size_multiset(self):
        code, doc = run_json(["enum", "--type", "A", "--rank", "2", "--b", "4"])
        assert code == EXIT_OK
        assert sorted(rat(r["zise"]) for r in doc["results"]) == [0, 1, 2, 2, 5]

    def test_failed_w_b_transport_survives_optimize(self):
        script = (
            "import sys\n"
            "from corelab import affine\n"
            "from corelab.cli import main\n"
            "affine.sommers_contains = lambda rs, b, y, d=1: False\n"
            "sys.exit(main(['enum', '--type', 'A', '--rank', '2', '--b', '4',"
            " '--stat', 'size']))\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == EXIT_MISMATCH, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["verdict"] == "fail"
        assert doc["results"] == [
            {"verdict": "mismatch(w_b^-1 moves a vertex of 4A off the height-4 region)"}
        ]

    def test_failed_coweight_transport_survives_optimize(self):
        # only the point check fails: w_b^-1 passed its own vertex check before it moved
        script = (
            "import sys\n"
            "from corelab import affine, lattice_enum\n"
            "from corelab.cli import main\n"
            "def moved(rs, b):\n"
            "    winv = affine.w_b_inverse(rs, b)\n"
            "    shift = (winv.translation[0] + 1,) + winv.translation[1:]\n"
            "    return affine.AffineElement(winv.linear, shift)\n"
            "lattice_enum.w_b_inverse = moved\n"
            "sys.exit(main(['enum', '--type', 'D', '--rank', '4', '--b', '5',"
            " '--lattice', 'coweight', '--stat', 'size']))\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == EXIT_MISMATCH, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["verdict"] == "fail"
        assert doc["results"] == [
            {"verdict": "mismatch(w_b^-1 moves a point of 5A off the height-5 region)"}
        ]


class TestVerify:
    def test_count_e8_at_seven(self):
        code, doc = run_json(["verify", "count", "--type", "E", "--rank", "8", "--b", "7"])
        assert code == EXIT_OK
        assert doc["results"][0]["value"] == "39/1"

    def test_variance_d4_at_five(self):
        code, doc = run_json(["verify", "variance", "--type", "D", "--rank", "4", "--b", "5"])
        assert code == EXIT_OK
        assert rat(doc["results"][0]["value"]) == 44

    def test_selector_batch_without_dilation(self):
        code, doc = run_json(
            ["verify", "strange", "macdonald", "genfun-A", "--type", "A", "--rank", "3",
             "--trunc", "15"]
        )
        assert code == EXIT_OK
        assert [r["verdict"] for r in doc["results"]] == ["match"] * 3

    def test_anderson_floor_and_max(self):
        code, doc = run_json(
            ["verify", "anderson", "floor", "max", "m3",
             "--type", "A", "--rank", "2", "--b", "5"]
        )
        assert code == EXIT_OK
        assert all(r["verdict"] == "match" for r in doc["results"])

    def test_floor_sweep_skips_noncoprime_dilation(self):
        code, doc = run_json(
            ["verify", "--type", "A", "--rank", "6", "--b-range", "1..12", "floor"]
        )
        assert code == EXIT_OK
        verdicts = {r["b"]: r["verdict"] for r in doc["results"]}
        assert verdicts.pop(7) == "skipped(b not coprime)"
        assert sorted(verdicts) == [b for b in range(1, 13) if b != 7]
        assert set(verdicts.values()) == {"match"}

    def test_moment_selectors_enumerate_each_dilation_once(self, monkeypatch):
        # every moment selector reads one report per dilation: one knapsack walk
        calls = []
        walk = stats.scaled_value_counts

        def counted(rs, b, lattice, form):
            calls.append(b)
            return walk(rs, b, lattice, form)

        monkeypatch.setattr(stats, "scaled_value_counts", counted)
        stats.moments.cache_clear()
        code, _ = run(["verify", "count", "max", "mean", "variance", "m3", "--type", "A",
                       "--rank", "3", "--b-range", "1..9"])
        assert code == EXIT_OK
        assert calls == [1, 3, 5, 7, 9]

    def test_count_sweep_is_budgeted_by_dp_states(self):
        code, doc = run_json(["verify", "--type", "E", "--rank", "7", "--b-range", "1..100",
                              "count"])
        assert code == EXIT_OK
        verdicts = {r["b"]: r["verdict"] for r in doc["results"]}
        assert sorted(verdicts) == list(range(1, 101))
        for b, verdict in verdicts.items():
            assert verdict == ("match" if gcd(b, 18) == 1 else "skipped(b not coprime)")

    def test_mismatch_exits_one(self, monkeypatch):
        monkeypatch.setattr(cli, "haiman_count", lambda rs, b: Q(999))
        code, doc = run_json(["verify", "count", "--type", "A", "--rank", "2", "--b", "4"])
        assert code == EXIT_MISMATCH
        assert doc["verdict"] == "fail"
        assert doc["results"][0]["verdict"].startswith("mismatch")

    def test_max_off_its_closed_value_is_a_mismatch_verdict(self, monkeypatch):
        closed = stats.closed_max
        monkeypatch.setattr(stats, "closed_max", lambda rs, b: closed(rs, b) + 1)
        stats.moments.cache_clear()
        try:
            code, doc = run_json(["verify", "max", "--type", "A", "--rank", "3", "--b", "5"])
        finally:
            stats.moments.cache_clear()
        assert code == EXIT_MISMATCH
        assert doc["verdict"] == "fail"
        (entry,) = doc["results"]
        assert entry["verdict"] == "mismatch(15!=16)"
        assert (entry["value"], entry["multiplicity"]) == ("15/1", 1)

    def test_moment_selectors_survive_optimize(self):
        argv = ["-m", "corelab.cli", "verify", "--type", "A", "--rank", "3", "--b-range",
                "1..9", "count", "max", "mean", "variance", "m3"]
        plain, optimized = (
            subprocess.run([sys.executable, *flags, *argv], capture_output=True, timeout=120)
            for flags in ([], ["-O"])
        )
        assert plain.returncode == optimized.returncode == EXIT_OK, optimized.stderr
        assert optimized.stdout == plain.stdout

    def test_failed_zise_identity_is_a_mismatch_verdict(self, monkeypatch):
        exact = stats.w_b_inverse

        def shifted(rs, b):
            winv = exact(rs, b)
            return AffineElement(winv.linear, (winv.translation[0] + 1,) + winv.translation[1:])

        monkeypatch.setattr(stats, "w_b_inverse", shifted)
        stats.zise_form.cache_clear()
        stats.moments.cache_clear()
        try:
            code, doc = run_json(["verify", "mean", "--type", "A", "--rank", "2", "--b", "4"])
        finally:
            stats.zise_form.cache_clear()
            stats.moments.cache_clear()
        assert code == EXIT_MISMATCH
        assert doc["verdict"] == "fail"
        assert doc["results"] == [{"verdict": "mismatch(zise identity F_1(w_b^-1 x) = F_b(x)"
                                   " fails at b=4)"}]

    def test_macdonald_e8_is_budgeted_before_enumerating(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("ellipsoid enumerated past the budget")

        argv = ["verify", "--type", "E", "--rank", "8", "macdonald"]
        with monkeypatch.context() as patch:
            patch.setattr(cli, "coroot_points_in_size_ellipsoid", refuse)
            assert run(argv + ["--max-points", "10"])[0] == EXIT_BUDGET
        code, doc = run_json(argv)
        assert code == EXIT_OK
        (entry,) = doc["results"]
        assert entry["verdict"] == "match" and sum(entry["value"]) == 70

    def test_macdonald_budget_admits_exactly_the_points(self, capsys):
        # A8 to q^30: 473 coefficient updates, then 4335 points
        argv = ["verify", "--type", "A", "--rank", "8", "macdonald", "--trunc", "30"]
        assert run(argv + ["--max-points", "4334"])[0] == EXIT_BUDGET
        assert capsys.readouterr().err == (
            "error: estimated 4335 points exceeds --max-points 4334\n")
        code, doc = run_json(argv + ["--max-points", "4335"])
        assert code == EXIT_OK
        assert doc["results"][0]["verdict"] == "match"

    def test_anderson_budget_admits_exactly_the_cores(self, monkeypatch, capsys):
        # the (7, 9)-cores: C(16, 7)/16 = 715 coroot points of the height-9 region
        def refuse(a, b):
            raise AssertionError("cores enumerated past the budget")

        argv = ["verify", "--type", "A", "--rank", "6", "--b", "9", "anderson"]
        with monkeypatch.context() as patch:
            patch.setattr(cli, "enumerate_simultaneous_cores", refuse)
            assert run(argv + ["--max-points", "714"])[0] == EXIT_BUDGET
        assert capsys.readouterr().err == (
            "error: estimated 715 points exceeds --max-points 714\n")
        code, doc = run_json(argv + ["--max-points", "715"])
        assert code == EXIT_OK
        assert doc["results"][0]["value"] == "715/1"

    def test_floor_budget_admits_exactly_the_terms(self, monkeypatch, capsys):
        def refuse(rs, b):
            raise AssertionError("floor sum evaluated past the budget")

        # the estimate is the exact number of terms of each floor sum, one per
        # 0 < j < h, whatever the dilation
        for family, rank, b, h in [("A", 3, 5, 4), ("A", 6, 12, 7), ("D", 4, 7, 6),
                                   ("E", 6, 7, 12)]:
            argv = ["verify", "--type", family, "--rank", str(rank), "--b", str(b), "floor"]
            with monkeypatch.context() as patch:
                patch.setattr(cli, "floor_identity_check", refuse)
                assert run(argv + ["--max-points", str(h - 2)]) == (EXIT_BUDGET, "")
            assert capsys.readouterr().err == (
                "error: estimated %d terms exceeds --max-points %d\n" % (h - 1, h - 2))
            code, doc = run_json(argv + ["--max-points", str(h - 1)])
            assert code == EXIT_OK
            assert doc["results"][0]["verdict"] == "match"
        huge = ["verify", "--type", "A", "--rank", "3", "--b", "30000001", "floor"]
        with monkeypatch.context() as patch:
            patch.setattr(cli, "floor_identity_check", refuse)
            assert run(huge + ["--max-points", "2"])[0] == EXIT_BUDGET
            assert capsys.readouterr().err == (
                "error: estimated 3 terms exceeds --max-points 2\n")
        code, doc = run_json(huge)
        assert code == EXIT_OK
        assert doc["results"][0]["verdict"] == "match"

    @pytest.mark.parametrize(
        "patch, argv, verdict",
        [
            # a core whose box count is not the size form at its coroot point
            ("class Off(cores.QuadraticForm):\n"
             "    def scaled_at(self, y, d=1):\n"
             "        return super().scaled_at(y, d) + 24\n"
             "cores.QuadraticForm = Off\n",
             "enum --type A --rank 2 --b 4 --stat size",
             "the 3-core of [-1, -1] has 5 boxes, not F_1 = 6"),
            # an abacus that reads no a-core
            ("cores.is_a_core = lambda p, a: a != 3\n",
             "enum --type A --rank 2 --b 4 --stat size",
             "the abacus of [-1, -1] reads [3, 1, 1], not a 3-core"),
            # an (a,b)-core that is not a b-core
            ("cores.is_a_core = lambda p, a: a != 4\n",
             "verify --type A --rank 2 --b 4 anderson",
             "the 3-core [3, 1, 1] is not a 4-core"),
            # one (a,b)-core short of Anderson's count
            ("exact = cores.core_points_in_sommers\n"
             "cores.core_points_in_sommers = lambda rs, b: lattice_enum.LatticePointSet(\n"
             "    rs, b, 'coroot', exact(rs, b).points[1:])\n",
             "verify --type A --rank 2 --b 4 anderson",
             "4 (3,4)-cores, not C(7,4)/7"),
            # one coroot point of bA short of Haiman's count
            ("exact = lattice_enum.iter_scaled_points\n"
             "lattice_enum.iter_scaled_points = lambda rs, b, lattice: (\n"
             "    list(exact(rs, b, lattice))[1:])\n",
             "enum --type A --rank 2 --b 4",
             "4 coroot points in 4A, not prod(b + e_i)/|W| = 5"),
            # a root-system table off: the constructor raises, not asserts
            ("from corelab import rootsys\n"
             "rootsys._exponents = lambda family, n: (1, 3)\n",
             "verify --type A --rank 2 strange",
             "the exponents of A2 sum to 4, not |Phi+| = 3"),
            # class shifts that tell no coweight from a coroot point
            ("exact = lattice_enum._knapsack_items\n"
             "lattice_enum._knapsack_items = lambda rs: tuple(\n"
             "    item[:4] + ((0,) * rs.rank,) for item in exact(rs))\n",
             "enum --type A --rank 2 --b 4",
             "|P^vee/Q^vee| = 1, not f = 3"),
        ],
        ids=["size-form", "a-core", "b-core", "anderson-count", "haiman-count", "exponents",
             "class-count"],
    )
    def test_failed_count_and_core_identities_survive_optimize(self, patch, argv, verdict):
        script = (
            "import sys\n"
            "from corelab import cores, lattice_enum\n"
            "from corelab.cli import main\n"
            + patch
            + "sys.exit(main(%r))\n" % argv.split()
        )
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == EXIT_MISMATCH, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["verdict"] == "fail"
        assert doc["results"] == [{"verdict": "mismatch(%s)" % verdict}]

    def test_fractional_ellipsoid_size_survives_optimize(self):
        script = (
            "import sys\n"
            "from corelab import lattice_enum\n"
            "from corelab.cli import main\n"
            "class Off(lattice_enum.QuadraticForm):\n"
            "    def scaled(self, square, linear, d=1, count=1):\n"
            "        return super().scaled(square, linear, d, count) - 1\n"
            "lattice_enum.QuadraticForm = Off\n"
            "sys.exit(main(['verify', '--type', 'A', '--rank', '2', 'macdonald']))\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == EXIT_MISMATCH, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["verdict"] == "fail"
        assert doc["results"] == [
            {"verdict": "mismatch(size 383/24 of [-2, -2] is not an integer)"}
        ]

    def test_failed_strange_formula_survives_optimize(self):
        script = (
            "import sys\n"
            "from corelab import rootsys\n"
            "from corelab.cli import main\n"
            "exact = rootsys._norm\n"
            "rootsys._norm = lambda gram, y: exact(gram, y) + 1\n"
            "sys.exit(main(['verify', '--type', 'A', '--rank', '2', 'strange']))\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == EXIT_MISMATCH, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["verdict"] == "fail"
        assert doc["results"] == [{"verdict": "mismatch(strange formula fails on A2)"}]

    def test_unknown_selector_is_usage(self):
        code, _ = run(["verify", "bogus", "--type", "A", "--rank", "2", "--b", "4"])
        assert code == EXIT_USAGE

    def test_single_noncoprime_dilation_is_usage(self):
        code, _ = run(["verify", "count", "--type", "A", "--rank", "2", "--b", "3"])
        assert code == EXIT_USAGE


class TestFit:
    def test_type_a_count_polynomial(self):
        code, doc = run_json(["fit", "--type", "A", "--rank", "2", "--k", "0"])
        assert code == EXIT_OK
        summary = doc["results"][0]
        assert summary["reciprocity"] == "pass"
        qp = summary["quasipolynomial"]
        assert qp["period"] == 1
        assert qp["components"][0] == [[1, 1], [3, 2], [1, 2]]

    def test_coroot_fit_covers_coprime_classes(self):
        code, doc = run_json(
            ["fit", "--type", "A", "--rank", "2", "--k", "1", "--lattice", "coroot"]
        )
        assert code == EXIT_OK
        summary = doc["results"][0]
        assert summary["classes"] == [1, 2]
        assert summary["quasipolynomial"]["components"][0] is None

    def test_noncoprime_residue_refused(self):
        code, _ = run(["fit", "--type", "A", "--rank", "2", "--k", "1",
                       "--lattice", "coroot", "--residue", "0"])
        assert code == EXIT_USAGE

    def test_budget_guard_trips(self):
        # k = 3 streams every point of every sample dilation
        code, _ = run(["fit", "--type", "E", "--rank", "7", "--k", "3"])
        assert code == EXIT_BUDGET

    def test_e7_variance_fit_is_budgeted_by_dp_sums(self, capsys):
        # 12 coweight classes of 14 samples each are charged one DP run to
        # b = 167: 168 budgets times f = 2 classes times C(7 + 1 + 2, 2) = 45 sums
        argv = ["fit", "--type", "E", "--rank", "7", "--k", "2"]
        code, doc = run_json(argv)
        assert code == EXIT_OK
        assert doc["results"][0]["reciprocity"] == "pass"
        assert [row["holdouts"] for row in doc["results"][1:]] == ["pass"] * 12
        assert run(argv + ["--max-points", str(168 * 2 * 45 - 1)])[0] == EXIT_BUDGET
        assert capsys.readouterr().err == (
            "error: estimated 15120 DP sums exceeds --max-points 15119\n")

    def test_dp_backed_fit_is_budgeted_by_dp_states(self):
        code, doc = run_json(
            ["fit", "--type", "E", "--rank", "8", "--k", "1", "--lattice", "coroot"]
        )
        assert code == EXIT_OK
        assert len(doc["results"][0]["classes"]) == 16
        code, _ = run(["fit", "--type", "A", "--rank", "2", "--k", "0", "--max-points", "3"])
        assert code == EXIT_BUDGET

    def test_streamed_coroot_fit_is_budgeted_over_polymethod_samples(self, capsys):
        # one polynomial for both coprime classes of A3, from b = 1, 3, ..., 13, each
        # holding Haiman's (b + 1)(b + 2)(b + 3)/|W| coroot points, |W| = 24
        estimate = sum((b + 1) * (b + 2) * (b + 3) // 24 for b in range(1, 14, 2))
        assert estimate == 336
        argv = ["fit", "--type", "A", "--rank", "3", "--k", "4", "--lattice", "coroot"]
        assert run(argv + ["--max-points", "335"]) == (EXIT_BUDGET, "")
        assert capsys.readouterr().err == (
            "error: estimated 336 points exceeds --max-points 335\n")
        code, doc = run_json(argv + ["--max-points", str(estimate)])
        assert code == EXIT_OK
        assert [row["holdouts"] for row in doc["results"][1:]] == ["pass", "pass"]

    def test_residue_fit_reads_a_dilation_of_its_class(self, monkeypatch):
        exact = ehrhart.weighted_lattice_sum
        read = []

        def recorded(rs, b, k, lattice, centered=False):
            read.append(b)
            return exact(rs, b, k, lattice, centered)

        monkeypatch.setattr(ehrhart, "weighted_lattice_sum", recorded)
        # A6 samples b = 1..5 for its k = 2 polynomial, so class 6 adds b = 6
        for family, rank in [("A", 3), ("D", 4), ("A", 6)]:
            rs = build_root_system(family, rank)
            m = ehrhart.quasi_period(rs, "coroot")
            for j in ehrhart.coprime_fit_classes(rs):
                read.clear()
                code, doc = run_json(["fit", "--type", family, "--rank", str(rank), "--k",
                                      "2", "--lattice", "coroot", "--residue", str(j)])
                assert code == EXIT_OK
                assert doc["results"][1]["holdouts"] == "pass"
                assert any(b % m == j for b in read), (family, j, read)

    def test_coprime_classes_skip_the_per_class_fit(self, monkeypatch):
        exact = ehrhart.fit_component
        fitted = []

        def counted(rs, k, lattice, residue):
            fitted.append(residue)
            return exact(rs, k, lattice, residue)

        monkeypatch.setattr(ehrhart, "fit_component", counted)
        code, doc = run_json(["fit", "--type", "E", "--rank", "8", "--k", "1",
                              "--lattice", "coroot"])
        assert code == EXIT_OK and len(doc["results"]) == 17
        assert fitted == []
        # class 0 of A4 holds no b coprime to h = 5, so only it is fitted alone
        code, doc = run_json(["fit", "--type", "A", "--rank", "4", "--k", "0",
                              "--lattice", "coroot"])
        assert code == EXIT_OK and len(doc["results"]) == 6
        assert fitted == [0]

    def test_coprime_polynomial_is_fitted_once_per_request(self, monkeypatch):
        exact = ehrhart.coprime_polynomial
        calls = []

        def counted(rs, k, centered, classes):
            calls.append(tuple(classes))
            return exact(rs, k, centered, classes)

        monkeypatch.setattr(ehrhart, "coprime_polynomial", counted)
        code, doc = run_json(["fit", "--type", "E", "--rank", "8", "--k", "1",
                              "--lattice", "coroot"])
        assert code == EXIT_OK and len(doc["results"]) == 17
        assert len(calls) == 1 and len(calls[0]) == 16

    @pytest.mark.parametrize(
        "argv, dilation, failed",
        [("fit --type A --rank 3 --k 4 --lattice coroot", 13, {1, 3}),
         ("fit --type A --rank 4 --k 0 --lattice coroot", 25, {0})],
        ids=["coprime", "alone"],
    )
    def test_holdout_miss_survives_optimize(self, argv, dilation, failed):
        # a holdout of the shared coprime fit, and one of class 0 of A4 fitted alone
        script = (
            "import sys\n"
            "from corelab import ehrhart\n"
            "from corelab.cli import main\n"
            "exact = ehrhart.weighted_lattice_sum\n"
            "def off(rs, b, k, lattice, centered=False):\n"
            "    return exact(rs, b, k, lattice, centered) + (b == %d)\n"
            "ehrhart.weighted_lattice_sum = off\n"
            "sys.exit(main(%r))\n" % (dilation, argv.split())
        )
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == EXIT_MISMATCH, proc.stderr
        rows = json.loads(proc.stdout)["results"][1:]
        assert {row["residue"] for row in rows} >= failed
        for row in rows:
            expected = "fail(period/degree assumption violated)" if row["residue"] in failed else "pass"
            assert row["holdouts"] == expected

    def test_holdout_miss_fails_every_coprime_row(self, monkeypatch):
        argv = ["fit", "--type", "A", "--rank", "3", "--k", "4", "--lattice", "coroot"]
        assert run(argv)[0] == EXIT_OK
        monkeypatch.setattr(ehrhart, "weighted_lattice_sum", off_at(13))
        code, doc = run_json(argv)
        assert code == EXIT_MISMATCH
        rows = doc["results"][1:]
        assert [row["residue"] for row in rows] == [1, 3]
        assert {row["holdouts"] for row in rows} == {"fail(period/degree assumption violated)"}


class TestSeries:
    def test_type_a_product_and_char_poly(self):
        code, doc = run_json(["series", "--type", "A", "--rank", "2", "--trunc", "18"])
        assert code == EXIT_OK
        entry = doc["results"][0]
        assert entry["char_poly"] == [1, 1, 1]
        assert entry["char_poly_at_one"] == entry["index"] == 3
        assert entry["core_product_matches"] is True
        assert entry["coefficients"][:6] == [1, 1, 2, 0, 2, 1]

    def test_coxeter_polynomial_is_computed_once(self, monkeypatch):
        calls = []
        exact = genfun._char_poly_coeffs

        def counted(matrix):
            calls.append(len(matrix))
            return exact(matrix)

        genfun.coxeter_char_poly.cache_clear()
        monkeypatch.setattr(genfun, "_char_poly_coeffs", counted)
        code, _ = run(["series", "--type", "E", "--rank", "8", "--trunc", "60"])
        assert code == EXIT_OK and calls == [8]

    def test_non_simply_laced_has_char_poly_only(self):
        code, doc = run_json(["series", "--type", "B", "--rank", "3"])
        assert code == EXIT_OK
        entry = doc["results"][0]
        assert entry["coefficients"] is None
        assert entry["char_poly_at_one"] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["series", "--type", "A", "--rank", "2"],
            ["verify", "macdonald", "--type", "A", "--rank", "2"],
            ["verify", "genfun-A", "--type", "A", "--rank", "2"],
        ],
        ids=["series", "macdonald", "genfun-A"],
    )
    def test_negative_truncation_is_usage(self, argv, capsys):
        code, text = run(argv + ["--trunc", "-1"])
        assert (code, text) == (EXIT_USAGE, "")
        assert capsys.readouterr().err == "error: --trunc must be nonnegative\n"

    @pytest.mark.parametrize("selector", ["series", "genfun-A"])
    def test_series_is_budgeted_by_coefficient_updates(self, selector, monkeypatch):
        def refuse(*args):
            raise AssertionError("series expanded past the budget")

        monkeypatch.setattr(cli, "macdonald_series", refuse)
        monkeypatch.setattr(cli, "core_product_series", refuse)
        command = ["series"] if selector == "series" else ["verify", "genfun-A"]
        argv = command + ["--type", "A", "--rank", "2"]
        assert run(argv + ["--trunc", "100000"])[0] == EXIT_BUDGET
        assert run(argv + ["--trunc", "10", "--max-points", "120"])[0] == EXIT_BUDGET

    def test_budget_error_names_coefficient_updates(self, capsys):
        # the Macdonald and the 3-core series of A2, each 93656379 terms read
        code, text = run(["series", "--type", "A", "--rank", "2", "--trunc", "100000"])
        assert (code, text) == (EXIT_BUDGET, "")
        assert capsys.readouterr().err == (
            "error: estimated 187312758 coefficient updates exceeds --max-points 50000000\n")

    def test_budget_admits_exactly_the_coefficient_updates(self):
        # A2 to q^10: 68 terms read by each of the two series
        for command in (["series"], ["verify", "genfun-A"]):
            argv = command + ["--type", "A", "--rank", "2", "--trunc", "10"]
            assert run(argv + ["--max-points", "135"])[0] == EXIT_BUDGET
            code, doc = run_json(argv + ["--max-points", "136"])
            assert code == EXIT_OK
            assert doc["results"] == run_json(argv)[1]["results"]

    def test_only_the_expanded_series_are_charged(self):
        # verify macdonald expands one series; B3 has no product formula and expands none
        argv = ["verify", "macdonald", "--type", "A", "--rank", "2", "--trunc", "10"]
        assert run(argv + ["--max-points", "67"])[0] == EXIT_BUDGET
        assert run(argv + ["--max-points", "68"])[0] == EXIT_OK
        code, doc = run_json(["series", "--type", "B", "--rank", "3", "--trunc", "1000000000",
                                "--max-points", "0"])
        assert code == EXIT_OK and doc["results"][0]["coefficients"] is None

    def test_large_truncation_runs_in_the_default_budget(self):
        # (trunc + 1)^2 = 50027329 once refused this request; it reads 3357243 terms
        code, doc = run_json(["series", "--type", "E", "--rank", "8", "--trunc", "7072"])
        assert code == EXIT_OK
        assert len(doc["results"][0]["coefficients"]) == 7073

    @pytest.mark.parametrize(
        "corruption",
        # Phi_6 Phi_3 in place of Phi_6 Phi_2^2; one more factor 1 + q
        ["rootsys.build_root_system('D', 4).exponents = (1, 2, 4, 5)",
         "genfun.macdonald_factors = lambda rs: ((1, -1), (2, 1)) + factors(rs)"],
        ids=["exponents", "factors"],
    )
    @pytest.mark.parametrize("command", ["series", "verify macdonald"])
    def test_failed_eta_factors_survive_optimize(self, corruption, command):
        script = (
            "import sys\n"
            "from corelab import genfun, rootsys\n"
            "from corelab.cli import main\n"
            "factors = genfun.macdonald_factors\n"
            + corruption + "\n"
            "sys.exit(main(%r.split() + ['--type', 'D', '--rank', '4']))\n" % command
        )
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == EXIT_MISMATCH, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["verdict"] == "fail"
        assert doc["results"] == [
            {"verdict": "mismatch(the eta factors of the exponents do not expand to f)"}]

    def test_failed_core_product_survives_optimize(self):
        script = (
            "import sys\n"
            "from types import SimpleNamespace\n"
            "from corelab import cli\n"
            "cli.core_product_series = lambda a, trunc: SimpleNamespace(coeffs=(1,) * trunc)\n"
            "sys.exit(cli.main(['series', '--type', 'A', '--rank', '2', '--trunc', '10']))\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == EXIT_MISMATCH, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["verdict"] == "fail"
        assert doc["results"][0]["core_product_matches"] is False

    def test_failed_coxeter_identity_survives_optimize(self):
        script = (
            "import sys\n"
            "from corelab import genfun\n"
            "from corelab.cli import main\n"
            "genfun._char_poly_coeffs = lambda matrix: (1, 2, 1)\n"
            "sys.exit(main(['series', '--type', 'A', '--rank', '2']))\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == EXIT_MISMATCH, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["verdict"] == "fail"
        assert doc["results"] == [
            {"verdict": "mismatch(Coxeter polynomial at 1 is 4, not the index 3)"}
        ]


class TestStat:
    def test_moment_sweep_with_skips(self):
        code, doc = run_json(["stat", "--type", "A", "--rank", "2", "--b-range", "2..4"])
        assert code == EXIT_OK
        by_b = {r["b"]: r for r in doc["results"]}
        assert by_b[3]["verdict"] == "skipped(b not coprime)"
        assert by_b[4]["mean"] == "2/1" and by_b[4]["variance"] == "14/5"
        assert by_b[4]["grade"] == "match"


    def test_twice_attained_maximum_is_a_mismatch(self):
        script = (
            "import sys\n"
            "from corelab import stats\n"
            "from corelab.cli import main\n"
            "exact = stats.scaled_value_counts\n"
            "def second_maximiser(*args):\n"
            "    counts = exact(*args)\n"
            "    return {**counts, max(counts): counts[max(counts)] + 1}\n"
            "stats.scaled_value_counts = second_maximiser\n"
            "sys.exit(main(['stat', '--type', 'A', '--rank', '2', '--b', '4']))\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == EXIT_MISMATCH, proc.stderr
        (row,) = json.loads(proc.stdout)["results"]
        assert (row["max"], row["max_multiplicity"]) == ("5/1", 2)
        assert row["verdicts"]["max"] == "mismatch(multiplicity 2)"
        assert row["grade"] == "mismatch"

    def test_walk_short_of_a_point_is_a_count_mismatch(self):
        # the count is read from the one walk of the moments, not from the DP
        script = (
            "import sys\n"
            "from corelab import stats\n"
            "from corelab.cli import main\n"
            "exact = stats.scaled_value_counts\n"
            "def short(*args):\n"  # one point of the smallest value is dropped
            "    counts = exact(*args)\n"
            "    low = min(counts)\n"
            "    counts[low] -= 1\n"
            "    return {v: m for v, m in counts.items() if m}\n"
            "stats.scaled_value_counts = short\n"
            "sys.exit(main(['stat', '--type', 'A', '--rank', '2', '--b', '4']))\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == EXIT_MISMATCH, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["verdict"] == "fail"
        (row,) = doc["results"]
        assert row["count"] == 4
        assert row["verdicts"]["count"] == "mismatch(4!=5)"
        assert row["grade"] == "mismatch"


class TestExperiment:
    def test_weak_order_containment(self):
        code, doc = run_json(
            ["experiment", "weak-order", "--type", "A", "--rank", "2", "--b", "4"]
        )
        assert code == EXIT_OK
        assert doc["grade"] == "conjecture" and doc["verdict"] == "report"
        entry = doc["results"][0]
        assert entry["contained"] == entry["total"] == 5
        assert entry["verdict"] == "consistent"

    def test_weak_order_sweep_skips_non_coprime_b(self):
        argv = ["experiment", "weak-order", "--type", "A", "--rank", "2"]
        code, doc = run_json(argv + ["--b-range", "2..4"])
        assert code == EXIT_OK
        assert [(r["b"], r["verdict"]) for r in doc["results"]] == [
            (2, "consistent"), (3, "skipped(b not coprime)"), (4, "consistent")
        ]
        assert doc["results"][1] == {"b": 3, "verdict": "skipped(b not coprime)"}
        assert run(argv + ["--b", "3"])[0] == EXIT_USAGE

    def test_weak_order_respects_point_budget(self):
        argv = ["experiment", "weak-order", "--type", "A", "--rank", "2", "--b", "4"]
        assert run(argv + ["--max-points", "4"])[0] == EXIT_BUDGET
        assert run(argv)[0] == EXIT_OK

    def test_fuss_mean_value(self):
        code, doc = run_json(["experiment", "cn-fuss", "--rank", "2", "--m", "1"])
        assert code == EXIT_OK
        entry = doc["results"][0]
        assert entry["conjecture"] == "11/3"
        assert entry["verdict"] == "consistent"

    def test_fuss_is_budgeted_before_any_work(self, monkeypatch):
        def refuse(n, m):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr(cli, "experiment_cn_fuss", refuse)
        argv = ["experiment", "cn-fuss", "--rank", "3", "--m", "1000", "--max-points", "1000"]
        assert run(argv)[0] == EXIT_BUDGET

    def test_top_coefficient_table_entry(self):
        code, doc = run_json(
            ["experiment", "top-coeff", "--type", "A", "--rank", "2", "--k", "4"]
        )
        assert code == EXIT_OK
        entry = doc["results"][0]
        assert entry["verdict"] == "consistent"
        assert rat(entry["ratio"]) == rat(entry["expected"])

    def test_top_coefficient_theorem_mismatch_exits_one(self, monkeypatch):
        monkeypatch.setattr(ehrhart, "_expected_leading_ratio", lambda rs, k: Q(1, 7))
        code, doc = run_json(["experiment", "top-coeff", "--type", "A", "--rank", "3",
                              "--k", "2"])
        assert code == EXIT_MISMATCH
        entry = doc["results"][0]
        assert entry["grade"] == "theorem"
        assert entry["verdict"] == "mismatch(1/120!=1/7)"

    def test_top_coefficient_holdout_miss_exits_one(self, monkeypatch):
        argv = ["experiment", "top-coeff", "--type", "A", "--rank", "3", "--k", "3"]
        assert run_json(argv)[1]["results"][0]["verdict"] == "consistent"
        monkeypatch.setattr(ehrhart, "weighted_lattice_sum", off_at(9))
        code, doc = run_json(argv)
        assert code == EXIT_MISMATCH
        entry = doc["results"][0]
        assert entry["verdict"] == "mismatch(period/degree assumption violated)"
        assert entry["ratio"] is None

    def test_top_coefficient_mismatch_survives_optimize(self):
        script = (
            "import sys\n"
            "from fractions import Fraction\n"
            "from corelab import ehrhart\n"
            "from corelab.cli import main\n"
            "ehrhart._expected_leading_ratio = lambda rs, k: Fraction(1, 7)\n"
            "sys.exit(main(['experiment', 'top-coeff', '--type', 'D', '--rank', '4',"
            " '--k', '2']))\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == EXIT_MISMATCH, proc.stderr
        entry = json.loads(proc.stdout)["results"][0]
        assert entry["verdict"] == "mismatch(1/60!=1/7)"

    def test_top_coefficient_table_counterexample_exits_zero(self):
        code, doc = run_json(["experiment", "top-coeff", "--type", "D", "--rank", "4",
                              "--k", "6"])
        assert code == EXIT_OK
        assert doc["results"][0]["verdict"] == "counterexample(5561/11211200!=5561/5605600)"

    def test_weighting_trials_are_budgeted_before_any_trial(self, monkeypatch):
        def refuse(n, trials, seed):
            raise AssertionError("the experiment ran")

        argv = ["experiment", "cn-weighting", "--rank", "2", "--trials", "51"]
        with monkeypatch.context() as patch:
            patch.setattr(cli, "experiment_cn_selfconjugate_weighting", refuse)
            assert run(argv + ["--max-points", "50"])[0] == EXIT_BUDGET
        code, doc = run_json(argv + ["--max-points", "51"])
        assert code == EXIT_OK
        assert doc["results"][0]["trials"] == 51

    def test_non_self_conjugate_core_survives_optimize(self):
        script = (
            "import sys\n"
            "from corelab import stats\n"
            "from corelab.cli import main\n"
            "stats.toggle_corners = lambda parts, m, residues: (2,)\n"
            "sys.exit(main(['experiment', 'cn-weighting', '--rank', '2', '--trials', '3']))\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == EXIT_MISMATCH, proc.stderr
        doc = json.loads(proc.stdout)
        assert (doc["grade"], doc["verdict"]) == ("conjecture", "fail")
        assert doc["results"] == [
            {"verdict": "mismatch(the core of the word (1, 0, 1, 2, 1, 1) is not self-conjugate)"}
        ]

    def test_weighting_trials_respect_seed(self):
        argv = ["experiment", "cn-weighting", "--rank", "2", "--trials", "20",
                "--seed", "7"]
        _, first = run(argv)
        _, second = run(argv)
        assert first == second
        doc = json.loads(first)
        assert doc["results"][0]["verdict"] == "consistent"


# the selectors that apply to simply-laced types only, and to type A only
SIMPLY_LACED_ONLY = ("max", "floor", "macdonald")
TYPE_A_ONLY = ("anderson", "genfun-A")

# the small types the admission tests draw from
SMALL_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 4),
               ("E", 6), ("F", 4), ("G", 2)]

# a small value of each option of the command table but --type and --rank
SMALL_VALUES = {
    "--b": st.integers(-1, 8).map(str),
    "--b-range": st.integers(0, 8).flatmap(lambda lo: st.integers(lo - 1, 8).map(
        lambda hi: "%d..%d" % (lo, hi))),
    "--k": st.integers(0, 3).map(str),
    "--trunc": st.integers(-1, 6).map(str),
    "--lattice": st.sampled_from(["coroot", "coroot", "coweight"]),
    "--stat": st.sampled_from(["size", "zise"]),
    "--residue": st.integers(-1, 3).map(str),
    "--m": st.integers(0, 2).map(str),
    "--trials": st.integers(0, 3).map(str),
    "--seed": st.integers(0, 3).map(str),
}


@st.composite
def small_request(draw, words):
    """A request of the row ``words`` (a verify selector is its own row): a small type
    and rank, each other option of the row given or left out, and a small budget."""
    name = " ".join(words[:1] if words[0] == "verify" else words)
    row = cli._COMMANDS[name][2].split()
    family, rank = draw(st.sampled_from(SMALL_TYPES))
    argv = list(words) + (["--type", family] if "--type" in row else []) + ["--rank", str(rank)]
    # a dilation, a sweep, neither or, one in twelve, both
    dilations = draw(st.sampled_from([()] * 3 + [("--b",)] * 4 + [("--b-range",)] * 4
                                     + [("--b", "--b-range")]))
    for flag in row:
        if flag in SMALL_VALUES and (flag in dilations if flag.startswith("--b")
                                     else draw(st.booleans())):
            argv += [flag, draw(SMALL_VALUES[flag])]
    return argv + ["--format", draw(st.sampled_from(["json", "csv", "table"])),
                   "--max-points", draw(st.sampled_from(["0", "1000", "20000", "20000"]))]


class TestAdmission:
    @pytest.mark.parametrize("selector", list(cli._VERIFY))
    @pytest.mark.parametrize("family, rank", [("A", 1), ("B", 3), ("C", 3), ("D", 4), ("E", 6),
                                              ("F", 4), ("G", 2)])
    def test_selector_outside_its_types_is_usage_whatever_the_dilations(
            self, selector, family, rank, capsys):
        # usage comes before the budget, and before the dilations are read
        h = build_root_system(family, rank).coxeter_number
        applies = family == "A" or (selector not in TYPE_A_ONLY
                                    and (family in "DE" or selector not in SIMPLY_LACED_ONLY))
        needs = "type A" if selector in TYPE_A_ONLY else "a simply-laced root system"
        argv = ["verify", "--type", family, "--rank", str(rank), selector, "--max-points", "0"]
        for dilations in (["--b", str(h + 1)], ["--b", str(h)], ["--b-range", "%d..%d" % (h, h)],
                          ["--b-range", "%d..%d" % (h, h + 1)], []):
            code, text = run(argv + dilations)
            err = capsys.readouterr().err
            if applies:
                assert " requires " not in err
            else:
                assert (code, text, err) == (EXIT_USAGE, "", "error: %s requires %s\n"
                                             % (selector, needs))

    @pytest.mark.parametrize(
        "words",
        [name.split() for name in cli._COMMANDS if name != "verify"]
        + [["verify", selector] for selector in cli._VERIFY],
        ids=" ".join,
    )
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_small_requests_exit_cleanly(self, words, data):
        # every small request answers, is refused as usage or over budget, and never
        # raises; a refused one writes nothing to stdout
        code, text = run(data.draw(small_request(words)))
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_BUDGET)
        if code != EXIT_OK:
            assert text == ""


class TestPlumbing:
    def test_missing_type_is_usage(self):
        code, _ = run(["enum", "--b", "4"])
        assert code == EXIT_USAGE

    def test_malformed_range_is_usage(self):
        code, _ = run(["verify", "mean", "--type", "A", "--rank", "2",
                       "--b-range", "4-7"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        ["verify --type A --rank 400 strange", "series --type D --rank 400",
         "experiment cn-fuss --rank 400 --m 1", "experiment cn-weighting --rank 400 --trials 1"],
    )
    def test_huge_rank_is_refused_before_the_build(self, argv, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("root system built past the budget")

        monkeypatch.setattr(cli, "build_root_system", refuse)
        monkeypatch.setattr(cli, "experiment_cn_selfconjugate_weighting", refuse)
        start = time.perf_counter()
        code, text = run(argv.split())
        assert time.perf_counter() - start < 1
        assert (code, text) == (EXIT_BUDGET, "")
        assert capsys.readouterr().err == (
            "error: estimated 25600000000 root-system steps exceeds 50000000, the larger"
            " of --max-points and its default\n")

    def test_build_budget_is_rank_to_the_fourth_above_the_default(self):
        default, raised, tiny = (SimpleNamespace(max_points=cap)
                                 for cap in (50_000_000, 52_200_625, 0))
        assert cli._admit_build("A", 84, default) == cli._admit_build("A", 84, tiny)
        assert cli._admit_build("C", 85, raised).rank == 85
        with pytest.raises(cli.BudgetError, match="estimated 52200625 root-system steps"):
            cli._admit_build("C", 85, default)
        # the rank is checked as usage before it is charged
        assert run(["verify", "--type", "A", "--rank", "-400", "strange"])[0] == EXIT_USAGE
        assert run(["experiment", "cn-fuss", "--rank", "-400", "--m", "1"])[0] == EXIT_USAGE

    @pytest.mark.parametrize("argv", ["stat", "verify mean", "experiment weak-order"])
    def test_sweep_is_charged_its_total(self, argv, monkeypatch, capsys):
        # the odd b <= 1999 cost (b + 1) / 2 <= 1000 points each, 500500 together
        def refuse(*args):
            raise AssertionError("work done past the budget")

        for name in BUDGETED_WORK:
            monkeypatch.setattr(cli, name, refuse)
        argv = argv.split() + "--type A --rank 1 --b-range 1..2000 --max-points 100000".split()
        assert run(argv) == (EXIT_BUDGET, "")
        assert capsys.readouterr().err.startswith("error: estimated ")

    def test_sweep_admits_exactly_its_total(self):
        # the odd b <= 19 cost 1, ..., 10 points: 55 together
        argv = "stat --type A --rank 1 --b-range 1..20 --max-points".split()
        assert run(argv + ["54"])[0] == EXIT_BUDGET
        code, doc = run_json(argv + ["55"])
        assert code == EXIT_OK
        assert [r["b"] for r in doc["results"]] == list(range(1, 21))
        # one DP run to b = 10 serves the sweep: (10 + 1) f = 33 sums
        argv = "verify count --type A --rank 2 --b-range 1..10 --max-points".split()
        assert run(argv + ["32"])[0] == EXIT_BUDGET
        code, doc = run_json(argv + ["33"])
        assert code == EXIT_OK
        assert [r["verdict"] for r in doc["results"]].count("match") == 7

    @pytest.mark.parametrize(
        "argv, code",
        [("verify --type A --rank 1 --b-range 1..1000000000000000 strange", EXIT_OK),
         ("verify --type A --rank 1 --b-range 1..1000000000000000 count", EXIT_BUDGET),
         ("stat --type A --rank 1 --b-range 1..1000000000000000", EXIT_BUDGET),
         ("enum --type A --rank 1 --b-range 1..1000000000000000", EXIT_USAGE)],
    )
    def test_huge_sweep_builds_no_dilation_list(self, argv, code):
        start = time.perf_counter()
        assert run(argv.split())[0] == code
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize(
        "argv",
        ["stat --type A --rank 1 --b-range=-100000000000000..1",
         "verify --type A --rank 2 --b-range 0..4 count strange",
         "enum --type A --rank 2 --b-range 0..0",
         "experiment weak-order --type A --rank 2 --b-range 0..4"],
    )
    def test_sweep_starting_below_one_is_usage(self, argv, capsys):
        # skipped rows are not charged, so a sweep from far below 1 would have no bound
        start = time.perf_counter()
        assert run(argv.split()) == (EXIT_USAGE, "")
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == "error: --b-range must start at 1 or above\n"

    @pytest.mark.parametrize(
        "argv, estimate, unit",
        [("verify --type A --rank 1 --b-range 1..100000000000000 floor", 50000000000000, "terms"),
         ("fit --type A --rank 2 --k 3000000", 18000039000019, "points"),
         ("experiment top-coeff --type A --rank 3 --k 1000000", 41667041668750002, "points")],
    )
    def test_unbounded_sweeps_and_fits_are_refused_in_closed_form(
            self, argv, estimate, unit, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("dilations listed past the budget")

        def unlisted(*args):  # the real plan, whose dilations raise on their first next
            plan = ehrhart.fit_plan(*args)
            for fit in plan:
                fit.dilations = (refuse() for _ in (None,))
            return plan

        monkeypatch.setattr(cli, "fit_plan", unlisted)
        monkeypatch.setattr(cli, "floor_identity_check", refuse)
        start = time.perf_counter()
        assert run(argv.split()) == (EXIT_BUDGET, "")
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == (
            "error: estimated %d %s exceeds --max-points 50000000\n" % (estimate, unit))

    @pytest.mark.parametrize("family, rank", [("A", 1), ("A", 3), ("A", 4), ("D", 4), ("E", 6),
                                              ("B", 3), ("G", 2)])
    def test_sweep_counts_its_coprime_dilations_in_closed_form(self, family, rank):
        rs = build_root_system(family, rank)
        h = rs.coxeter_number
        charged = []

        def cost(rs, b):
            charged.append(b)
            return 1, "terms"

        for lo in range(-3, 2 * h + 2):
            for hi in range(lo, lo + 3 * h):
                coprime = [b for b in range(max(lo, 1), hi + 1) if gcd(b, h) == 1]
                if not coprime:
                    continue
                charged.clear()  # over budget: only the smallest dilation is charged
                with pytest.raises(cli.BudgetError, match="estimated %d terms" % len(coprime)):
                    list(cli._admit(rs, range(lo, hi + 1), cost,
                                    SimpleNamespace(max_points=len(coprime) - 1), []))
                assert charged == [coprime[0]]
                admitted = cli._admit(rs, range(lo, hi + 1), cost,
                                      SimpleNamespace(max_points=len(coprime)), [])
                assert list(admitted) == coprime

    def test_budget_exit_on_tiny_cap(self):
        for command in (["enum"], ["verify", "count"]):
            code, _ = run(command + ["--type", "A", "--rank", "2", "--b", "4",
                                     "--max-points", "3"])
            assert code == EXIT_BUDGET

    @pytest.mark.parametrize(
        "command",
        [["verify", name] for name in cli._VERIFY]
        + [name.split() for name in cli._COMMANDS if name.startswith("experiment ")]
        + [["enum", "--stat", "size"], ["enum", "--stat", "zise"], ["stat"], ["fit"],
           ["series"]],
        ids=" ".join,
    )
    def test_every_selector_and_experiment_is_budgeted(self, command, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("work done past the budget")

        for name in BUDGETED_WORK:
            monkeypatch.setattr(cli, name, refuse)
        # only the options of the command's row
        code, text = run(request(*command) + ["--max-points", "0"])
        if command == ["verify", "strange"]:  # one closed formula, nothing to count
            assert code == EXIT_OK
            return
        assert (code, text) == (EXIT_BUDGET, "")
        assert capsys.readouterr().err.startswith("error: estimated ")

    @pytest.mark.parametrize(
        "name, flag",
        [(name, flag) for name, (_, _, row) in cli._COMMANDS.items()
         for flag in VALUES if flag not in row.split()],
    )
    def test_every_option_outside_the_row_is_usage(self, name, flag, capsys):
        argv = request(*name.split(), *(["count"] if name == "verify" else []))
        assert run(argv)[0] == EXIT_OK
        code, text = run(argv + [flag, VALUES[flag]])
        assert (code, text) == (EXIT_USAGE, "")
        assert "unrecognized arguments: %s " % flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        ["stat --type A --rank 2 --b 4 --m 2",
         "verify --type A --rank 2 --b 4 count --max 3",
         "enum --type A --rank 2 --b 4 --st size",
         "experiment cn-fuss --rank 2 --form csv"],
    )
    def test_abbreviated_flags_are_usage(self, argv, capsys):
        code, text = run(argv.split())
        assert (code, text) == (EXIT_USAGE, "")
        assert "unrecognized arguments: --" in capsys.readouterr().err

    def test_readme_table_is_the_parser(self):
        # README's command table lists, per command and experiment, the options
        # its parser accepts besides --format and --max-points
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        documented = {}
        for line in readme.splitlines():
            row = re.fullmatch(r"\| `([a-z -]+)` \| (.*) \|", line)
            if row:
                options = set(re.findall(r"--[a-z-]+", row[2]))
                documented[row[1]] = options | ({"selectors"} if "selectors" in row[2] else set())
        accepted = {name: {option for action in cli._build_parser(name)._actions
                           for option in action.option_strings or [action.dest]}
                    for name in cli._COMMANDS}
        common = {"-h", "--help", "--format", "--max-points"}
        assert all(common <= options for options in accepted.values())
        assert documented == {name: options - common for name, options in accepted.items()}
        assert set().union(*documented.values()) == set(VALUES) | {"selectors"}

    def test_readme_names_where_each_selector_applies(self):
        # one README sentence per class of the table's first column
        text = " ".join((Path(__file__).resolve().parent.parent / "README.md").read_text().split())
        classes = {}
        for name, (needs, _, _) in cli._VERIFY.items():
            classes.setdefault(needs, []).append("`%s`" % name)
        assert len(classes) == 3
        for needs, names in classes.items():
            sentence = "%s and %s %s" % (", ".join(names[:-1]), names[-1],
                                         "require " + needs if needs else "apply to every type")
            assert sentence in text

    def test_unknown_option_shows_its_own_commands_usage(self, capsys):
        code, text = run("experiment cn-fuss --type A --rank 2".split())
        assert (code, text) == (EXIT_USAGE, "")
        err = capsys.readouterr().err
        assert err.startswith("usage: corelab experiment cn-fuss [-h] [--rank RANK]")
        assert "corelab experiment cn-fuss: error: unrecognized arguments: --type A" in err

    def test_help_lists_every_command(self, capsys):
        # -h lists the commands, experiment -h the experiments, each with its help
        for argv in (["-h"], ["experiment", "-h"]):
            assert run(argv) == (EXIT_OK, "")
        text = " ".join(capsys.readouterr().out.split())
        for name, (_, help_text, _) in cli._COMMANDS.items():
            assert " %s %s " % (name.split()[-1], help_text) in text

    def test_importing_the_cli_skips_unused_stdlib_modules(self):
        # records are plain classes, and only --format csv imports csv
        script = "import sys, corelab.cli; print('\\n'.join(sys.modules))"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=60, check=True)
        assert {"dataclasses", "inspect", "csv"}.isdisjoint(proc.stdout.splitlines())

    @pytest.mark.parametrize(
        "argv",
        ["stat --type A --rank 2 --b 4", "verify --type A --rank 2 --b 4 count",
         "series --type A --rank 2 --trunc 4", "experiment weak-order --type A --rank 2 --b 4",
         "experiment cn-fuss --rank 2"],
    )
    def test_coweight_lattice_is_usage_outside_enum_and_fit(self, argv, capsys):
        # these commands read the coroot lattice only; the default stays in the config
        code, text = run(argv.split() + ["--lattice", "coweight"])
        assert (code, text) == (EXIT_USAGE, "")
        assert "--lattice coweight applies to enum and fit only" in capsys.readouterr().err
        code, doc = run_json(argv.split())
        assert code == EXIT_OK
        assert doc["config"]["lattice"] == "coroot"

    def test_cli_imports_only_public_corelab_names(self):
        tree = ast.parse(open(cli.__file__).read())
        private = [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").startswith("corelab"))
            for alias in node.names
            if alias.name.startswith("_")
        ]
        assert private == []

    def test_parser_is_built_once_per_process(self, monkeypatch):
        built = []

        class Counted(argparse.ArgumentParser):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("prog"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "argparse", SimpleNamespace(ArgumentParser=Counted))
        cli._build_parser.cache_clear()
        try:
            argv = ["verify", "mean", "--type", "A", "--rank", "2", "--b", "4"]
            first = run(argv)
            after_first = len(built)
            second = run(argv)
        finally:
            cli._build_parser.cache_clear()
        assert after_first > 0
        assert len(built) == after_first
        assert first == second

    def test_readme_examples_survive_optimize(self):
        # every example in one process per interpreter flag set: exit code and stdout
        script = (
            "import io, json, sys\n"
            "from corelab.cli import main\n"
            "runs = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    out = io.StringIO()\n"
            "    runs.append([main(argv, out=out), out.getvalue()])\n"
            "json.dump(runs, sys.stdout)\n"
        )
        plain, optimized = (
            subprocess.run([sys.executable, *flags, "-c", script, json.dumps(README_EXAMPLES)],
                           capture_output=True, text=True, timeout=300)
            for flags in ([], ["-O"])
        )
        assert plain.returncode == optimized.returncode == 0, optimized.stderr
        assert len(README_EXAMPLES) == 11
        assert [code for code, _ in json.loads(plain.stdout)] == [EXIT_OK] * 11
        assert optimized.stdout == plain.stdout

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "corelab.cli", "series", "--type", "G",
             "--rank", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK
        doc = json.loads(proc.stdout)
        assert doc["results"][0]["char_poly_at_one"] == 1
