import csv
import hashlib
import io
import json
import os
import random
import stat
import subprocess
import sys
from math import prod

import pytest

from oracles import heavy_draws, random_admissible
import circulant_terms.circulant as circ
from circulant_terms import cli


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_records(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestTable:
    def test_small_table(self, capsys):
        code, out, err = run(capsys, ["table", "--max-n", "3"])
        assert code == 0
        assert err == ""
        assert out.splitlines() == [
            "n,d,p,equal",
            "1,1,1,true",
            "2,2,2,true",
            "3,4,4,true",
        ]

    def test_equal_column_flips_at_6(self, capsys):
        code, out, _ = run(capsys, ["table", "--max-n", "6"])
        assert code == 0
        assert out.splitlines()[-1] == "6,68,80,false"
        assert out.splitlines()[-2] == "5,26,26,true"

    def test_range_validated(self, capsys):
        assert run(capsys, ["table", "--max-n", "0"])[0] == 1
        assert run(capsys, ["table", "--max-n", "13"])[0] == 1

    def test_json_matches_csv(self, capsys):
        _, csv_out, _ = run(capsys, ["table", "--max-n", "4"])
        code, json_out, _ = run(capsys, ["table", "--max-n", "4",
                                         "--format", "json"])
        assert code == 0
        assert json.loads(json_out) == csv_records(csv_out)

    def test_deterministic(self, capsys):
        first = run(capsys, ["table", "--max-n", "5"])
        second = run(capsys, ["table", "--max-n", "5"])
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        _, direct, _ = run(capsys, ["table", "--max-n", "2"])
        path = tmp_path / "table.csv"
        code, out, _ = run(capsys, ["table", "--max-n", "2",
                                    "--out", str(path)])
        assert code == 0
        assert out == ""
        assert path.read_text() == direct

    def test_jobs_do_not_change_output(self, capsys):
        serial = run(capsys, ["table", "--max-n", "4", "--oracle-max", "4"])
        for n in range(1, 5):
            circ._EXPAND_CACHE.pop(n, None)
        parallel = run(capsys, ["table", "--max-n", "4", "--oracle-max", "4",
                                "--jobs", "2"])
        assert parallel == serial

    def test_cross_check_failure_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "d_count",
                            lambda n, method="er": 99)
        code, _, err = run(capsys, ["table", "--max-n", "2"])
        assert code == 2
        assert "inconsistency" in err

    def test_negative_oracle_max_rejected(self, capsys):
        code, out, err = run(capsys, ["table", "--max-n", "3",
                                      "--oracle-max", "-5"])
        assert code == 1
        assert out == ""
        assert "--oracle-max" in err

    def test_zero_oracle_max_skips_cross_check(self, capsys):
        default = run(capsys, ["table", "--max-n", "3"])
        assert run(capsys, ["table", "--max-n", "3",
                            "--oracle-max", "0"]) == default


class TestSpotCheck:
    """affine_orbits recomputes seeded representatives by the literal
    per-partition sum; a difference from the engine is a disagreement
    between routes."""

    @pytest.mark.parametrize("argv", [["table", "--max-n", "4"],
                                      ["verify", "4"], ["verify", "6"]])
    def test_disagreement_exits_2(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(circ._Engine, "coeff",
                            lambda self, b, asked=None: 10 ** 6)
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("inconsistency: n=")
        assert " b=" in err
        assert "Traceback" not in err


class TestTermCount:
    """affine_orbits admits its orbit count against Burnside's lemma and
    its orbit sizes against p_count(n), and `table` makes one capped walk
    per n and top."""

    @pytest.mark.parametrize("argv", [["table", "--max-n", "4"],
                                      ["verify", "4"]])
    def test_short_walk_exits_2(self, capsys, monkeypatch, argv):
        # the last term of the first nonempty walk at n = 4 goes missing:
        # x_1*x_3*x_4^2, a representative, from the walks of the orbit
        # stream that both commands read
        walk = circ._residue_walk
        dropped = []

        def short(n, total, *capped):
            terms = list(walk(n, total, *capped))
            if n == 4 and terms and not dropped:
                dropped.append(terms.pop())
            return terms

        monkeypatch.setattr(circ, "_residue_walk", short)
        code, out, err = run(capsys, argv)
        assert len(dropped) == 1
        assert code == 2
        assert out == ""
        assert err.startswith("inconsistency: n=4")
        assert "Traceback" not in err

    def test_one_walk_per_n(self, capsys, monkeypatch):
        walk = circ._residue_walk
        calls = []

        def spy(n, total, *capped):
            calls.append((n, total, *capped))
            return walk(n, total, *capped)

        monkeypatch.setattr(circ, "_residue_walk", spy)
        code, _, _ = run(capsys, ["table", "--max-n", "6",
                                  "--oracle-max", "6"])
        assert code == 0
        assert calls == [(n, n - top, top, n - 1)
                         for n in range(1, 7) for top in range(1, n + 1)]


class TestOrbitAdmissions:
    """A fault planted in affine_orbits' canonical test exits 2 on the
    admission that catches it, before any row is written: `table` and
    `verify` at composite and at prime-power n all read the stream."""

    @pytest.mark.parametrize("argv", [["table", "--max-n", "6"],
                                      ["verify", "7"]])
    def test_extra_representative_exits_2_on_burnside(self, capsys,
                                                      monkeypatch, argv):
        stabilizer = circ._stabilizer
        n = int(argv[-1])
        kept = []

        def planted(b, top, maps):
            # keeps the first term of n the canonical test rejects
            fixed = stabilizer(b, top, maps)
            if not fixed and len(b) == n and not kept:
                kept.append(b)
                return 1
            return fixed

        monkeypatch.setattr(circ, "_stabilizer", planted)
        code, out, err = run(capsys, argv)
        assert len(kept) == 1
        assert (code, out) == (2, "")
        assert err == (f"inconsistency: n={n}: orbits disagrees: 12 by "
                       "Burnside's lemma, 13 by the orbit walk\n")

    @pytest.mark.parametrize("argv", [["table", "--max-n", "4"],
                                      ["verify", "4"]])
    def test_stabilizer_off_by_one_exits_2_on_p(self, capsys, monkeypatch,
                                                argv):
        stabilizer = circ._stabilizer
        bumped = []

        def planted(b, top, maps):
            # one more map fixing the first representative of n = 4,
            # (0,2,0,2), than the four that do: its orbit of 2 reads 1
            fixed = stabilizer(b, top, maps)
            if fixed and len(b) == 4 and not bumped:
                bumped.append(b)
                return fixed + 1
            return fixed

        monkeypatch.setattr(circ, "_stabilizer", planted)
        code, out, err = run(capsys, argv)
        assert bumped == [(0, 2, 0, 2)]
        assert (code, out) == (2, "")
        assert err == ("inconsistency: n=4: p disagrees: 10 by the formula, "
                       "9 by the orbit sizes\n")


class TestOut:
    def test_missing_directory_exits_1(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, ["verify", "4", "--out", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot write")
        assert "Traceback" not in err
        assert not path.parent.exists()

    def test_write_failure_exits_1(self, capsys, tmp_path):
        # the destination is a directory, so opening it for writing fails
        target = tmp_path / "taken"
        target.mkdir()
        code, _, err = run(capsys, ["table", "--max-n", "2",
                                    "--out", str(target)])
        assert code == 1
        assert err.startswith("error: cannot write")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]

    def test_empty_path_exits_1(self, capsys, monkeypatch):
        def refuse(*_):
            raise AssertionError("computed before checking --out")
        monkeypatch.setattr(cli, "d_count", refuse)
        code, out, err = run(capsys, ["table", "--max-n", "2", "--out", ""])
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot write")

    def test_replaces_existing_file(self, capsys, tmp_path):
        _, direct, _ = run(capsys, ["verify", "4"])
        path = tmp_path / "v.csv"
        path.write_text("stale\n")
        code, out, _ = run(capsys, ["verify", "4", "--out", str(path)])
        assert code == 0
        assert out == ""
        assert path.read_text() == direct
        assert [p.name for p in tmp_path.iterdir()] == ["v.csv"]

    @pytest.mark.parametrize("argv", [["verify", "4"],
                                      ["table", "--max-n", "3",
                                       "--format", "json"]])
    def test_dash_is_stdout(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        direct = run(capsys, argv)
        assert direct[0] == 0
        assert run(capsys, argv + ["--out", "-"]) == direct
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_pipe_is_written_not_replaced(self, capsys, tmp_path):
        # a rename over a pipe or device would replace it by a regular file
        fifo = tmp_path / "rows"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            code, out, _ = run(capsys, ["table", "--max-n", "3",
                                        "--out", str(fifo)])
            data = os.read(reader, 1 << 16).decode()
        finally:
            os.close(reader)
        assert (code, out) == (0, "")
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert data == "n,d,p,equal\n1,1,1,true\n2,2,2,true\n3,4,4,true\n"
        assert [p.name for p in tmp_path.iterdir()] == ["rows"]

    @pytest.mark.skipif(not hasattr(os, "symlink"), reason="no symlinks")
    def test_symlink_target_is_written(self, capsys, tmp_path):
        _, direct, _ = run(capsys, ["table", "--max-n", "3"])
        (tmp_path / "data").mkdir()
        target = tmp_path / "data" / "table.csv"
        target.write_text("stale\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        code, out, _ = run(capsys, ["table", "--max-n", "3",
                                    "--out", str(link)])
        assert (code, out) == (0, "")
        assert link.is_symlink()
        assert target.read_text() == direct
        assert [p.name for p in (tmp_path / "data").iterdir()] == \
            ["table.csv"]

    @pytest.mark.skipif(not hasattr(os, "symlink"), reason="no symlinks")
    def test_symlink_into_missing_directory_exits_1(self, capsys, tmp_path):
        link = tmp_path / "link.csv"
        link.symlink_to(tmp_path / "missing" / "table.csv")
        code, out, err = run(capsys, ["table", "--max-n", "3",
                                      "--out", str(link)])
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot write")
        assert link.is_symlink()
        assert not (tmp_path / "missing").exists()


class TestStdoutDigests:
    # SHA-256 of stdout: refactors must leave the output byte-identical
    @pytest.mark.parametrize("argv, digest", [
        ("verify 4",
         "8b7eb7bf009a09fe551f48ecb33fb5b9ffb96fe9e091fa1096ee4fca18211f55"),
        ("verify 5",
         "68801f92bf15edc54a679befb311ce0a7f30d566b292b91d23f97e786fac7dd4"),
        ("verify 7",
         "0517270c09b549f8575eae6c38b98bca80d59ea78d711642f179f408f26fb8cb"),
        ("m2p 8",
         "69ee1995ffe8a3228f3e117d0d3d9ca064896e572e899475cca06cc446fe466b"),
    ])
    def test_stdout_is_byte_identical(self, capsys, argv, digest):
        code, out, _ = run(capsys, argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestDominanceDigests:
    # SHA-256 of stdout at the prime powers 8, 9 and 11, whose dominance
    # certificates walk thousands of filling classes (1,543,484 at 11);
    # the verify 11 digest was recorded from the class walk per term
    @pytest.mark.parametrize("argv, digest", [
        ("verify 8",
         "7cc31132297b3ac22cb7cf43a350fad192bf5bf5535dd384bbdc7658e3cbf4b5"),
        ("verify 8 --format json",
         "db955f8389a630bf611b79f5871e8dcf346eb929ca5558af928537bd4b0a8bd3"),
        ("verify 9",
         "e19979419bd19255f382dcc6d3a327e9b3f73916c71aa2c295959582a3d47e85"),
        ("verify 11",
         "4087ac3bba84e8b9f67e5315925b3184669b54d170a3e3e8337d902bc593305d"),
    ])
    def test_stdout_is_byte_identical(self, capsys, argv, digest):
        code, out, _ = run(capsys, argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestOrbitDigests:
    # SHA-256 of stdout recorded before det_table ran one engine query
    # per affine orbit; these runs list every vanishing coefficient of
    # n = 10 and 12, so they check every sign the orbit route assigns
    @pytest.mark.parametrize("argv, digest", [
        ("verify 10",
         "710dd98279030217a536742888525a7b4cd1224325d86a110a02c0f53f3cfdc2"),
        ("verify 12",
         "48d2e5751b808d71bf0ee2ae0c98eeda94c78f481afefbd2e68272d9a5821e74"),
        ("table --max-n 12 --jobs 1",
         "2328b991be423f5e2406467b3f45d3ee745f58a3e70c420c5aaee06a26ec8be1"),
        # the permutation oracle confirms every d(n) up to 12
        ("table --max-n 12 --oracle-max 12",
         "2328b991be423f5e2406467b3f45d3ee745f58a3e70c420c5aaee06a26ec8be1"),
    ])
    def test_stdout_is_byte_identical(self, capsys, argv, digest):
        code, out, _ = run(capsys, argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestCoeffDigests:
    """SHA-256 of the stdout of 24 `coeff` queries past the oracle bound,
    recorded when the engine was asked for b itself: it pins the sign
    the engine's image of b takes.  Two draws per n = 13..24, redrawn
    until the box size prod(b_i + 1) is at most BOX; each took under
    0.1 s then, and 7 of the 24 images negate."""

    BOX = 20000

    @staticmethod
    def queries():
        rng = random.Random("coeff-output")
        out = []
        for n in range(13, 25):
            for _ in range(2):
                b = random_admissible(rng, n)
                while prod(x + 1 for x in b) > TestCoeffDigests.BOX:
                    b = random_admissible(rng, n)
                out.append((n, b))
        return out

    @pytest.mark.parametrize("fmt, digest", [
        ("csv",
         "871bb2cf30f15b73a1e36104fe3f982fa74f9c93b9a848a856fa70abdda3a1d7"),
        ("json",
         "720117da78dab407249fb3002c791b634e1595246d4a15fda2a9232ee5749735"),
    ])
    def test_stdout_is_byte_identical(self, capsys, fmt, digest):
        sha = hashlib.sha256()
        for n, b in self.queries():
            code, out, err = run(capsys, ["coeff", str(n),
                                          ",".join(map(str, b)),
                                          "--format", fmt])
            assert (code, err) == (0, ""), (n, b)
            sha.update(out.encode())
        assert sha.hexdigest() == digest

    def test_heavy_stdout_is_byte_identical(self, capsys):
        # the 18 draws of oracles.heavy_draws and the dense term of n = 20
        # (all ones, a 2 at x_1 and a 0 at x_11), recorded when the engine
        # was asked for an image holding max(b) at x_1 in full: it pins
        # the sign (-1)^(b_n) of the length-n bricks the engine now drops
        dense = [1] * 20
        dense[0], dense[10] = 2, 0
        sha = hashlib.sha256()
        for n, b in heavy_draws() + [(20, dense)]:
            code, out, err = run(capsys, ["coeff", str(n),
                                          ",".join(map(str, b))])
            assert (code, err) == (0, ""), (n, b)
            sha.update(out.encode())
        assert sha.hexdigest() == (
            "fdf7edf0265925f96ffe196a14a8f5297a1792b695407630423bb704e471487e")


class TestPrimePowerValuation:
    """At n = p^s, coeff admits v_p of each coefficient against
    v_p(n!/prod(b_i!)) before it writes the row."""

    @pytest.mark.parametrize("argv, route, factor", [
        (["coeff", "8", "1,0,3,2,0,0,2,0"], "det_coeff_er", 2),
        (["coeff", "9", "2,0,1,2,0,0,2,0,2"], "det_coeff_er", 3),
        (["coeff", "9", "2,0,1,2,0,0,2,0,2", "--method", "oracle"],
         "det_coeff_oracle", 3),
        (["coeff", "9", "2,0,1,2,0,0,2,0,2", "--method", "both"],
         "det_coeff_oracle", 3),
        (["coeff", "16", "1,0,4,4,2,1,2,0,1,0,0,1,0,0,0,0"],
         "det_coeff_er", 2),
    ])
    def test_coefficient_off_by_p_exits_2(self, capsys, monkeypatch, argv,
                                          route, factor):
        right = getattr(cli, route)
        monkeypatch.setattr(cli, route, lambda b: factor * right(b))
        for fmt in ("csv", "json"):
            code, out, err = run(capsys, argv + ["--format", fmt])
            assert (code, out) == (2, "")
            assert err.startswith(f"inconsistency: n={argv[1]} "
                                  f"b={argv[2]}: the {factor}-adic "
                                  f"valuation disagrees: ")
            assert err.endswith(" by the multinomial n!/prod(b_i!)\n")
            assert err.count("\n") == 1

    def test_zero_at_a_prime_power_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "det_coeff_er", lambda b: 0)
        code, out, err = run(capsys, ["coeff", "7", "1,1,1,1,1,1,1"])
        assert (code, out) == (2, "")
        assert err == ("inconsistency: n=7 b=1,1,1,1,1,1,1: the 7-adic "
                       "valuation disagrees: infinite by the partition "
                       "sum, 1 by the multinomial n!/prod(b_i!)\n")

    @pytest.mark.parametrize("argv, row", [
        # vanishing terms the check must let through: composite n, and
        # a b that is not admissible at a prime power
        (["coeff", "6", "1,1,1,1,1,1"], '6,"1,1,1,1,1,1",0'),
        (["coeff", "2", "1,1"], '2,"1,1",0'),
        (["coeff", "4", "1,1,1,1", "--method", "both"],
         '4,"1,1,1,1",0,0,-1,true'),
    ])
    def test_zero_passes_where_the_theorem_is_silent(self, capsys, argv,
                                                     row):
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == row


class TestCoeff:
    def test_er_default(self, capsys):
        code, out, err = run(capsys, ["coeff", "2", "2,0"])
        assert code == 0
        assert out.splitlines() == ["n,b,coeff_er", '2,"2,0",-1']

    def test_both_methods(self, capsys):
        code, out, _ = run(capsys, ["coeff", "3", "1,1,1",
                                    "--method", "both"])
        assert code == 0
        assert out.splitlines() == [
            "n,b,coeff_er,coeff_oracle,sign_epsilon,consistent",
            '3,"1,1,1",-3,3,-1,true',
        ]

    def test_both_methods_n2(self, capsys):
        code, out, _ = run(capsys, ["coeff", "2", "2,0", "--method", "both"])
        assert code == 0
        assert out.splitlines()[1] == '2,"2,0",-1,-1,+1,true'

    def test_oracle_method(self, capsys):
        code, out, _ = run(capsys, ["coeff", "3", "0,3,0",
                                    "--method", "oracle"])
        assert code == 0
        assert out.splitlines() == ["n,b,coeff_oracle", '3,"0,3,0",-1']

    def test_inadmissible_vector_gives_zero(self, capsys):
        code, out, _ = run(capsys, ["coeff", "6", "1,1,1,1,1,1"])
        assert code == 0
        assert out.splitlines()[1].endswith(",0")

    def test_malformed_b_rejected(self, capsys):
        code, _, err = run(capsys, ["coeff", "3", "a,b,c"])
        assert code == 1
        assert "comma-separated" in err

    @pytest.mark.parametrize("b", [
        "1_0,0,0,0,0,0,0,0,0,0", "+1,1,1,1,1,1,1,1,1,1",
        "\u0661,1,1,1,1,1,1,1,1,1", "1\t,1,1,1,1,1,1,1,1,1",
        "1,,1,1,1,1,1,1,1,1", "- 1,2,2,1,1,1,1,1,1,1",
    ])
    def test_only_ascii_decimal_tokens_accepted(self, capsys, b):
        # int() takes all of these; the b column would then misquote them
        assert run(capsys, ["coeff", "10", b]) == (
            1, "", "b must be comma-separated integers\n")

    def test_spaces_and_minus_sign_parsed(self, capsys):
        code, out, _ = run(capsys, ["coeff", "3", " 1, 1 ,1 "])
        assert (code, out.splitlines()[1]) == (0, '3,"1,1,1",-3')
        code, out, err = run(capsys, ["coeff", "3", " -1,2,2"])
        assert (code, out) == (1, "")
        assert "exponents must be non-negative" in err

    @pytest.mark.parametrize("argv", [
        ["coeff", "3", "-1,2,2"],
        ["coeff", "3", "-1,2,2", "--method", "both"],
        ["coeff", "--method", "oracle", "3", "-1,2,2"],
    ])
    def test_leading_minus_reaches_exponent_check(self, capsys, argv):
        # a parser that reads every leading "-" as an option takes -1,2,2
        # for an unknown option and reports b as missing
        assert run(capsys, argv) == (
            1, "", "error: exponents must be non-negative\n")

    def test_wrong_length_rejected(self, capsys):
        code, _, err = run(capsys, ["coeff", "3", "1,2"])
        assert code == 1
        assert err != ""

    def test_wrong_sum_rejected(self, capsys):
        assert run(capsys, ["coeff", "3", "1,1,2"])[0] == 1

    def test_oracle_bound_rejected(self, capsys):
        b = ",".join(["13"] + ["0"] * 12)
        code, _, err = run(capsys, ["coeff", "13", b, "--method", "oracle"])
        assert code == 1
        assert err != ""

    def test_oracle_bound_checked_before_computing(self, capsys,
                                                   monkeypatch):
        def never(b):
            raise AssertionError("det_coeff_er ran past the oracle bound")

        monkeypatch.setattr(cli, "det_coeff_er", never)
        b = ",".join(["13"] + ["0"] * 12)
        for method in ("oracle", "both"):
            assert run(capsys, ["coeff", "13", b, "--method", method]) == \
                (1, "", "error: oracle bound exceeded\n")

    def test_coeff_bound_checked_before_computing(self, capsys,
                                                  monkeypatch):
        calls = []

        def engine(b):
            if b.n > cli.COEFF_MAX_N:
                raise AssertionError("det_coeff_er ran past the coeff bound")
            calls.append(b.n)
            return 0

        monkeypatch.setattr(cli, "det_coeff_er", engine)
        assert cli.COEFF_MAX_N == 24
        for n in (cli.COEFF_MAX_N, cli.COEFF_MAX_N + 1, 30):
            b = ",".join([str(n)] + ["0"] * (n - 1))
            code, out, err = run(capsys, ["coeff", str(n), b])
            if n <= cli.COEFF_MAX_N:
                assert (code, err) == (0, "")
            else:
                assert (code, out) == (1, "")
                assert err.startswith("error: coeff bound exceeded")
        assert calls == [cli.COEFF_MAX_N]

    def test_forced_disagreement_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "sign_epsilon", lambda n: 1)
        code, out, err = run(capsys, ["coeff", "3", "1,1,1",
                                      "--method", "both"])
        assert code == 2
        assert "disagree" in err
        assert out.splitlines()[1].endswith(",false")


class TestVerify:
    def test_prime_power_summary(self, capsys):
        code, out, err = run(capsys, ["verify", "4"])
        assert code == 0
        assert "10/10 dominance passes, d=10, p=10" in err
        lines = out.splitlines()
        assert lines[0] == "n,b,pass,valuations"
        assert len(lines) == 11
        assert lines[1] == '4,"0,0,0,4",true,"0|1,4,4,5"'
        assert lines[-1] == '4,"4,0,0,0",true,0|'
        assert all(",true," in line for line in lines[1:])

    def test_smallest_case(self, capsys):
        code, out, err = run(capsys, ["verify", "2"])
        assert code == 0
        assert "2/2 dominance passes, d=2, p=2" in err

    def test_composite_lists_vanishing_terms(self, capsys):
        code, out, err = run(capsys, ["verify", "6"])
        assert code == 0
        assert "12 vanishing coefficients, d=68, p=80" in err
        lines = out.splitlines()
        assert len(lines) == 13
        assert all(line.endswith(",false,") for line in lines[1:])
        assert '6,"0,1,1,2,1,1",false,' in lines

    @pytest.mark.parametrize("n", [6, 10])
    def test_composite_expands_only_vanishing_orbits(self, capsys,
                                                      monkeypatch, n):
        # composite n never builds the whole map of _orbit_values: read
        # from it, `verify 10` peaked at 17.1 MB against 15.9 MB, and
        # `verify 12` at 41.3 MB against 25.1 MB (ru_maxrss, Python 3.11)
        def refused(n):
            raise AssertionError("composite verify built the orbit map")

        monkeypatch.setattr(cli, "_orbit_values", refused)
        code, _, err = run(capsys, ["verify", str(n)])
        assert code == 0
        d, p = cli.REFERENCE_COUNTS[n]
        assert err == f"{p - d} vanishing coefficients, d={d}, p={p}\n"

    def test_beyond_bound_is_skipped(self, capsys):
        code, out, err = run(capsys, ["verify", "13"])
        assert code == 1
        assert "skipped" in out
        assert err != ""

    def test_n_below_2_rejected(self, capsys):
        assert run(capsys, ["verify", "1"])[0] == 1

    def test_reference_mismatch_exits_2(self, capsys, monkeypatch):
        monkeypatch.setitem(cli.REFERENCE_COUNTS, 2, (3, 3))
        code, _, err = run(capsys, ["verify", "2"])
        assert code == 2
        assert "inconsistency" in err

    def test_route_disagreement_exits_2(self, capsys, monkeypatch):
        # one coefficient of the orbit images off by one: the class
        # contributions of its term no longer sum to it
        orbit_values = cli._orbit_values

        def planted(n):
            values = orbit_values(n)
            values[circ.permanent_terms(n)[7].b] += 1
            return values

        monkeypatch.setattr(cli, "_orbit_values", planted)
        code, out, err = run(capsys, ["verify", "5"])
        b = ",".join(map(str, circ.permanent_terms(5)[7].b))
        assert code == 2
        assert out == ""
        assert err.splitlines() == [err.rstrip("\n")]
        assert err.startswith(f"inconsistency: n=5 b={b}: ")
        assert "Traceback" not in err

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, ["verify", "3", "--format", "json"])
        assert code == 0
        records = json.loads(out)
        assert len(records) == 4
        assert records[0]["pass"] == "true"


class TestM2p:
    def test_q2(self, capsys):
        code, out, err = run(capsys, ["m2p", "2"])
        assert code == 0
        assert out.splitlines() == [
            "mu,2,1+1",
            "2,1,0",
            "1+1,-1/2,1/2",
        ]

    def test_q1(self, capsys):
        code, out, _ = run(capsys, ["m2p", "1"])
        assert code == 0
        assert out.splitlines() == ["mu,1", "1,1"]

    def test_rows_and_columns_align(self, capsys):
        code, out, _ = run(capsys, ["m2p", "5"])
        assert code == 0
        records = csv_records(out)
        labels = [rec["mu"] for rec in records]
        header = out.splitlines()[0].split(",")[1:]
        assert header == labels

    def test_range_validated(self, capsys):
        assert run(capsys, ["m2p", "9"])[0] == 1
        assert run(capsys, ["m2p", "0"])[0] == 1

    def test_deterministic(self, capsys):
        assert run(capsys, ["m2p", "4"]) == run(capsys, ["m2p", "4"])


class TestParser:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, ["frobnicate"])[0] == 1

    def test_no_subcommand(self, capsys):
        assert run(capsys, [])[0] == 1

    def test_unknown_flag(self, capsys):
        assert run(capsys, ["table", "--wat"])[0] == 1

    @pytest.mark.parametrize("argv", [
        ["coeff", "\u0663", "1,1,1"],
        ["coeff", "3", "1,1,1", "--jobs", "+1"],
        ["table", "--max-n", "0_3"],
        ["table", "--max-n", "3", "--oracle-max", "\uff13"],
        ["table", "--max-n", "2", "--jobs", "1_0"],
        ["verify", "\u0664"],
        ["m2p", "4\t"],
    ])
    def test_only_ascii_decimal_integers_accepted(self, capsys, argv):
        # int() takes all of these
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert "not a decimal integer" in err

    def test_spaces_and_minus_sign_in_integers(self, capsys):
        assert run(capsys, ["table", "--max-n", " 3 "]) == \
            run(capsys, ["table", "--max-n", "3"])
        code, out, err = run(capsys, ["table", "--max-n", "3",
                                      "--oracle-max", " -1"])
        assert (code, out) == (1, "")
        assert "--oracle-max must be at least 0" in err

    def test_minus_digit_token_is_a_value(self, capsys):
        code, out, err = run(capsys, ["table", "--max-n", "-3x"])
        assert (code, out) == (1, "")
        assert "not a decimal integer: '-3x'" in err

    def test_traceback_not_imported(self):
        # traceback is loaded only when an internal error is reported
        code = ("import sys, circulant_terms.cli; "
                "sys.exit('traceback' in sys.modules)")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-S", "-c", code],
                              env=env).returncode == 0

    def test_json_and_theorem_not_imported(self):
        # every launch compiles what cli imports: json is loaded by the
        # JSON output alone, and the per-term theorem module never
        code = ("import sys; from circulant_terms import cli; "
                "cli.main(['coeff', '5', '1,1,1,1,1']); "
                "cli.main(['table', '--max-n', '4']); "
                "sys.exit(bool({'json', 'circulant_terms.theorem'} "
                "& set(sys.modules)))")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == ('n,b,coeff_er\n5,"1,1,1,1,1",-5\n'
                               'n,d,p,equal\n1,1,1,true\n2,2,2,true\n'
                               '3,4,4,true\n4,10,10,true\n')

    def test_json_output_loads_json_on_demand(self):
        code = ("import sys; from circulant_terms import cli; "
                "cli.main(['coeff', '5', '1,1,1,1,1', '--format', 'json']); "
                "sys.exit('json' not in sys.modules)")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, (
            '[\n  {\n    "n": "5",\n    "b": "1,1,1,1,1",\n'
            '    "coeff_er": "-5"\n  }\n]\n'))

    def test_argparse_and_locale_not_imported(self):
        # argparse's first gettext lookup imports locale, and building its
        # parsers cost more than a small coeff query
        code = ("import sys; from circulant_terms import cli; "
                "cli.main(['coeff', '5', '1,1,1,1,1']); "
                "sys.exit(bool({'argparse', 'locale'} & set(sys.modules)))")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == \
            (0, 'n,b,coeff_er\n5,"1,1,1,1,1",-5\n')

    @pytest.mark.parametrize("argv", [
        ["table", "--max-n=3"], ["table", "--max", "3"],
        ["table", "--max=3"], ["table", "--max-n", "5", "--max-n", "3"],
        ["table", "--format", "json", "--max-n", "3", "--format", "csv"],
    ])
    def test_prefix_equals_and_repeats(self, capsys, argv):
        assert run(capsys, argv) == run(capsys, ["table", "--max-n", "3"])

    @pytest.mark.parametrize("argv, message", [
        (["table", "--o", "3"],
         "ambiguous option: --o could match --out, --oracle-max"),
        (["table", "--max-n"], "argument --max-n: expected one argument"),
        (["table", "--max-n", "--format", "csv"],
         "argument --max-n: expected one argument"),
        (["table", "--format", "xml"], "argument --format: invalid choice: "
                                       "'xml' (choose from 'csv', 'json')"),
        (["coeff", "3"], "the following arguments are required: b"),
        (["verify", "4", "--jobs", "1"],
         "unrecognized arguments: --jobs 1"),
    ])
    def test_usage_error_is_one_line(self, capsys, argv, message):
        command = argv[0]
        assert run(capsys, argv) == (
            1, "", f"circulant-terms {command}: error: {message}\n")

    def test_options_between_positionals(self, capsys):
        assert run(capsys, ["coeff", "3", "--method", "both", "1,1,1"]) == \
            run(capsys, ["coeff", "3", "1,1,1", "--method=both"])

    def test_internal_error_exits_2(self, capsys, monkeypatch):
        def boom(n, method="formula"):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli, "p_count", boom)
        code, _, err = run(capsys, ["table", "--max-n", "2"])
        assert code == 2
        assert "internal inconsistency detected" in err


class TestOneLineDisagreement:
    """Every cross-check goes through exactmath.admit, and every failed
    one, an integrality self-check included, exits 2 with one
    "inconsistency:" line on stderr and no traceback."""

    @staticmethod
    def _one_line(err, prefix):
        assert err.splitlines() == [err.rstrip("\n")]
        assert err.startswith(prefix)
        assert "Traceback" not in err

    def test_table_oracle_disagreement_writes_no_rows(self, capsys,
                                                      monkeypatch):
        monkeypatch.setattr(cli, "expand_det", lambda n: [None] * (n - 1))
        code, out, err = run(capsys, ["table", "--max-n", "3"])
        assert (code, out) == (2, "")
        self._one_line(err, "inconsistency: n=1: d disagrees: 1 by the "
                            "partition sum, 0 by the expansion oracle")

    def test_verify_reference_miss_writes_no_rows(self, capsys, monkeypatch):
        monkeypatch.setitem(cli.REFERENCE_COUNTS, 6, (69, 80))
        code, out, err = run(capsys, ["verify", "6"])
        assert (code, out) == (2, "")
        self._one_line(err, "inconsistency: n=6: ")
        assert "(68, 80) by the coefficient table" in err
        assert "(69, 80) by REFERENCE_COUNTS" in err

    def test_coeff_names_both_routes(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "sign_epsilon", lambda n: 1)
        code, out, err = run(capsys, ["coeff", "3", "1,1,1",
                                      "--method", "both"])
        assert code == 2
        assert out.splitlines()[1] == '3,"1,1,1",-3,3,+1,false'
        self._one_line(err, "inconsistency: n=3 b=1,1,1: coefficient "
                            "disagrees: -3 by the partition sum, 3 by ")

    def test_verify_failed_certificate_writes_no_rows(self, capsys,
                                                      monkeypatch):
        # the passes are admitted against p before any row is written
        table = cli.dominance_table

        def planted(n, values):
            verdicts = table(n, values)
            b, _, v_base, others = next(verdicts)
            yield b, False, v_base, others
            yield from verdicts

        monkeypatch.setattr(cli, "dominance_table", planted)
        for fmt in ("csv", "json"):
            code, out, err = run(capsys, ["verify", "4", "--format", fmt])
            assert (code, out) == (2, "")
            self._one_line(err, "inconsistency: n=4: the terms that pass "
                                "disagrees: 9 by dominance_table, 10 by p")

    def test_engine_integrality(self, capsys, monkeypatch):
        # 1 planted as h of the bricks of x_2^2, what the engine is asked
        # for once the image 0,2,0,2 of b drops its x_4: prod(b_i!) = 2
        # does not divide it, and the line names b as asked
        monkeypatch.setattr(circ, "_ENGINES", {})
        engine = circ._engine(4)
        engine.memo[2 * engine.powers[1]] = 1
        code, out, err = run(capsys, ["coeff", "4", "0,2,0,2"])
        assert (code, out) == (2, "")
        self._one_line(err, "inconsistency: n=4 b=0,2,0,2: the engine "
                            "gives 1/2")

    def test_table_engine_integrality(self, capsys, monkeypatch):
        # 1 planted as h of the bricks of x_1^2 x_2^2, what the engine is
        # asked for once the image 2,2,0,0,0,2 of the orbit's first term
        # drops its x_6: prod(b_i!) = 4 does not divide it, and the line
        # names that term as the walk met it
        monkeypatch.setattr(circ, "_ENGINES", {})
        engine = circ._engine(6)
        engine.memo[2 * engine.powers[0] + 2 * engine.powers[1]] = 1
        code, out, err = run(capsys, ["verify", "6"])
        assert (code, out) == (2, "")
        self._one_line(err, "inconsistency: n=6 b=0,0,0,2,2,2: the engine "
                            "gives 1/4")

    def test_divisor_sum_integrality(self, capsys, monkeypatch):
        # with every phi taken as 1 the divisor sum of 3 is 11
        monkeypatch.setattr(circ, "euler_phi", lambda m: 1)
        code, out, err = run(capsys, ["table", "--max-n", "3"])
        assert (code, out) == (2, "")
        self._one_line(err, "inconsistency: n=3: p's divisor sum")

    def test_probe_integrality(self, capsys, monkeypatch):
        monkeypatch.setattr(circ, "det_coeff_er", lambda b: 2)
        code, out, err = run(capsys, ["coeff", "3", "1,1,1",
                                      "--method", "both"])
        assert (code, out) == (2, "")
        self._one_line(err, "inconsistency: n=3: probe coefficient 2")


def run_module(*argv):
    """python -m circulant_terms ARGV in a fresh process."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "circulant_terms", *argv],
                          env=env, capture_output=True, text=True)


class TestEntryPoint:
    COMMANDS = ("table", "coeff", "verify", "m2p")
    OPTIONS = ("--format", "--out", "--max-n", "--oracle-max", "--jobs",
               "--method", "--help")

    def test_matches_main(self, capsys):
        proc = run_module("table", "--max-n", "4")
        code, out, _ = run(capsys, ["table", "--max-n", "4"])
        assert (proc.returncode, proc.stdout) == (code, out)
        assert code == 0
        assert out.splitlines()[-1] == "4,10,10,true"

    def test_no_arguments(self):
        proc = run_module()
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == ("circulant-terms: error: the following "
                               "arguments are required: command\n")

    def test_help_names_every_command_and_option(self):
        proc = run_module("--help")
        assert (proc.returncode, proc.stderr) == (0, "")
        for word in self.COMMANDS + self.OPTIONS:
            assert word in proc.stdout

    def test_command_help_names_its_arguments(self):
        proc = run_module("coeff", "--help")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("usage: circulant-terms coeff ")
        for word in ("--format", "--out", "--jobs", "--method", "--help",
                     " n ", " b "):
            assert word in proc.stdout
        assert "--max-n" not in proc.stdout
