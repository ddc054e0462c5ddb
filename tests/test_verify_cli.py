import errno
import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import chaincat
from chaincat import chain, verify
from chaincat.chain import BlockMap, OPMap, OrderedPartition, SubMap, Subset
from chaincat.cli import main
from chaincat.cones import Cone, check_normal_category_axioms, cone_json
from chaincat.ideals import LCategory, RCategory
from chaincat.partitions import PartitionCategory
from chaincat.powerset import PowersetCategory
from chaincat.verify import (
    CHECKS,
    SELECTORS,
    CheckReport,
    ResourceLimit,
    check_cones_principal,
    export_cayley,
    run_all,
    run_check,
)


class TestRunner:
    def test_every_check_passes_at_n3(self):
        for name in CHECKS:
            report = run_check(name, 3)
            assert report.status == "pass", (name, report.witness)
            assert report.witness is None
            assert report.elapsed_ms >= 0

    def test_unknown_check(self):
        with pytest.raises(ValueError, match="unknown check"):
            run_check("bogus", 3)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="supports n"):
            run_check("green", 9)
        with pytest.raises(ValueError):
            run_check("counts", 2)
        for name, past in (("factorize-L", 7), ("factorize-Po", 7), ("F-iso", 8), ("G-iso", 9)):
            with pytest.raises(ValueError, match="supports n"):
                run_check(name, past)

    def test_run_all_caps_per_check(self):
        reports = run_all(5)
        by_name = {r.check: r for r in reports}
        assert by_name["cone-regular"].n == 5 and "capped_from" not in by_name["cone-regular"].counts
        assert by_name["factorize-L"].n == 5 and "capped_from" not in by_name["factorize-L"].counts
        assert by_name["green"].n == 5 and "capped_from" not in by_name["green"].counts
        assert all(r.status == "pass" for r in reports)
        assert len(reports) == len(CHECKS)

    def test_run_all_caps_a_check_past_its_maximum(self, monkeypatch):
        # counts runs to 7 and green to 6, so n=7 caps green at 6; two
        # cheap checks keep the run short
        monkeypatch.setattr(verify, "CHECKS", {name: CHECKS[name] for name in ("counts", "green")})
        reports = run_all(7)
        assert [(r.check, r.n) for r in reports] == [("counts", 7), ("green", 6)]
        assert "capped_from" not in reports[0].counts
        assert reports[1].counts["capped_from"] == 7
        assert all(r.status == "pass" for r in reports)

    def test_report_dict_schema(self):
        report = run_check("counts", 4)
        data = report.to_dict()
        assert set(data) == {"check", "n", "status", "counts", "witness", "elapsed_ms"}
        json.dumps(data)

    def test_factorize_pi_exhaustive_at_5(self):
        report = run_check("factorize-Pi", 5)
        assert report.status == "pass", report.witness
        assert report.counts["Pi_factorizations"] == report.counts["Pi_morphisms"] == 2345

    @pytest.mark.parametrize(
        "name,key,total",
        [("F-iso", "morphisms", 55363), ("G-iso", "morphisms", 22236), ("factorize-Pi", "Pi_factorizations", 22236)],
    )
    def test_exhaustive_totals_at_6(self, name, key, total):
        report = run_check(name, 6)
        assert report.status == "pass", report.witness
        assert report.counts[key] == total

    def test_exceptions_become_failed_reports(self, monkeypatch):
        from chaincat import verify

        def boom(n):
            raise RuntimeError("kaput")

        monkeypatch.setitem(verify.CHECKS, "boom", verify.CheckDef(boom, 3, 4))
        report = run_check("boom", 3)
        assert report.status == "fail"
        assert "kaput" in report.witness["exception"]


class TestFaultInjection:
    """Each planted defect reaches a check through a name verify looks up at
    call time, and the check must fail with a witness naming it."""

    def test_dropped_cone_produces_witness(self, monkeypatch):
        enumerate_normal_cones = verify.enumerate_normal_cones

        def drop_first(cat, vertex):
            cones = enumerate_normal_cones(cat, vertex)
            return cones[1:] if vertex == cat.objects()[0] else cones

        monkeypatch.setattr(verify, "enumerate_normal_cones", drop_first)
        ok, counts, witness = check_cones_principal(3)
        assert not ok
        assert witness["missing"] == 1 and witness["extra"] == 0
        assert "vertex" in witness["cone"]

    def test_duplicated_state_detected_via_runner(self):
        report = CheckReport("cones-principal", 3, "fail", {}, {"reason": "x"}, 0)
        assert report.status == "fail" and report.witness is not None

    def test_swapped_cone_produces_extra(self, monkeypatch):
        enumerate_normal_cones = verify.enumerate_normal_cones

        def swap_one(cat, vertex):
            cones = enumerate_normal_cones(cat, vertex)
            if vertex != max(cat.objects(), key=len):
                return cones
            victim, *rest = cones
            bad = dict(victim.components)
            target = next(obj for obj in bad if len(cat.hom(obj, vertex)) > 1)
            bad[target] = next(m for m in cat.hom(target, vertex) if m != victim.components[target])
            return rest + [Cone(cat, vertex, bad)]

        monkeypatch.setattr(verify, "enumerate_normal_cones", swap_one)
        ok, counts, witness = check_cones_principal(4)
        assert not ok and witness["extra"] == 1 and witness["missing"] == 1

    @pytest.mark.parametrize(
        "check,builder,base,victim,label",
        [
            (
                "factorize-L", "left_category", LCategory,
                SubMap(Subset(3, (1, 2)), Subset(3, (1, 3)), (1, 3)), "rho({1,2} -> {1,3}: [1,3])",
            ),
            (
                "factorize-L", "right_category", RCategory,
                BlockMap(OrderedPartition(3, (1, 2)), OrderedPartition(3, (2, 1)), (0, 1)),
                "lambda((1,2) -> (2,1): [1,2])",
            ),
            (
                "factorize-Po", "powerset_category", PowersetCategory,
                SubMap(Subset(3, (1, 2)), Subset(3, (1, 3)), (1, 3)), "[1,3]",
            ),
            (
                "factorize-Pi", "partition_category", PartitionCategory,
                BlockMap(OrderedPartition(3, (1, 2)), OrderedPartition(3, (2, 1)), (0, 1)), "[1,2]",
            ),
        ],
        ids=["L", "R", "Po", "Pi"],
    )
    def test_wrong_middle_factor_fails_the_axioms(self, fresh_builds, monkeypatch, check, builder, base, victim, label):
        class Planted(base):
            def normal_factorize(self, f):
                q, u, j = super().normal_factorize(f)
                if f == victim:
                    u = next(x for x in self.hom(u.source, u.target) if x != u)
                return q, u, j

        planted = Planted(3)
        assert victim in planted.hom(victim.source, victim.target)
        monkeypatch.setattr(verify, builder, lambda n: planted)
        report = run_check(check, 3)
        assert report.status == "fail"
        assert report.witness == {
            "category": {LCategory: "L", RCategory: "R", PowersetCategory: "Po", PartitionCategory: "Pi"}[base],
            "axiom": "factorization-isomorphism",
            "morphism": label,
        }

    @pytest.mark.parametrize(
        "check,builder,base",
        [
            ("factorize-L", "left_category", LCategory),
            ("factorize-L", "right_category", RCategory),
            ("factorize-Po", "powerset_category", PowersetCategory),
            ("factorize-Pi", "partition_category", PartitionCategory),
        ],
        ids=["L", "R", "Po", "Pi"],
    )
    def test_wrong_inclusion_fails_the_axioms(self, fresh_builds, monkeypatch, check, builder, base):
        """One designated inclusion planted wrong, through the one hook each
        carrier supplies: {1} -> {1,2} sending 1 to 2, or (3,2) -> (1,2,2)
        sending the last block to the last block.  Composed with the next
        inclusion up it misses the inclusion across both, at n=5 for every
        carrier."""
        if issubclass(base, LCategory):
            pair, wrong, labels = (Subset(5, (1,)), Subset(5, (1, 2))), (2,), ["{1}", "{1,2}", "{1,2,3}"]
        else:
            pair = (OrderedPartition(5, (3, 2)), OrderedPartition(5, (1, 2, 2)))
            wrong, labels = (0, 1, 1), ["(3,2)", "(1,2,2)", "(1,1,1,2)"]

        class Planted(base):
            def _compute_inclusion(self, a, b):
                j = super()._compute_inclusion(a, b)
                return type(j)(a, b, wrong) if (a, b) == pair else j

        planted = Planted(5)
        assert planted.inclusion(*pair) is planted.inclusion(*pair) != base(5).inclusion(*pair)
        monkeypatch.setattr(verify, builder, lambda n: planted)
        report = run_check(check, 5)
        assert report.status == "fail"
        assert report.witness == {
            "category": {LCategory: "L", RCategory: "R", PowersetCategory: "Po", PartitionCategory: "Pi"}[base],
            "axiom": "inclusion-composition",
            "chain": labels,
        }

    def test_wrong_image_absorption_fails_only_the_oracle(self, fresh_builds, monkeypatch):
        """A factorization through the other absorption, each unhit source
        block joining the hit block before it (leading ones the first),
        still recomposes with the right kinds of factors; only the oracle
        comparison catches it, and only from n=4, where a source first has
        an unhit block between two hit ones."""

        class Planted(PartitionCategory):
            def normal_factorize(self, m):
                _, u, j = super().normal_factorize(m)
                source = m.source
                hit = sorted(set(m.images))
                ends = hit[1:] + [source.num_blocks]
                sizes = tuple(sum(source.block_sizes[i:k]) for i, k in zip([0] + hit[1:], ends))
                gamma = OrderedPartition(source.n, sizes)
                q = BlockMap(source, gamma, tuple(hit))
                return q, BlockMap(gamma, u.target, u.images), j

        wrong = {"reason": "image absorption disagrees with oracle", "morphism": "[1,3]"}
        for n, witness in ((3, None), (4, wrong)):
            planted = Planted(n)
            monkeypatch.setattr(verify, "partition_category", lambda n, cat=planted: cat)
            assert check_normal_category_axioms(planted)[0]
            assert run_check("factorize-Pi", n).witness == witness

    def test_factorize_pi_factorizes_each_morphism_once(self, fresh_builds, monkeypatch):
        factorized = []

        class Counting(PartitionCategory):
            def normal_factorize(self, m):
                factorized.append(m)
                return super().normal_factorize(m)

        monkeypatch.setattr(verify, "partition_category", lambda n, cat=Counting(4): cat)
        report = run_check("factorize-Pi", 4)
        assert report.status == "pass"
        assert len(factorized) == len(set(factorized)) == report.counts["Pi_factorizations"] == 229

    def test_an_axiom_failure_outranks_an_earlier_oracle_disagreement(self, fresh_builds, monkeypatch):
        """Every factorization disagrees with a planted oracle, and only the
        last morphism fails an axiom: the axiom failure is reported, as when
        the oracles ran after the axiom pass."""
        cat = PartitionCategory(3)
        morphisms = [m for a in cat.objects() for b in cat.objects() for m in cat.hom(a, b)]
        # the last morphism whose middle factor has another map to swap in
        middles = [cat.normal_factorize(m)[1] for m in morphisms]
        victim = [m for m, u in zip(morphisms, middles) if len(cat.hom(u.source, u.target)) > 1][-1]
        assert victim != morphisms[0]

        class Planted(PartitionCategory):
            def normal_factorize(self, m):
                q, u, v = super().normal_factorize(m)
                if m == victim:
                    u = next(x for x in self.hom(u.source, u.target) if x != u)
                return q, u, v

        monkeypatch.setattr(verify, "partition_category", lambda n, cat=Planted(3): cat)
        monkeypatch.setattr(verify, "_gamma_oracle", lambda m: None)
        report = run_check("factorize-Pi", 3)
        assert report.witness == {
            "category": "Pi", "axiom": "factorization-isomorphism", "morphism": str(victim),
        }
        monkeypatch.setattr(verify, "partition_category", lambda n, cat=PartitionCategory(3): cat)
        assert run_check("factorize-Pi", 3).witness["reason"] == "image absorption disagrees with oracle"

    @pytest.mark.parametrize(
        "plant,reason",
        [
            (lambda maps: maps[1:], "enumeration does not match the closed form"),
            (lambda maps: (maps[1],) + maps[1:], "duplicate maps in the enumeration"),
            (lambda maps: (OPMap.identity(maps[0].n),) + maps[1:], "identity map slipped into the enumeration"),
        ],
        ids=["dropped", "duplicated", "identity"],
    )
    def test_bad_enumeration_fails_counts(self, fresh_builds, monkeypatch, plant, reason):
        enumerate_oxn = chain.enumerate_oxn
        monkeypatch.setattr(chain, "enumerate_oxn", lambda n: plant(enumerate_oxn(n)))
        report = run_check("counts", 4)
        assert report.status == "fail"
        assert report.witness == {"reason": reason}
        assert report.counts["expected"] == 34

    def test_flipped_characterization_fails_green(self, fresh_builds, monkeypatch):
        green_class = chain.green_class
        victim = OPMap((1, 2, 2))

        def planted(a, relation):
            # an L key of its own splits [1,2,2] from [1,1,2], same image
            return ("planted", a) if (a, relation) == (victim, "L") else green_class(a, relation)

        monkeypatch.setattr(chain, "green_class", planted)
        report = run_check("green", 3)
        assert report.status == "fail"
        assert report.witness == {
            "a": "[1,1,2]",
            "b": "[1,2,2]",
            "relation": "L",
            "characterization": False,
            "oracle": True,
        }

    def test_non_injective_principal_cone_fails_tl_iso(self, fresh_builds, monkeypatch):
        """TL-iso reads its explicit map by index, since the cone semigroup
        is built from the principal cones in map order; a principal_cone
        that sends two maps to one cone must still fail it."""
        victim, twin = OPMap((1, 1, 2)), OPMap((1, 1, 1))
        principal_cone = LCategory.principal_cone
        monkeypatch.setattr(LCategory, "principal_cone", lambda cat, a: principal_cone(cat, twin if a == victim else a))
        report = run_check("TL-iso", 3)
        assert report.status == "fail"
        assert report.witness["exception"].startswith("ValueError: duplicate element")

    def test_broken_roundtrip_names_map_and_cone(self, monkeypatch):
        cat = verify.powerset_category(3)
        victim = OPMap((1, 1, 2))
        read_opmap = verify._read_opmap

        def planted(gamma):
            a = read_opmap(gamma)
            return OPMap((1, 1, 1)) if a == victim else a

        monkeypatch.setattr(verify, "_read_opmap", planted)
        report = run_check("TPo-iso", 3)
        assert report.status == "fail"
        assert report.counts["roundtrip"] == 0
        assert report.witness["map"] == "[1,1,2]"
        assert report.witness["cone"] == cone_json(cat.principal_cone(victim))


class TestCLI:
    def test_single_check_pass(self, capsys):
        assert main(["--check", "counts", "--n", "5"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "oxn=125" in out

    def test_all_n3_passes(self, capsys):
        assert main(["--check", "all", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == len(CHECKS)

    def test_all_n4_passes(self, capsys):
        assert main(["--check", "all", "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == len(CHECKS)
        assert f"{len(CHECKS)}/{len(CHECKS)} checks passed" in out

    def test_json_format(self, capsys):
        assert main(["--check", "green", "--n", "3", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["passed"] is True
        assert data["reports"][0]["check"] == "green"
        assert data["reports"][0]["status"] == "pass"

    def test_json_schema_all_reports(self, capsys):
        assert main(["--check", "all", "--n", "3", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"reports", "passed"} and data["passed"] is True
        assert len(data["reports"]) == len(CHECKS)
        for report in data["reports"]:
            assert set(report) == {"check", "n", "status", "counts", "witness", "elapsed_ms"}
            assert report["check"] in CHECKS
            assert report["status"] in ("pass", "fail")
            assert report["witness"] is None or isinstance(report["witness"], dict)
            assert isinstance(report["elapsed_ms"], int) and report["elapsed_ms"] >= 0
            assert isinstance(report["n"], int)
            assert all(isinstance(k, str) for k in report["counts"])

    def test_usage_errors_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--check", "counts"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["--n", "3"])
        assert exc.value.code == 2
        assert main(["--check", "nope", "--n", "3"]) == 2
        assert main(["--check", "green", "--n", "12"]) == 2

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["--check", "counts", "--n", "3", "--format", "json", "--out", str(out)]) == 0
        capsys.readouterr()
        data = json.loads(out.read_text())
        assert data["passed"] is True

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "x.json")
        assert main(["--export-cayley", "oxn", "--n", "3", "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert main(["--check", "counts", "--n", "3", "--out", out]) == 2
        captured = capsys.readouterr()
        assert "PASS" in captured.out and captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_seed_has_no_effect(self, capsys):
        def report(*extra):
            assert main(["--check", "factorize-Pi", "--n", "5", *extra, "--format", "json"]) == 0
            data = json.loads(capsys.readouterr().out)
            for r in data["reports"]:
                del r["elapsed_ms"]
            return data

        assert report("--seed", "7") == report()

    def test_closed_pipe_keeps_the_exit_code(self, tmp_path):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        out = tmp_path / "report.json"
        with redirect_stdout(ClosedPipe()):
            assert main(["--check", "counts", "--n", "3", "--out", str(out)]) == 0
            assert main(["--list"]) == 0
        assert "PASS" in out.read_text()

    def test_closed_pipe_on_a_real_descriptor(self):
        src = str(Path(chaincat.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen(
            [sys.executable, "-m", "chaincat.cli", "--check", "counts", "--n", "3"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()  # the reader is gone before the report is printed
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        assert b"BrokenPipeError" not in err and b"Traceback" not in err

    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in CHECKS:
            assert name in out


class TestExport:
    def test_export_ox3(self, tmp_path):
        path = tmp_path / "ox3.json"
        export_cayley("oxn", 3, str(path))
        data = json.loads(path.read_text())
        assert data["order"] == 9
        assert len(data["table"]) == 9 and all(len(row) == 9 for row in data["table"])
        assert data["elements"][1] == "[1,1,2]"

    def test_export_tl_isomorphic_table_size(self, tmp_path):
        path = tmp_path / "tl3.json"
        export_cayley("TL", 3, str(path))
        data = json.loads(path.read_text())
        assert data["order"] == 9

    def test_export_all_selectors_n3(self, tmp_path):
        for selector in ("oxn", "TL", "TR", "TPo", "TPi"):
            path = tmp_path / f"{selector}.json"
            export_cayley(selector, 3, str(path))
            assert json.loads(path.read_text())["order"] == 9

    @pytest.mark.parametrize("n", [3, 4])
    def test_exported_labels_are_distinct(self, tmp_path, n):
        for selector in ("TL", "TR", "TPo", "TPi"):
            path = tmp_path / f"{selector}.json"
            export_cayley(selector, n, str(path))
            labels = json.loads(path.read_text())["elements"]
            assert len(set(labels)) == len(labels), selector

    @staticmethod
    def reference_bytes(s) -> bytes:
        """The export as one ``json.dumps`` of the whole table, built here
        from the semigroup's fields, not by the export code."""
        payload = {"order": len(s.elements), "elements": [str(x) for x in s.elements], "table": s.table}
        return (json.dumps(payload) + "\n").encode("utf-8")

    @pytest.mark.parametrize(
        "selector,n", [(selector, 3) for selector in SELECTORS] + [("oxn", n) for n in (4, 5, 6)]
    )
    def test_streamed_bytes_equal_one_dump(self, tmp_path, selector, n):
        path = tmp_path / f"{selector}.json"
        export_cayley(selector, n, str(path))
        assert path.read_bytes() == self.reference_bytes(verify.EXPORTS[selector](n))

    def test_export_holds_one_row_not_the_table_as_text(self, tmp_path):
        # OX_6's table is about 1 MB of JSON; a whole-table string would add
        # megabytes to the traced peak, one row adds about 2 KB.
        verify.EXPORTS["oxn"](6)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            export_cayley("oxn", 6, str(tmp_path / "ox6.json"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 256 * 1024

    def test_resource_limit(self, tmp_path):
        with pytest.raises(ResourceLimit):
            export_cayley("oxn", 12, str(tmp_path / "big.json"))

    def test_unknown_selector(self, tmp_path):
        with pytest.raises(ValueError, match="selector"):
            export_cayley("weird", 3, str(tmp_path / "x.json"))

    def test_cli_export(self, tmp_path, capsys):
        path = tmp_path / "ox4.json"
        assert main(["--export-cayley", "oxn", "--n", "4", "--out", str(path)]) == 0
        assert json.loads(path.read_text())["order"] == 34
        assert main(["--export-cayley", "oxn", "--n", "12", "--out", str(tmp_path / "no.json")]) == 2
        with pytest.raises(SystemExit) as exc:
            main(["--export-cayley", "oxn", "--n", "3"])
        assert exc.value.code == 2
