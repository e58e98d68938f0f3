"""Unit tests for the static analysis framework (repro.snet.analysis)."""

import json
import warnings

import numpy as np
import pytest

from repro.apps.networks import build_static_network
from repro.apps.runner import build_farm_backend, farm_inputs
from repro.apps.workloads import extract_image
from repro.raytracer.scene import paper_scene
from repro.snet.analysis import (
    AbsRec,
    AnalysisReport,
    SourceSpan,
    Tri,
    analyze_network,
    guard_constant_value,
    guard_match,
    severity_of,
    title_of,
    variant_match,
)
from repro.snet.analysis.cli import lint_source, lint_target, main as lint_main
from repro.snet.boxes import Box
from repro.snet.combinators import IndexSplit, Parallel, Serial, Star
from repro.snet.errors import NetworkError, ParseError, RuntimeError_, SNetSyntaxError
from repro.snet.filters import Filter, FilterRule, OutputTemplate
from repro.snet.lang.builder import build_network
from repro.snet.lang.parser import parse_guard, parse_network, parse_pattern
from repro.snet.lang.typecheck import check_network
from repro.snet.network import Network
from repro.snet.patterns import Guard, Pattern, TagRef
from repro.snet.placement import StaticPlacement
from repro.snet.records import Record, Tag
from repro.snet.runtime import ProcessRuntime, get_runtime
from repro.snet.runtime.engine import ThreadedRuntime
from repro.snet.types import Variant


def _box(name, sig):
    return Box(name, sig, lambda *a: [])


class TestAbstractDomain:
    def test_variant_match_closed(self):
        rec = AbsRec(frozenset(Variant(["x", "<t>"]).labels), False)
        assert variant_match(Variant(["x"]), rec) is Tri.YES
        assert variant_match(Variant(["y"]), rec) is Tri.NO

    def test_variant_match_open(self):
        rec = AbsRec(frozenset(), True)
        assert variant_match(Variant(["x"]), rec) is Tri.MAYBE

    def test_guard_constant_value(self):
        assert guard_constant_value(parse_guard("1 == 2")) == 0
        assert guard_constant_value(parse_guard("2 == 2")) == 1
        assert guard_constant_value(parse_guard("<t> == 2")) is None

    def test_guard_match_absent_tag_is_no(self):
        rec = AbsRec(frozenset(Variant(["x"]).labels), False)
        assert guard_match(parse_guard("<t> == 1"), rec) is Tri.NO

    def test_opaque_callable_guard_is_maybe(self):
        rec = AbsRec(frozenset(), True)
        assert guard_match(Guard(func=lambda r: True), rec) is Tri.MAYBE


class TestDiagnostics:
    def test_catalog_metadata(self):
        assert str(severity_of("SNET-E005")) == "error"
        assert str(severity_of("SNET-W101")) == "warning"
        assert title_of("SNET-E001") == "synchrocell-deadlock"

    def test_report_dedupes(self):
        report = AnalysisReport()
        assert report.add("SNET-W101", "same message", path="p") is not None
        assert report.add("SNET-W101", "same message", path="p") is None
        assert len(report) == 1

    def test_span_excerpt(self):
        span = SourceSpan(2, 3)
        excerpt = span.excerpt("first\nsecond line")
        assert "second line" in excerpt
        assert "^" in excerpt.splitlines()[-1]


class TestChecksProgrammatic:
    def test_invalid_split_tag_e007(self):
        net = IndexSplit(_box("b", "(y) -> (z)"), "no-de")
        report = analyze_network(net)
        assert "SNET-E007" in report.codes()

    def test_placement_beyond_cluster_w105(self):
        net = Serial(_box("a", "(x) -> (y)"),
                     StaticPlacement(_box("b", "(y) -> (z)"), 5))
        assert "SNET-W105" in analyze_network(net, nodes=2).codes()
        assert "SNET-W105" not in analyze_network(net, nodes=8).codes()
        # without a cluster size the check cannot apply
        assert "SNET-W105" not in analyze_network(net).codes()

    def test_sync_pattern_guard_visited(self):
        # satellite regression: the old checker never descended into
        # synchrocell patterns or star exit patterns
        from repro.snet.synchrocell import SyncroCell

        sync = SyncroCell([Pattern(["p"]), Pattern(["q"], Guard(parse_guard("0 == 1").expr))])
        net = Serial(_box("a", "(x) -> (p) | (q)"), sync)
        codes = analyze_network(net).codes()
        assert "SNET-E003" in codes
        assert "SNET-E001" in codes

    def test_star_exit_guard_visited(self):
        star = Star(Filter.identity(), Pattern([], Guard(parse_guard("1 == 2").expr)))
        net = Serial(_box("a", "(x) -> (y)"), star)
        codes = analyze_network(net).codes()
        assert "SNET-E003" in codes
        assert "SNET-E002" in codes

    def test_shared_subtree_warnings_dedupe(self):
        # the same defective filter appearing twice must not double-report
        # identical findings (per-path findings stay distinct)
        bad = Filter([FilterRule(Pattern(["y"], Guard(parse_guard("1 == 2").expr)),
                                 [OutputTemplate(keep=("y",))])], name="dead")
        net = Serial(_box("a", "(x) -> (y)"), Serial(bad, bad.copy()))
        report = analyze_network(net)
        e003 = [d for d in report.diagnostics if d.code == "SNET-E003"]
        assert len(e003) == len({(d.path, d.message) for d in e003})

    def test_analyzer_crash_fails_open(self):
        class Hostile(Box):
            @property
            def signature(self):
                raise RuntimeError("broken signature")

        net = Hostile("h", "(x) -> (y)", lambda x: [])
        report = analyze_network(net)
        assert report.dataflow_ok in (True, False)  # never raises


class TestSpans:
    def test_syntax_error_has_caret(self):
        src = "net n {\n  box a ((x) -> (y);\n} connect a"
        with pytest.raises(SNetSyntaxError) as exc_info:
            parse_network(src)
        rendered = str(exc_info.value)
        assert "^" in rendered
        assert "line 2" in rendered
        # SNetSyntaxError subclasses ParseError: old handlers keep working
        assert isinstance(exc_info.value, ParseError)

    def test_pattern_carries_span(self):
        assert parse_pattern("{pic}").source_span == SourceSpan(1, 1)

    def test_built_entities_carry_spans(self):
        src = (
            "net demo {\n"
            "  box f ((x) -> (y));\n"
            "} connect f .. [| {y}, {z} |]\n"
        )
        decl = parse_network(src)
        netdef = build_network(decl, {"f": lambda x: {"y": x}})
        net = netdef.instantiate()
        spans = {e.__class__.__name__: getattr(e, "source_span", None)
                 for e in net.iter_entities()}
        assert spans["Box"] == SourceSpan(3, 11)
        assert spans["SyncroCell"] == SourceSpan(3, 16)

    def test_diagnostic_points_at_source(self):
        src = (
            "net bad {\n"
            "  box a ((x) -> (y));\n"
            "  box b ((q) -> (r));\n"
            "} connect a .. b\n"
        )
        report = lint_source(src)
        (finding,) = report.errors
        assert finding.code == "SNET-E005"
        assert finding.span is not None and finding.span.line == 4
        assert "^" in finding.format(src)


class TestCheckNetworkCompat:
    def test_report_shape(self):
        net = Serial(_box("a", "(x) -> (y)"), _box("b", "(y) -> (z)"))
        report = check_network(net)
        assert report.ok
        assert report.signature.accepts(Record({"x": 1}))
        assert report.analysis is not None and report.analysis.ok

    def test_errors_are_formatted_diagnostics(self):
        net = Serial(_box("a", "(x) -> (y)"), _box("b", "(q) -> (r)"))
        report = check_network(net)
        assert not report.ok
        assert any("SNET-E005" in e for e in report.errors)


class TestRuntimeCheckKnob:
    def _bad_network(self):
        # 'a' really emits {y}, which 'b' rejects at run time
        return Serial(Box("a", "(x) -> (y)", lambda x: {"y": x}),
                      Box("b", "(q) -> (r)", lambda q: {"r": q}))

    def test_error_mode_raises_before_first_record(self):
        runtime = ThreadedRuntime(check="error")
        with pytest.raises(NetworkError, match="SNET-E005"):
            runtime.run(self._bad_network(), [Record({"x": 1})], timeout=10)

    def test_warn_mode_warns_once_per_network(self):
        runtime = ThreadedRuntime()  # "warn" is the default
        net = self._bad_network()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(2):
                with pytest.raises(RuntimeError_):
                    runtime.run(net, [Record({"x": 1})], timeout=10)
        relevant = [w for w in caught
                    if issubclass(w.category, RuntimeWarning)
                    and "SNET-E005" in str(w.message)]
        assert len(relevant) == 1  # cached after the first job

    def test_off_mode_skips_analysis(self):
        runtime = ThreadedRuntime(check="off")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(RuntimeError_):
                runtime.run(self._bad_network(), [Record({"x": 1})], timeout=10)
        assert not [w for w in caught if "SNET" in str(w.message)]

    def test_clean_network_unaffected_by_error_mode(self):
        net = Serial(_box("a", "(x) -> (y)"),
                     Box("b", "(y) -> (z)", lambda y: {"z": y}))
        net = Serial(Box("a", "(x) -> (y)", lambda x: {"y": x}), net.right)
        runtime = ThreadedRuntime(check="error")
        out = runtime.run(net, [Record({"x": 1})], timeout=10)
        assert [r.field("z") for r in out] == [1]

    def test_invalid_mode_rejected(self):
        with pytest.raises(RuntimeError_):
            ThreadedRuntime(check="loud")

    def test_setup_validates_too(self):
        runtime = ThreadedRuntime(check="error")
        with pytest.raises(NetworkError):
            runtime.setup(self._bad_network())

    def test_analyzer_crash_fails_open(self, monkeypatch):
        import repro.snet.analysis as analysis_pkg

        def boom(*a, **k):
            raise ValueError("analyzer exploded")

        monkeypatch.setattr(analysis_pkg, "analyze_network", boom)
        net = Serial(Box("a", "(x) -> (y)", lambda x: {"y": x}),
                     Box("b", "(y) -> (z)", lambda y: {"z": y}))
        runtime = ThreadedRuntime(check="error")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = runtime.run(net, [Record({"x": 1})], timeout=10)
        assert len(out) == 1  # the run still happened
        assert any("analyzer failed" in str(w.message) for w in caught)


    @pytest.mark.parametrize(
        "runtime_name, options",
        [
            ("threaded", {}),
            pytest.param("process", {"workers": 2}, marks=pytest.mark.skipif(
                not ProcessRuntime.fork_available(), reason="needs the fork start method")),
        ],
    )
    def test_farm_is_analyzed_once_over_many_runs(self, runtime_name, options, monkeypatch):
        # the network is compiled to one plan per object, analysis included:
        # warm jobs pay a dictionary lookup, and checking changes no pixel
        # (check="off" still analyzes once, to prove the network safe to fuse)
        import repro.snet.analysis as analysis_pkg
        from repro.snet.runtime import plan as plan_module

        analyzed, planned = [], []

        def counting(network, **kwargs):
            analyzed.append(network)
            return analyze_network(network, **kwargs)

        class CountingPlan(plan_module.Plan):
            __slots__ = ()

            def __init__(self, network, nodes=None):
                planned.append(network)
                super().__init__(network, nodes)

        monkeypatch.setattr(analysis_pkg, "analyze_network", counting)
        monkeypatch.setattr(plan_module, "Plan", CountingPlan)
        scene = paper_scene(num_spheres=50)
        images = {}
        for check in ("off", "error"):
            analyzed.clear()
            planned.clear()
            backend = build_farm_backend(scene, 24, 24, "records", "fused")
            network = build_static_network(backend, render_mode="fused")
            runtime = get_runtime(runtime_name, check=check, **options)
            for _ in range(5):
                backend.begin_job()
                runtime.run(network, farm_inputs("static", scene, nodes=1, tasks=4),
                            timeout=60)
            images[check] = extract_image(backend)
            assert analyzed == [network], check
            assert planned == [network], check
        np.testing.assert_allclose(images["error"], images["off"], atol=1e-9)


class TestInferredInputType:
    """The seed of an undeclared network is its first entity's input type.

    A serial composition's inferred input type is its left operand's, and
    the analysis seeds *closed* records of it — the rule that makes
    ``a .. b`` with disjoint labels a definite error.  A label a later entity
    needs and the inputs supply through flow inheritance is therefore
    invisible unless the network declares it.  The nested network below
    terminates and matches the sequential interpreter; undeclared it is
    reported (SNET-E005, SNET-E002), declared it is clean and runs under
    ``check="error"``.
    """

    def _body(self):
        inc = Box("inc", "(a) -> (a)", lambda a: {"a": a + 1})
        bump = Box("bump", "(<n>) -> (<n>)", lambda n: {"<n>": n + 1})
        return Serial(
            IndexSplit(Serial(inc, Filter.identity()), "k"),
            Star(bump, Pattern(["<n>"], Guard(TagRef("n") >= 2))),
        )

    def test_undeclared_seed_misses_inherited_labels(self):
        net = Network("nested", self._body())
        (seed,) = net.signature.input_type.variants
        assert set(seed.labels) == set(Variant(["a", "<k>"]).labels)
        report = analyze_network(net)
        assert {"SNET-E002", "SNET-E005"} <= {d.code for d in report.errors}

    def test_declared_input_type_is_clean_and_runs(self):
        from repro.snet.network import run_network
        from repro.snet.types import TypeSignature

        net = Network(
            "nested",
            self._body(),
            signature=TypeSignature(["a", "<k>", "<n>"], ["a", "<k>", "<n>"]),
        )
        assert not analyze_network(net).errors
        inputs = [Record({"a": i, "<k>": i % 2, "<n>": 0}) for i in range(6)]
        out = ThreadedRuntime(check="error").run(net, inputs, timeout=10)
        expected = sorted(repr(r) for r in run_network(net, inputs))
        assert sorted(repr(r) for r in out) == expected


class TestLintCLI:
    def test_lint_good_file(self, tmp_path, capsys):
        f = tmp_path / "ok.snet"
        f.write_text("net n { box a ((x) -> (y)); box b ((y) -> (z)); } connect a .. b")
        assert lint_main([str(f)]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_lint_bad_file_exits_nonzero(self, tmp_path, capsys):
        f = tmp_path / "bad.snet"
        f.write_text("net n { box a ((x) -> (y)); box b ((q) -> (r)); } connect a .. b")
        assert lint_main([str(f)]) == 1
        assert "SNET-E005" in capsys.readouterr().out

    def test_lint_syntax_error_is_e008(self, tmp_path, capsys):
        f = tmp_path / "broken.snet"
        f.write_text("net n { box a ((x) -> (y); } connect a")
        assert lint_main([str(f)]) == 1
        assert "SNET-E008" in capsys.readouterr().out

    def test_lint_module_spec(self, capsys):
        assert lint_main(["repro.apps.networks:FIG2_SOURCE"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        f = tmp_path / "bad.snet"
        f.write_text("net n { box a ((x) -> (y)); box b ((q) -> (r)); } connect a .. b")
        assert lint_main(["--json", str(f)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["findings"][0]["code"] == "SNET-E005"

    def test_lint_target_entity(self):
        report, source = lint_target("repro.apps.networks:FIG3_MERGER_SOURCE")
        assert report.ok and source is not None


class TestShippedNetworksClean:
    @pytest.mark.parametrize(
        "spec",
        [
            "repro.apps.networks:FIG2_SOURCE",
            "repro.apps.networks:FIG3_MERGER_SOURCE",
            "repro.apps.networks:FIG4_SOLVER_SOURCE",
        ],
    )
    def test_paper_sources_analyze_clean(self, spec):
        report, _ = lint_target(spec)
        assert not report.errors, report.format()
