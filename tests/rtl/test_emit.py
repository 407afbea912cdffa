"""Tests for the Chisel-flavoured RTL emitter."""

from repro.accel import AcceleratorConfig, TaskUnitParams, generate
from repro.rtl import LIBRARY, component_for_kind, emit_design, emit_top, emit_txu
from repro.workloads import REGISTRY

from tests.irprograms import build_fib_module, build_matrix_add_module


class TestLibrary:
    def test_every_dataflow_kind_maps_to_a_component(self):
        from repro.rtl.components import KIND_TO_COMPONENT

        for kind, comp in KIND_TO_COMPONENT.items():
            assert comp in LIBRARY, f"{kind} -> {comp} missing from library"

    def test_component_lookup_fallback(self):
        assert component_for_kind("alu").name == "ALU"
        assert component_for_kind("unknown_kind").name == "ALU"


class TestTopLevel:
    def test_matrix_add_top_declares_three_units(self):
        design = generate(build_matrix_add_module())
        top = emit_top(design)
        assert top.count("Module(new TaskUnit(") == 3
        assert "SharedL1cache" in top
        assert "NastiMemSlave" in top

    def test_spawn_wiring_present(self):
        design = generate(build_matrix_add_module())
        top = emit_top(design)
        assert "Task1.io.detach.in <> Task0.io.spawn.out" in top
        assert "Task2.io.detach.in <> Task1.io.spawn.out" in top

    def test_recursive_self_wiring(self):
        design = generate(build_fib_module())
        top = emit_top(design)
        # fib spawns itself: unit 0 wired to its own spawn output
        assert "Task0.io.detach.in <> Task0.io.spawn.out" in top

    def test_queue_depth_parameters_respected(self):
        design = generate(build_fib_module())
        config = AcceleratorConfig(
            unit_params={"fib": TaskUnitParams(queue_depth=128)})
        assert "Nt=128" in emit_top(design, config)


class TestTXU:
    def test_fig6_style_nodes(self):
        design = generate(build_matrix_add_module())
        body = design.compiled[2]  # the add body task
        txu = emit_txu(body)
        assert "Module(new Load(" in txu
        assert "Module(new Store(" in txu
        assert "Module(new ALU(" in txu
        assert ".io.in <> " in txu  # decoupled links

    def test_every_workload_emits(self):
        for w in REGISTRY.all():
            design = generate(w.fresh_module())
            text = emit_design(design)
            assert f"module '{w.name}'" in text
            for ct in design.compiled:
                assert "TXU" in text

    def test_dedup_heterogeneous_units_named(self):
        design = generate(REGISTRY.get("dedup").fresh_module())
        text = emit_design(design)
        assert "CompressChunkTXU" in text
        assert "ProcessChunkTXU" in text
        assert "DedupTXU" in text
