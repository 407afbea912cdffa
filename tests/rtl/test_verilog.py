"""Tests for the structural Verilog emitter."""

import re

import pytest

from repro.accel import AcceleratorConfig, TaskUnitParams, generate
from repro.rtl import emit_top_verilog, emit_txu_verilog
from repro.workloads import REGISTRY

from tests.irprograms import build_matrix_add_module, build_scale_module


class TestTXUVerilog:
    def setup_method(self):
        self.design = generate(build_matrix_add_module())
        self.body = self.design.graph.tasks[2]
        self.text = emit_txu_verilog(self.body)

    def test_module_declared_and_closed(self):
        assert self.text.startswith("module matrix_add_t0_t0_txu")
        assert self.text.rstrip().endswith("endmodule")

    def test_one_instance_per_dataflow_node(self):
        node_count = sum(len(d.nodes) for d in self.body.dfgs.values())
        assert self.text.count("tapas_") == node_count

    def test_dfg_edges_become_port_connections(self):
        # the add node consumes two load outputs
        assert re.search(r"tapas_alu .*\n(.|\n)*in0_data", self.text)
        assert ".in1_data(" in self.text

    def test_wire_widths_follow_types(self):
        assert "wire [31:0]" in self.text      # i32 data
        assert "wire [63:0]" in self.text      # the geps produce pointers


class TestTopVerilog:
    def test_top_instantiates_every_unit(self):
        design = generate(build_matrix_add_module())
        text = emit_top_verilog(design)
        assert text.count("tapas_taskunit") == 3
        assert text.count("tapas_cache ") == 1
        assert text.count("tapas_arbiter ") == 3   # spawn, join, memory
        assert text.count("tapas_demux ") == 3

    def test_stage3_parameters_in_instantiations(self):
        design = generate(build_scale_module())
        text = emit_top_verilog(design, AcceleratorConfig(unit_params={
            "scale.t0": TaskUnitParams(ntiles=4, queue_depth=48)}))
        assert ".NTASKS(48)" in text
        assert ".NTILES(4)" in text

    @pytest.mark.parametrize("name", ["dedup", "fibonacci"])
    def test_workloads_emit_balanced_modules(self, name):
        design = generate(REGISTRY.get(name).fresh_module())
        text = emit_top_verilog(design)
        assert text.count("module ") == text.count("endmodule")
        assert text.count("module ") == 1 + len(design.graph.tasks)
