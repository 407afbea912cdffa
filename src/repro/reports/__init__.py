"""Reporting models: resources, frequency, power, table rendering."""

from repro.reports.benchjson import (
    bench_record,
    config_summary,
    engine_summary,
    sweep_record,
    utilization_from_stats,
    write_bench_json,
)
from repro.reports.frequency import estimate_mhz
from repro.reports.profile import (
    render_host_profile_report,
    render_profile_report,
)
from repro.reports.power import (
    CPU_PACKAGE_WATTS,
    TABLE4_ROWS,
    cpu_power_watts,
    fit_to_table4,
    fpga_power_watts,
    perf_per_watt_gain,
)
from repro.reports.resources import (
    ResourceReport,
    UnitResources,
    estimate_resources,
)
from repro.reports.tables import render_series, render_table
from repro.reports.visualize import (
    execution_timeline,
    task_graph_dot,
    utilization_summary,
)

__all__ = [
    "bench_record", "config_summary", "engine_summary", "sweep_record",
    "utilization_from_stats", "write_bench_json",
    "render_profile_report", "render_host_profile_report", "estimate_mhz",
    "CPU_PACKAGE_WATTS", "TABLE4_ROWS", "cpu_power_watts", "fit_to_table4",
    "fpga_power_watts", "perf_per_watt_gain",
    "ResourceReport", "UnitResources", "estimate_resources",
    "render_series", "render_table",
    "execution_timeline", "task_graph_dot", "utilization_summary",
]
