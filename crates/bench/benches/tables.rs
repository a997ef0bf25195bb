//! Timing benches regenerating each table's data (Tables II, III, IV).

use mcdla_accel::DeviceConfig;
use mcdla_bench::measure::{time_ms, Envelope};
use mcdla_dnn::{Benchmark, DataType};
use mcdla_memnode::{DimmKind, MemoryNodeConfig, SystemPower};

fn main() {
    let mut metrics = vec![time_ms("table2/configs", 100, || {
        let d = DeviceConfig::paper_baseline();
        let m = MemoryNodeConfig::paper_baseline();
        (d.peak_macs_per_sec(), m.capacity_bytes())
    })];

    for bm in Benchmark::ALL {
        metrics.push(time_ms(&format!("table3/build_{bm}"), 20, || {
            let net = bm.build();
            (net.total_params(), net.footprint(512, DataType::F32))
        }));
    }

    metrics.push(time_ms("table4/power_model", 100, || {
        let mut acc = 0.0f64;
        for dimm in DimmKind::ALL {
            let node = MemoryNodeConfig::with_dimm(dimm);
            let p = SystemPower::mc_dla(&node, 8);
            acc += node.gb_per_watt() + p.perf_per_watt_gain(2.8);
        }
        acc
    }));
    print!(
        "{}",
        Envelope::new("cargo bench --bench tables", metrics).render()
    );
}
