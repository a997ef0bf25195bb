//! Timing microbenches of the simulation substrates: the fluid-flow
//! max-min solver, the overlay scheduler, one full iteration simulation
//! per design point, and the scenario runner's cold-cache grid execution.

use mcdla_bench::measure::{time_ms, Envelope};
use mcdla_core::{IterationSim, Runner, ScenarioGrid, SystemConfig, SystemDesign};
use mcdla_dnn::{Benchmark, DataType};
use mcdla_parallel::ParallelStrategy;
use mcdla_sim::{Bandwidth, Bytes, FlowNetwork, SimTime};
use mcdla_vmem::{VirtPolicy, VirtSchedule};

fn main() {
    let mut metrics = vec![time_ms("substrates/flow_max_min_32_flows", 20, || {
        let mut net = FlowNetwork::new();
        let shared = net.add_channel("socket", Bandwidth::gb_per_sec(80.0));
        let mut paths = Vec::new();
        for i in 0..32 {
            let own = net.add_channel(format!("dev{i}"), Bandwidth::gb_per_sec(16.0));
            paths.push(vec![own, shared]);
        }
        for p in &paths {
            net.open_flow(SimTime::ZERO, p, Bytes::from_mb(100))
                .unwrap();
        }
        net.drain_all()
    })];

    for bm in [Benchmark::GoogLeNet, Benchmark::RnnGru] {
        let net = bm.build();
        metrics.push(time_ms(
            &format!("substrates/overlay_schedule/{bm}"),
            20,
            || VirtSchedule::analyze(&net, 64, DataType::F32, VirtPolicy::paper_default()),
        ));
    }

    let net = Benchmark::GoogLeNet.build();
    for design in SystemDesign::ALL {
        metrics.push(time_ms(
            &format!("substrates/iteration/{}", design.name()),
            10,
            || {
                IterationSim::new(
                    SystemConfig::new(design),
                    &net,
                    ParallelStrategy::DataParallel,
                )
                .run()
            },
        ));
    }

    // The scenario runner itself: the full 96-cell §V grid on a cold
    // cache, serial vs parallel.
    let scenarios = ScenarioGrid::paper_default().scenarios();
    for threads in [1usize, 4] {
        metrics.push(time_ms(
            &format!("substrates/grid_96_cells/threads_{threads}"),
            6,
            || Runner::with_threads(threads).run_grid(&scenarios),
        ));
    }
    print!(
        "{}",
        Envelope::new("cargo bench --bench substrates", metrics).render()
    );
}
