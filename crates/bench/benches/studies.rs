//! Timing benches for the §V-B sensitivity and §V-D scalability studies.

use mcdla_bench::measure::{time_ms, Envelope};
use mcdla_core::experiment;
use mcdla_dnn::Benchmark;

fn main() {
    let metrics = vec![
        time_ms("scalability/cnn_1_to_8_devices", 10, || {
            experiment::scalability(&Benchmark::CNNS)
        }),
        time_ms("sensitivity/all_studies", 10, experiment::sensitivity),
        time_ms("ablations/dc_dla_suite", 10, || {
            mcdla_core::ablation::ablations(mcdla_core::SystemDesign::DcDla)
        }),
        time_ms("scale_out/resnet_8_to_64", 10, || {
            experiment::scale_out(Benchmark::ResNet, &[8, 16, 32, 64])
        }),
    ];
    print!(
        "{}",
        Envelope::new("cargo bench --bench studies", metrics).render()
    );
}
