//! Figure 5(a): reasoning time for the eight iWarded scenarios SynthA–SynthH.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use vadalog_bench::run_engine;
use vadalog_workloads::iwarded::Scenario;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5a_iwarded");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    for scenario in Scenario::all() {
        // Laptop-scale facts (the paper's relative ordering across scenarios
        // is what matters here; see benchmark/RESULTS.md).
        let mut spec = scenario.spec();
        spec.facts_per_input = 60;
        spec.domain_size = 25;
        let program = vadalog_workloads::iwarded::generate(&spec, 42);
        group.bench_function(scenario.name(), |b| {
            b.iter(|| run_engine(std::hint::black_box(&program)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
