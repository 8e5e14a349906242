//! One benchmark per paper table/figure: each measures the host cost of
//! regenerating that artifact at reduced (CI) scale, and — once per
//! `cargo bench` run — prints the regenerated table itself, so benching
//! doubles as a smoke reproduction. Use `cargo run --release -p iobench`
//! for the full paper-scale tables.

use std::sync::Once;

use criterion::{criterion_group, criterion_main, Criterion};
use iobench::experiments::{
    extentfs_comparison_run, extents_run, fig10_run, fig10_table, fig11_table, fig12_run,
    fig9_table, musbus_run, rejected_alternatives_run, write_limit_sweep_run, RunScale,
};
use iobench::runner::Runner;
use iobench::{run_iobench, Config, IoKind};
use simkit::Sim;
use std::time::Duration;

static PRINT_ONCE: Once = Once::new();

fn quick() -> RunScale {
    RunScale::quick()
}

fn bench_fig10(c: &mut Criterion) {
    PRINT_ONCE.call_once(|| {
        println!("\n=== Figure 9 ===\n{}", fig9_table());
        let data = fig10_run(quick(), &Runner::serial(None));
        println!("=== Figure 10 (quick scale) ===\n{}", fig10_table(&data));
        println!("=== Figure 11 (quick scale) ===\n{}", fig11_table(&data));
        let (t12, _, _) = fig12_run(quick(), &Runner::serial(None));
        println!("=== Figure 12 (quick scale) ===\n{t12}");
    });
    let mut g = c.benchmark_group("tables");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(3));
    g.warm_up_time(Duration::from_secs(1));
    // One representative cell per workload type, config A.
    for kind in [IoKind::SeqRead, IoKind::SeqWrite, IoKind::RandUpdate] {
        g.bench_function(format!("fig10_A_{}", kind.label()), |b| {
            b.iter(|| {
                let sim = Sim::new();
                let s = sim.clone();
                sim.run_until(async move {
                    let w = iobench::paper_world(
                        &s,
                        Config::A.tuning(),
                        iobench::WorldOptions::default(),
                    )
                    .await
                    .unwrap();
                    run_iobench(
                        &w,
                        "t",
                        kind,
                        iobench::iobench::BenchOptions {
                            file_bytes: 2 << 20,
                            io_bytes: 8192,
                            random_ops: 64,
                            seed: 1,
                        },
                    )
                    .await
                    .unwrap()
                    .kb_per_sec()
                })
            })
        });
    }
    g.finish();
}

fn bench_fig12(c: &mut Criterion) {
    let mut g = c.benchmark_group("tables");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(3));
    g.warm_up_time(Duration::from_secs(1));
    g.bench_function("fig12_cpu_comparison", |b| {
        b.iter(|| fig12_run(RunScale::quick(), &Runner::serial(None)).1)
    });
    g.finish();
}

fn bench_in_text(c: &mut Criterion) {
    let mut g = c.benchmark_group("tables");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(3));
    g.warm_up_time(Duration::from_secs(1));
    g.bench_function("allocator_extents_quick", |b| {
        b.iter(|| extents_run(true, &Runner::serial(None)).1)
    });
    g.bench_function("musbus", |b| b.iter(|| musbus_run(&Runner::serial(None)).1));
    g.finish();
}

fn bench_ablations(c: &mut Criterion) {
    let mut g = c.benchmark_group("tables");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(3));
    g.warm_up_time(Duration::from_secs(1));
    g.bench_function("rejected_alternatives", |b| {
        b.iter(|| rejected_alternatives_run(RunScale::quick(), &Runner::serial(None)).len())
    });
    g.bench_function("extentfs_comparison", |b| {
        b.iter(|| extentfs_comparison_run(RunScale::quick(), &Runner::serial(None)).len())
    });
    g.bench_function("write_limit_sweep", |b| {
        b.iter(|| write_limit_sweep_run(RunScale::quick(), &Runner::serial(None)).len())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_fig10,
    bench_fig12,
    bench_in_text,
    bench_ablations
);
criterion_main!(benches);
