//! Per-exhibit regeneration harnesses.
//!
//! One Criterion benchmark per paper table/figure, each running the real
//! experiment code path at a micro measurement budget. `cargo bench
//! exhibits` therefore exercises every exhibit end to end and reports how
//! long each costs per unit of measurement — the scaling knowledge needed
//! to size a full campaign.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use experiments::context::{ExperimentContext, ExperimentParams};
use experiments::{fig1, fig10, fig2, fig5, fig8, table1, table2, table3};
use smt_sim::FetchPolicyKind;
use std::hint::black_box;

fn micro_params() -> ExperimentParams {
    let mut p = ExperimentParams::fast();
    p.profile_insts = 20_000;
    p.warmup_insts = 30_000;
    p.run_cycles = 15_000;
    p
}

/// A context with every benchmark pre-profiled, so each bench measures
/// the experiment body, not the profile warmup. The context also
/// memoizes finished runs, so a bench that simulates takes a fresh one
/// per sample (`iter_batched` never times the setup); a shared one would
/// time memo hits after the first sample.
fn prepared_context(params: ExperimentParams) -> ExperimentContext {
    let ctx = ExperimentContext::new(params);
    for m in workload_gen::spec::all_models() {
        let _ = ctx.tagged_program(m.name);
    }
    ctx
}

fn bench_tables(c: &mut Criterion) {
    let ctx = ExperimentContext::new(micro_params());
    let mut g = c.benchmark_group("tables");
    g.sample_size(10);
    g.bench_function("table1_pc_accuracy", |b| {
        // Table 1 is the profiles themselves: start each sample from an
        // empty cache so it times profiling, not lookups.
        b.iter_batched(
            || ExperimentContext::new(micro_params()),
            |ctx| black_box(table1::run(&ctx).rows.len()),
            BatchSize::PerIteration,
        )
    });
    g.bench_function("table2_machine_config", |b| {
        b.iter(|| black_box(table2::render(&ctx.machine).to_text().len()))
    });
    g.bench_function("table3_workload_mixes", |b| {
        b.iter(|| black_box(table3::render().to_text().len()))
    });
    g.finish();
}

fn bench_figures(c: &mut Criterion) {
    let fresh = || prepared_context(micro_params());
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    g.bench_function("fig1_structure_avf", |b| {
        b.iter_batched(
            fresh,
            |ctx| black_box(fig1::run(&ctx).rows.len()),
            BatchSize::PerIteration,
        )
    });
    // Figure 2's census run is never memoized: one context serves all
    // samples.
    let ctx = fresh();
    g.bench_function("fig2_ready_queue", |b| {
        b.iter(|| black_box(fig2::run(&ctx).stats.ready_queue_hist.histogram().total()))
    });
    g.bench_function("fig5_visa_icount", |b| {
        b.iter_batched(
            fresh,
            |ctx| black_box(fig5::run(&ctx).rows.len()),
            BatchSize::PerIteration,
        )
    });
    g.bench_function("fig6_fetch_policies_one", |b| {
        // One advanced policy (STALL); the full figure is 4x this.
        b.iter_batched(
            fresh,
            |ctx| {
                black_box(
                    fig5::run_with_fetch(&ctx, FetchPolicyKind::Stall)
                        .rows
                        .len(),
                )
            },
            BatchSize::PerIteration,
        )
    });
    g.finish();
}

fn bench_dvm_figures(c: &mut Criterion) {
    // DVM sweeps are the most expensive exhibits; bench a single
    // threshold so the harness stays affordable.
    let fresh = || {
        let mut params = micro_params();
        params.threshold_fracs = [0.5; 5];
        prepared_context(params)
    };
    let mut g = c.benchmark_group("dvm_figures");
    g.sample_size(10);
    g.bench_function("fig8_dvm_icount", |b| {
        b.iter_batched(
            fresh,
            |ctx| black_box(fig8::run(&ctx).cells.len()),
            BatchSize::PerIteration,
        )
    });
    g.bench_function("fig9_dvm_flush", |b| {
        b.iter_batched(
            fresh,
            |ctx| {
                black_box(
                    fig8::run_with_fetch(&ctx, FetchPolicyKind::Flush)
                        .cells
                        .len(),
                )
            },
            BatchSize::PerIteration,
        )
    });
    g.bench_function("fig10_scheme_compare", |b| {
        b.iter_batched(
            fresh,
            |ctx| black_box(fig10::run(&ctx).cells.len()),
            BatchSize::PerIteration,
        )
    });
    g.finish();
}

criterion_group!(benches, bench_tables, bench_figures, bench_dvm_figures);
criterion_main!(benches);
