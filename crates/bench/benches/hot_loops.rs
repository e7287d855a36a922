//! Microbenchmarks of the simulator's hot loops.
//!
//! These are the costs that dominate experiment campaigns: pipeline
//! stepping and `run` (which fast-forwards idle cycles) on CPU- vs
//! MEM-bound mixes, the windowed ACE analysis alone and inside the AVF
//! collector, the offline profiler, the cache/predictor substrates, and
//! the checkpoint encode a journaled campaign pays at every snapshot.

use bench::{cold_pipeline, tagged_mix, warmed_pipeline};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

fn pipeline_stepping(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline_step");
    g.sample_size(10);
    for mix in ["CPU-A", "MEM-A"] {
        let programs = tagged_mix(mix);
        g.throughput(Throughput::Elements(5_000));
        g.bench_function(format!("{mix}/5k_cycles"), |b| {
            b.iter_batched(
                || {
                    let mut p = cold_pipeline(&programs);
                    p.warm_up(50_000);
                    p
                },
                |mut p| {
                    let mut sink = smt_sim::NullObserver;
                    for _ in 0..5_000 {
                        p.step(&mut sink);
                    }
                    black_box(p.stats().total_committed())
                },
                BatchSize::PerIteration,
            )
        });
    }
    g.finish();
}

/// The same 5 K cycles through `run`, which fast-forwards idle cycles
/// (`pipeline_step` keeps timing the per-cycle path).
fn pipeline_run(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline_run");
    g.sample_size(10);
    for mix in ["CPU-A", "MEM-A"] {
        let programs = tagged_mix(mix);
        g.throughput(Throughput::Elements(5_000));
        g.bench_function(format!("{mix}/5k_cycles"), |b| {
            b.iter_batched(
                || {
                    let mut p = cold_pipeline(&programs);
                    p.warm_up(50_000);
                    p
                },
                |mut p| {
                    let mut sink = smt_sim::NullObserver;
                    let r = p.run(smt_sim::SimLimits::cycles(5_000), &mut sink);
                    black_box(r.stats.total_committed())
                },
                BatchSize::PerIteration,
            )
        });
    }
    g.finish();
}

fn ace_analysis(c: &mut Criterion) {
    use avf::{AceAnalyzer, AceInstRecord};
    use workload_gen::{generate_program, model_by_name, ThreadEngine};

    let program = std::sync::Arc::new(generate_program(&model_by_name("gcc").unwrap()));
    // Pre-capture a committed stream to isolate the analyzer cost.
    let mut engine = ThreadEngine::new(program, 0);
    let stream: Vec<(AceInstRecord, u64)> = (0..100_000u64)
        .map(|k| {
            let i = engine.next_correct();
            let rec = AceInstRecord {
                tid: 0,
                op: i.op,
                dest: i.dest,
                srcs: i.srcs,
                commit_cycle: k,
            };
            (rec, i.pc)
        })
        .collect();

    let mut g = c.benchmark_group("ace_analysis");
    g.sample_size(10);
    g.throughput(Throughput::Elements(stream.len() as u64));
    g.bench_function("100k_commits_40k_window", |b| {
        b.iter(|| {
            let mut az: AceAnalyzer<u64> = AceAnalyzer::new(1, 40_000);
            let mut ace = 0u64;
            let mut count = |f: avf::Finalized<u64>| {
                if f.ace {
                    ace += 1;
                }
            };
            for &(rec, pc) in &stream {
                az.push(rec, pc, &mut count);
            }
            az.drain(&mut count);
            black_box(ace)
        })
    });
    g.finish();
}

/// The AVF collector as the simulator drives it: 100 K commit events of
/// a warmed CPU-A run through `on_commit`, then the end-of-run drain.
fn avf_collector(c: &mut Criterion) {
    use avf::AvfCollector;
    use smt_sim::{RetireEvent, SimLimits, SimObserver};

    const EVENTS: usize = 100_000;
    struct Capture(Vec<RetireEvent>);
    impl SimObserver for Capture {
        fn on_commit(&mut self, ev: &RetireEvent) {
            if self.0.len() < EVENTS {
                self.0.push(ev.clone());
            }
        }
    }

    let mut p = cold_pipeline(&tagged_mix("CPU-A"));
    let start = p.warm_up(50_000);
    let mut cap = Capture(Vec::with_capacity(EVENTS));
    p.run(SimLimits::cycles(60_000), &mut cap);
    let events = cap.0;
    assert_eq!(events.len(), EVENTS, "CPU-A committed too little");
    let end = events.last().unwrap().retire_cycle + 1;
    let machine = smt_sim::MachineConfig::table2();

    let mut g = c.benchmark_group("avf_collector");
    g.sample_size(10);
    g.throughput(Throughput::Elements(EVENTS as u64));
    g.bench_function("CPU-A/100k_commits", |b| {
        b.iter(|| {
            let mut col = AvfCollector::standard(&machine).with_start_cycle(start);
            for ev in &events {
                col.on_commit(ev);
            }
            col.on_finish(end);
            black_box(col.report().iq_avf)
        })
    });
    g.finish();
}

fn offline_profiler(c: &mut Criterion) {
    use workload_gen::{generate_program, model_by_name};
    let program = std::sync::Arc::new(generate_program(&model_by_name("mcf").unwrap()));
    let mut g = c.benchmark_group("profiler");
    g.sample_size(10);
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("mcf_100k", |b| {
        b.iter(|| black_box(avf::profile_program(&program, 100_000, 40_000).accuracy))
    });
    g.finish();
}

fn substrates(c: &mut Criterion) {
    use branch_pred::BranchPredictor;
    use mem_hier::MemoryHierarchy;
    use micro_isa::BranchKind;

    let mut g = c.benchmark_group("substrates");
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("dcache_stream_100k", |b| {
        b.iter_batched(
            MemoryHierarchy::table2,
            |mut h| {
                let mut sum = 0u64;
                for k in 0..100_000u64 {
                    sum += h.access_data(0, (k * 64) % (1 << 20)).latency as u64;
                }
                black_box(sum)
            },
            BatchSize::PerIteration,
        )
    });
    g.bench_function("gshare_predict_train_100k", |b| {
        b.iter_batched(
            || BranchPredictor::table2(4),
            |mut bp| {
                let mut taken_count = 0u64;
                for k in 0..100_000u64 {
                    let pc = k % 512;
                    let h = bp.history_checkpoint(0);
                    let p = bp.predict(0, pc, BranchKind::Cond, pc + 1);
                    if p.taken {
                        taken_count += 1;
                    }
                    bp.resolve(0, pc, BranchKind::Cond, k % 7 != 0, pc + 9, Some(h));
                }
                black_box(taken_count)
            },
            BatchSize::PerIteration,
        )
    });
    g.finish();
}

/// One mid-run checkpoint of a MEM-A DVM-dynamic machine (pipeline plus
/// a 40 000-instruction ACE window), and the CRC-32 that covers it.
fn checkpoint(c: &mut Criterion) {
    use avf::AvfCollector;
    use iq_reliability::Scheme;
    use smt_sim::FetchPolicyKind;

    let scheme = Scheme::DvmDynamic { target: 0.15 };
    let mut p = warmed_pipeline(&tagged_mix("MEM-A"), scheme, FetchPolicyKind::Icount);
    let mut col =
        AvfCollector::standard(&smt_sim::MachineConfig::table2()).with_start_cycle(p.cycle());
    for _ in 0..20_000 {
        p.step(&mut col);
    }
    let bytes = experiments::encode_checkpoint(&p, &col).len();

    let mut g = c.benchmark_group("checkpoint");
    g.sample_size(20);
    g.throughput(Throughput::Bytes(bytes as u64));
    g.bench_function("encode_checkpoint/MEM-A_dvm", |b| {
        b.iter(|| black_box(experiments::encode_checkpoint(&p, &col).len()))
    });
    let data: Vec<u8> = (0..4u32 << 20)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("crc32/4MB", |b| {
        b.iter(|| black_box(sim_snapshot::crc32(black_box(&data))))
    });
    g.finish();
}

fn program_generation(c: &mut Criterion) {
    use workload_gen::{generate_program, model_by_name};
    let model = model_by_name("gcc").unwrap();
    c.bench_function("generate_program_gcc", |b| {
        b.iter(|| black_box(generate_program(&model).len()))
    });
}

criterion_group!(
    benches,
    pipeline_stepping,
    pipeline_run,
    ace_analysis,
    avf_collector,
    offline_profiler,
    substrates,
    checkpoint,
    program_generation
);
criterion_main!(benches);
