//! Zero-cost-when-off acceptance: a disabled [`SpanSet`] must add no
//! allocations and no measurable time to the hot path it instruments.
//!
//! This lives in an integration test so it can install a counting
//! global allocator without affecting the unit-test binary.

use sim_profile::{profile_scope, SpanDef, SpanSet};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

struct CountingAlloc;

thread_local! {
    // Per thread: the tests run in parallel, and another test building
    // its `SpanSet` must not count against the hot path measured here.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const TABLE: &[SpanDef] = &[
    SpanDef {
        name: "tick",
        parent: None,
    },
    SpanDef {
        name: "stage",
        parent: Some(0),
    },
];

#[test]
fn disabled_profiler_allocates_nothing_on_the_hot_path() {
    let mut set = SpanSet::new(TABLE); // construction may allocate
    let before = allocations();
    let mut acc = 0u64;
    for i in 0..100_000u64 {
        acc = acc.wrapping_add(profile_scope!(set, 1, black_box(i)));
    }
    black_box(acc);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "disabled enter/exit must not touch the allocator"
    );
}

#[test]
fn enabled_profiler_allocates_nothing_on_the_hot_path_either() {
    // Accumulation is all fixed-size slots; only `report()` builds
    // heap structures.
    let mut set = SpanSet::new(TABLE);
    set.set_enabled(true);
    let before = allocations();
    for i in 0..10_000u64 {
        black_box(profile_scope!(set, 1, black_box(i)));
    }
    let after = allocations();
    assert_eq!(after - before, 0);
}

#[test]
fn disabled_enter_exit_adds_no_measurable_time() {
    // Paired run with a generous bound: the instrumented loop may take
    // at most 5× the bare loop (the real ratio is ~1; the headroom
    // absorbs scheduler noise on loaded CI hosts). Both loops do the
    // same arithmetic through black_box so neither can be folded away.
    let mut set = SpanSet::new(TABLE);
    const N: u64 = 2_000_000;

    let work = |i: u64| black_box(i).wrapping_mul(0x9e37_79b9);

    // Warm both paths once, then measure.
    for _ in 0..2 {
        black_box((0..1000u64).map(work).sum::<u64>());
    }
    let t0 = Instant::now();
    let mut bare = 0u64;
    for i in 0..N {
        bare = bare.wrapping_add(work(i));
    }
    let bare_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut instrumented = 0u64;
    for i in 0..N {
        instrumented = instrumented.wrapping_add(profile_scope!(set, 1, work(i)));
    }
    let instr_s = t1.elapsed().as_secs_f64();

    assert_eq!(black_box(bare), black_box(instrumented));
    assert_eq!(set.calls(1), 0, "profiler stayed disabled");
    assert!(
        instr_s <= bare_s * 5.0 + 0.01,
        "disabled profiling cost too much: bare {bare_s:.4}s, instrumented {instr_s:.4}s"
    );
}
