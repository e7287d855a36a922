//! Wall-time attribution for the simulator hot loop.
//!
//! `sim-trace` answers *what happened* and `sim-metrics` answers *how
//! much*; this crate answers *where the wall-time goes* inside the
//! per-cycle tick. It is the measurement substrate for the hot-loop
//! performance overhaul: every future speedup claim is made against a
//! profile recorded here, not against an anecdote.
//!
//! # Span model
//!
//! Instrumented code declares a **static span table** — a
//! `&'static [SpanDef]` where each span names itself and its parent by
//! index, parents strictly before children. Because the tree shape is
//! fixed at compile time, the hot path never maintains a runtime stack:
//! entering a span is an index into a flat slot array. A [`SpanSet`]
//! owns the accumulators; [`SpanSet::enter`] returns a by-value
//! [`SpanToken`] so call sites with `&mut self` receivers can time a
//! stage with two sequential borrows (`enter` / call / `exit`) instead
//! of holding a guard across the call. The [`profile_scope!`] macro
//! packages that pattern.
//!
//! # Overhead budget
//!
//! When disabled (the default), `enter` is one branch returning an
//! inert token and `exit` is one branch — no `Instant`, no allocation.
//! When enabled, every entry pays two increments, but only every
//! *N*-th entry per site (the **batch**, default [`DEFAULT_BATCH`])
//! reads the clock; totals are estimated as
//! `sampled_nanos × calls / sampled`. At the default batch a profiled
//! release-mode tick carries roughly one `Instant` pair per cycle
//! spread over a dozen sites — well under the 5 % budget that an
//! every-entry stage timer (two clock reads per stage per cycle, ~10 %)
//! blows.
//!
//! # Exports
//!
//! [`SpanSet::report`] freezes a serializable [`ProfileReport`] with
//! per-span call counts, estimated total time and self time (total
//! minus children). The report renders to collapsed-stack text
//! ([`ProfileReport::to_collapsed`], flamegraph-ready), JSON (serde),
//! synthetic Chrome trace spans ([`ProfileReport::chrome_spans`]) and
//! a sorted hot-spot table ([`ProfileReport::hotspot_table`]).

use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Index of a span in its [`SpanSet`]'s static definition table.
pub type SpanId = usize;

/// One node of the static span tree. `parent` must index an earlier
/// entry of the table (`None` for roots); [`SpanSet::new`] checks this.
#[derive(Debug, Clone, Copy)]
pub struct SpanDef {
    pub name: &'static str,
    pub parent: Option<SpanId>,
}

/// Default `Instant`-batching factor: one clock read per
/// `DEFAULT_BATCH` entries per site.
pub const DEFAULT_BATCH: u32 = 32;

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// Exact number of calls: one per [`SpanSet::enter`], plus the batch
    /// sizes charged by [`SpanSet::exit_batch`].
    calls: u64,
    /// Entries of either kind: the population the sampled entries
    /// extrapolate to.
    entries: u64,
    /// Entries that actually read the clock.
    sampled: u64,
    /// Wall-nanos accumulated over the sampled entries.
    nanos: u64,
    /// Entries remaining until the next clock read.
    countdown: u32,
}

/// Accumulated wall-time over one static span table. Cheap to embed:
/// one `Vec` sized by the table, no locks, no heap traffic on the hot
/// path.
#[derive(Debug, Clone)]
pub struct SpanSet {
    defs: &'static [SpanDef],
    enabled: bool,
    batch: u32,
    slots: Vec<Slot>,
}

/// By-value receipt from [`SpanSet::enter`]; hand it back to
/// [`SpanSet::exit`]. Carries the clock read only for sampled entries.
#[derive(Debug, Clone, Copy)]
pub struct SpanToken {
    id: SpanId,
    start: Option<Instant>,
}

impl SpanSet {
    /// Build a disabled set over `defs`. Panics if a parent index does
    /// not precede its child (the report builder relies on it).
    pub fn new(defs: &'static [SpanDef]) -> SpanSet {
        for (i, d) in defs.iter().enumerate() {
            if let Some(p) = d.parent {
                assert!(p < i, "span {:?} parent {p} must precede index {i}", d.name);
            }
        }
        SpanSet {
            defs,
            enabled: false,
            batch: DEFAULT_BATCH,
            slots: vec![Slot::default(); defs.len()],
        }
    }

    /// Set the `Instant`-batching factor (clamped to ≥ 1). Takes effect
    /// from the next countdown reload.
    pub fn set_batch(&mut self, batch: u32) {
        self.batch = batch.max(1);
    }

    pub fn batch(&self) -> u32 {
        self.batch
    }

    /// Enable or disable accumulation. Enabling staggers the per-site
    /// countdowns so sites with the same period do not all read the
    /// clock on the same entry.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        if enabled {
            for (i, slot) in self.slots.iter_mut().enumerate() {
                slot.countdown = (i as u32).wrapping_mul(7) % self.batch;
            }
        }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Discard everything accumulated so far (counts and time), keeping
    /// the enabled/batch configuration. The pipeline calls this when
    /// warmup ends so the profile covers only the measured window.
    pub fn reset(&mut self) {
        let enabled = self.enabled;
        self.slots.iter_mut().for_each(|s| *s = Slot::default());
        // Re-stagger countdowns as on enable.
        if enabled {
            self.set_enabled(true);
        }
    }

    /// Enter span `id`. One branch when disabled; when enabled, counts
    /// the entry and reads the clock on every `batch`-th entry.
    #[inline]
    pub fn enter(&mut self, id: SpanId) -> SpanToken {
        self.enter_charging(id, 1)
    }

    /// Enter span `id` for a batch of work whose size is known only on
    /// exit: sampled like [`Self::enter`], but the entry charges no call.
    /// Close it with [`Self::exit_batch`].
    #[inline]
    pub fn enter_batch(&mut self, id: SpanId) -> SpanToken {
        self.enter_charging(id, 0)
    }

    #[inline]
    fn enter_charging(&mut self, id: SpanId, calls: u64) -> SpanToken {
        if !self.enabled {
            return SpanToken { id, start: None };
        }
        let slot = &mut self.slots[id];
        slot.calls += calls;
        slot.entries += 1;
        if slot.countdown == 0 {
            slot.countdown = self.batch - 1;
            slot.sampled += 1;
            SpanToken {
                id,
                start: Some(Instant::now()),
            }
        } else {
            slot.countdown -= 1;
            SpanToken { id, start: None }
        }
    }

    /// Close the span `tok` opened. Charges elapsed time only for
    /// sampled entries.
    #[inline]
    pub fn exit(&mut self, tok: SpanToken) {
        if let Some(start) = tok.start {
            self.slots[tok.id].nanos += start.elapsed().as_nanos() as u64;
        }
    }

    /// Close a span opened by [`Self::enter_batch`], charging it `calls`
    /// calls (the batch size). Its time is estimated per entry, whatever
    /// the batch sizes.
    #[inline]
    pub fn exit_batch(&mut self, tok: SpanToken, calls: u64) {
        if self.enabled {
            self.slots[tok.id].calls += calls;
        }
        self.exit(tok);
    }

    /// Exact call count for one span (mostly for tests).
    pub fn calls(&self, id: SpanId) -> u64 {
        self.slots[id].calls
    }

    /// Freeze a serializable report. Totals are the sampled nanos
    /// scaled by `entries / sampled` (equal to `calls / sampled` except
    /// for batch spans); self time subtracts the children's estimated
    /// totals.
    pub fn report(&self) -> ProfileReport {
        let totals: Vec<u64> = self
            .slots
            .iter()
            .map(|s| {
                if s.sampled == 0 {
                    0
                } else {
                    ((s.nanos as u128 * s.entries as u128) / s.sampled as u128) as u64
                }
            })
            .collect();
        let mut child_sum = vec![0u64; self.defs.len()];
        for (i, d) in self.defs.iter().enumerate() {
            if let Some(p) = d.parent {
                child_sum[p] = child_sum[p].saturating_add(totals[i]);
            }
        }
        ProfileReport {
            batch: self.batch,
            nodes: self
                .defs
                .iter()
                .enumerate()
                .map(|(i, d)| ProfileNode {
                    name: d.name.to_string(),
                    parent: d.parent,
                    calls: self.slots[i].calls,
                    sampled: self.slots[i].sampled,
                    total_ns: totals[i],
                    self_ns: totals[i].saturating_sub(child_sum[i]),
                })
                .collect(),
        }
    }
}

/// Time a block against span `$id` of SpanSet expression `$set`.
/// Expands to sequential borrows, so `$set` may be a field of the same
/// `self` the block calls methods on.
#[macro_export]
macro_rules! profile_scope {
    ($set:expr, $id:expr, $body:expr) => {{
        let __sp_tok = $set.enter($id);
        let __sp_out = $body;
        $set.exit(__sp_tok);
        __sp_out
    }};
}

/// One frozen span: tree position, exact call count and estimated
/// wall-time. Nanos are integers so JSON round-trips are lossless.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileNode {
    pub name: String,
    /// Index of the parent node in [`ProfileReport::nodes`], always
    /// smaller than this node's own index.
    pub parent: Option<usize>,
    pub calls: u64,
    /// Entries that read the clock (`calls / batch`, roughly).
    pub sampled: u64,
    /// Estimated total wall-nanos (inclusive of children).
    pub total_ns: u64,
    /// Estimated wall-nanos minus the children's totals.
    pub self_ns: u64,
}

/// A frozen profile: the span tree with per-node attribution, plus the
/// batching factor it was recorded at.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ProfileReport {
    pub batch: u32,
    pub nodes: Vec<ProfileNode>,
}

/// One synthetic Chrome complete-event span laid out by
/// [`ProfileReport::chrome_spans`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChromeSpan {
    pub name: String,
    pub depth: u32,
    pub start_us: u64,
    pub dur_us: u64,
    pub calls: u64,
}

impl ProfileReport {
    /// `name;name;... self_ns` root-to-leaf path of one node.
    fn path(&self, mut i: usize) -> String {
        let mut parts = vec![self.nodes[i].name.as_str()];
        while let Some(p) = self.nodes[i].parent {
            parts.push(self.nodes[p].name.as_str());
            i = p;
        }
        parts.reverse();
        parts.join(";")
    }

    /// Sum of the root spans' estimated totals, in seconds.
    pub fn total_s(&self) -> f64 {
        self.nodes
            .iter()
            .filter(|n| n.parent.is_none())
            .map(|n| n.total_ns)
            .sum::<u64>() as f64
            / 1e9
    }

    /// Estimated total of the named span, in seconds (0 when absent).
    pub fn span_total_s(&self, name: &str) -> f64 {
        self.nodes
            .iter()
            .find(|n| n.name == name)
            .map_or(0.0, |n| n.total_ns as f64 / 1e9)
    }

    /// Sum of self times across the subtree rooted at the named span,
    /// in seconds. By construction this equals the subtree root's total
    /// minus any time its leaves failed to attribute, so a healthy
    /// profile has it ≈ `span_total_s(name)`.
    pub fn subtree_self_s(&self, name: &str) -> f64 {
        let Some(root) = self.nodes.iter().position(|n| n.name == name) else {
            return 0.0;
        };
        let mut in_tree = vec![false; self.nodes.len()];
        in_tree[root] = true;
        let mut sum = 0u64;
        for i in 0..self.nodes.len() {
            if i != root {
                in_tree[i] = self.nodes[i].parent.is_some_and(|p| in_tree[p]);
            }
            if in_tree[i] {
                sum += self.nodes[i].self_ns;
            }
        }
        sum as f64 / 1e9
    }

    /// Graft another report's tree under a (possibly new) root node
    /// named `under` — used to fold component profiles (mem hierarchy,
    /// branch predictor, AVF collector, governors) into one document.
    pub fn merge(&mut self, child: &ProfileReport, under: &str) {
        if child.nodes.iter().all(|n| n.calls == 0) {
            return;
        }
        let anchor = match self.nodes.iter().position(|n| n.name == under) {
            Some(i) => i,
            None => {
                self.nodes.push(ProfileNode {
                    name: under.to_string(),
                    parent: None,
                    calls: 0,
                    sampled: 0,
                    total_ns: 0,
                    self_ns: 0,
                });
                self.nodes.len() - 1
            }
        };
        let base = self.nodes.len();
        let mut grafted_total = 0u64;
        for n in &child.nodes {
            let mut n = n.clone();
            n.parent = match n.parent {
                Some(p) => Some(base + p),
                None => {
                    grafted_total += n.total_ns;
                    Some(anchor)
                }
            };
            self.nodes.push(n);
        }
        let a = &mut self.nodes[anchor];
        a.total_ns = a.total_ns.max(grafted_total);
        a.self_ns = a.total_ns.saturating_sub(grafted_total).min(a.self_ns);
    }

    /// Collapsed-stack text: one `path;to;span self_ns` line per node
    /// with nonzero self time, flamegraph-ready (`flamegraph.pl`,
    /// `inferno`, speedscope all read this).
    pub fn to_collapsed(&self) -> String {
        let mut out = String::new();
        for (i, n) in self.nodes.iter().enumerate() {
            if n.self_ns > 0 {
                out.push_str(&self.path(i));
                out.push(' ');
                out.push_str(&n.self_ns.to_string());
                out.push('\n');
            }
        }
        out
    }

    /// Parse collapsed-stack text back into `(root-to-leaf path, value)`
    /// rows. Rejects torn lines so profile files damaged in transit are
    /// caught rather than silently truncated.
    pub fn parse_collapsed(text: &str) -> Result<Vec<(Vec<String>, u64)>, String> {
        let mut rows = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            let (stack, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("line {}: no value field: {line:?}", lineno + 1))?;
            let value: u64 = value
                .parse()
                .map_err(|e| format!("line {}: bad value {value:?}: {e}", lineno + 1))?;
            if stack.is_empty() || stack.split(';').any(|f| f.is_empty()) {
                return Err(format!("line {}: empty frame in {stack:?}", lineno + 1));
            }
            rows.push((stack.split(';').map(str::to_string).collect(), value));
        }
        Ok(rows)
    }

    /// Human-readable hot-spot table, sorted by self time descending.
    /// Spans that were never entered are omitted; an empty string means
    /// nothing was profiled.
    pub fn hotspot_table(&self) -> String {
        let mut rows: Vec<(String, &ProfileNode)> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.calls > 0)
            .map(|(i, n)| (self.path(i), n))
            .collect();
        if rows.is_empty() {
            return String::new();
        }
        rows.sort_by_key(|(_, n)| std::cmp::Reverse(n.self_ns));
        let total: u64 = self.nodes.iter().map(|n| n.self_ns).sum::<u64>().max(1);
        let width = rows.iter().map(|(p, _)| p.len()).max().unwrap().max(4);
        let mut out = format!(
            "{:<width$}  {:>12}  {:>10}  {:>10}  {:>6}\n",
            "span", "calls", "total ms", "self ms", "self%"
        );
        for (path, n) in rows {
            out.push_str(&format!(
                "{:<width$}  {:>12}  {:>10.3}  {:>10.3}  {:>5.1}%\n",
                path,
                n.calls,
                n.total_ns as f64 / 1e6,
                n.self_ns as f64 / 1e6,
                n.self_ns as f64 * 100.0 / total as f64,
            ));
        }
        out
    }

    /// Lay the aggregate tree out as synthetic Chrome complete-events
    /// starting at `base_us` (so they sit after the simulated timeline
    /// in a merged `--trace` document): siblings run sequentially and
    /// children nest inside their parent's span. Sampled totals can make
    /// a parent's children add up to more than the parent; they are then
    /// scaled down in proportion, so every child keeps its share.
    pub fn chrome_spans(&self, base_us: u64) -> Vec<ChromeSpan> {
        let us = |n: &ProfileNode| n.total_ns / 1_000;
        let mut children_us = vec![0u64; self.nodes.len()];
        for n in &self.nodes {
            if let Some(p) = n.parent {
                children_us[p] += us(n);
            }
        }
        let mut start = vec![0u64; self.nodes.len()];
        let mut end = vec![0u64; self.nodes.len()];
        let mut depth = vec![0u32; self.nodes.len()];
        // Where each span's next child starts.
        let mut cursor = vec![0u64; self.nodes.len()];
        let mut cursor_root = base_us;
        let mut out = Vec::new();
        for (i, n) in self.nodes.iter().enumerate() {
            let (s, dur, d) = match n.parent {
                None => {
                    let s = cursor_root;
                    cursor_root = s + us(n);
                    (s, us(n), 0)
                }
                Some(p) => {
                    let room = end[p] - start[p];
                    let dur = if children_us[p] > room {
                        (us(n) as u128 * room as u128 / children_us[p] as u128) as u64
                    } else {
                        us(n)
                    };
                    let s = cursor[p];
                    cursor[p] = s + dur;
                    (s, dur, depth[p] + 1)
                }
            };
            start[i] = s;
            end[i] = s + dur;
            cursor[i] = s;
            depth[i] = d;
            if n.calls > 0 && end[i] > start[i] {
                out.push(ChromeSpan {
                    name: n.name.clone(),
                    depth: d,
                    start_us: start[i],
                    dur_us: end[i] - start[i],
                    calls: n.calls,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    const T: &[SpanDef] = &[
        SpanDef {
            name: "tick",
            parent: None,
        },
        SpanDef {
            name: "issue",
            parent: Some(0),
        },
        SpanDef {
            name: "select",
            parent: Some(1),
        },
        SpanDef {
            name: "fetch",
            parent: Some(0),
        },
    ];

    #[test]
    fn disabled_set_counts_nothing() {
        let mut s = SpanSet::new(T);
        for _ in 0..100 {
            let t = s.enter(1);
            s.exit(t);
        }
        assert_eq!(s.calls(1), 0);
        let r = s.report();
        assert!(r.nodes.iter().all(|n| n.calls == 0 && n.total_ns == 0));
        assert_eq!(r.hotspot_table(), "");
        assert_eq!(r.to_collapsed(), "");
    }

    #[test]
    fn enabled_set_counts_exactly_and_samples_one_in_batch() {
        let mut s = SpanSet::new(T);
        s.set_batch(8);
        s.set_enabled(true);
        for _ in 0..64 {
            let t = s.enter(2);
            s.exit(t);
        }
        assert_eq!(s.calls(2), 64);
        let r = s.report();
        assert_eq!(r.nodes[2].calls, 64);
        assert_eq!(r.nodes[2].sampled, 8);
    }

    #[test]
    fn estimate_scales_sampled_time_by_call_ratio() {
        let mut s = SpanSet::new(T);
        s.set_batch(2);
        s.set_enabled(true);
        for _ in 0..10 {
            let t = s.enter(0);
            std::thread::sleep(Duration::from_millis(1));
            s.exit(t);
        }
        let r = s.report();
        let n = &r.nodes[0];
        assert_eq!(n.calls, 10);
        assert_eq!(n.sampled, 5);
        // 5 sampled sleeps of ≥1ms, scaled ×2: at least ~10ms total.
        assert!(n.total_ns >= 9_000_000, "{}", n.total_ns);
    }

    #[test]
    fn batch_spans_charge_their_size_but_extrapolate_per_entry() {
        let mut s = SpanSet::new(T);
        s.set_batch(2);
        s.set_enabled(true);
        for size in [0u64, 100, 7, 50] {
            let t = s.enter_batch(0);
            std::thread::sleep(Duration::from_millis(1));
            s.exit_batch(t, size);
        }
        let r = s.report();
        let n = &r.nodes[0];
        assert_eq!(n.calls, 157, "calls are the summed batch sizes");
        assert_eq!(n.sampled, 2);
        // 2 sampled sleeps of ≥1ms scaled ×2 (4 entries), not ×78.
        assert!(n.total_ns >= 3_000_000, "{}", n.total_ns);
        assert!(n.total_ns < 100_000_000, "{}", n.total_ns);
        // Disabled: nothing is charged.
        s.set_enabled(false);
        let t = s.enter_batch(0);
        s.exit_batch(t, 5);
        assert_eq!(s.calls(0), 157);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut s = SpanSet::new(T);
        s.set_batch(1);
        s.set_enabled(true);
        let t0 = s.enter(0);
        let t1 = s.enter(1);
        let t2 = s.enter(2);
        std::thread::sleep(Duration::from_millis(2));
        s.exit(t2);
        s.exit(t1);
        s.exit(t0);
        let r = s.report();
        assert!(r.nodes[0].total_ns >= r.nodes[1].total_ns);
        assert!(r.nodes[1].total_ns >= r.nodes[2].total_ns);
        assert_eq!(r.nodes[2].self_ns, r.nodes[2].total_ns);
        assert!(r.nodes[0].self_ns <= r.nodes[0].total_ns - r.nodes[1].total_ns);
        // Subtree self times reassemble the root total exactly.
        let sum_self: u64 = r.nodes.iter().map(|n| n.self_ns).sum();
        assert_eq!(sum_self, r.nodes[0].total_ns);
        assert!((r.subtree_self_s("tick") - r.total_s()).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_accumulation_but_keeps_config() {
        let mut s = SpanSet::new(T);
        s.set_batch(1);
        s.set_enabled(true);
        let t = s.enter(0);
        s.exit(t);
        assert_eq!(s.calls(0), 1);
        s.reset();
        assert_eq!(s.calls(0), 0);
        assert!(s.is_enabled());
        assert_eq!(s.batch(), 1);
    }

    #[test]
    fn profile_scope_macro_returns_body_value() {
        struct Holder {
            prof: SpanSet,
            x: u64,
        }
        impl Holder {
            fn work(&mut self) -> u64 {
                self.x += 1;
                self.x
            }
        }
        let mut h = Holder {
            prof: SpanSet::new(T),
            x: 0,
        };
        h.prof.set_batch(1);
        h.prof.set_enabled(true);
        let got = profile_scope!(h.prof, 1, h.work());
        assert_eq!(got, 1);
        assert_eq!(h.prof.calls(1), 1);
    }

    fn sample_report() -> ProfileReport {
        ProfileReport {
            batch: 32,
            nodes: vec![
                ProfileNode {
                    name: "tick".into(),
                    parent: None,
                    calls: 1000,
                    sampled: 32,
                    total_ns: 10_000,
                    self_ns: 3_000,
                },
                ProfileNode {
                    name: "issue".into(),
                    parent: Some(0),
                    calls: 1000,
                    sampled: 32,
                    total_ns: 7_000,
                    self_ns: 2_000,
                },
                ProfileNode {
                    name: "select".into(),
                    parent: Some(1),
                    calls: 4000,
                    sampled: 125,
                    total_ns: 5_000,
                    self_ns: 5_000,
                },
            ],
        }
    }

    #[test]
    fn collapsed_paths_are_root_to_leaf() {
        let text = sample_report().to_collapsed();
        assert!(text.contains("tick 3000\n"));
        assert!(text.contains("tick;issue 2000\n"));
        assert!(text.contains("tick;issue;select 5000\n"));
        let rows = ProfileReport::parse_collapsed(&text).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2].0, vec!["tick", "issue", "select"]);
        assert_eq!(rows[2].1, 5000);
    }

    #[test]
    fn parse_collapsed_rejects_torn_lines() {
        assert!(ProfileReport::parse_collapsed("tick").is_err());
        assert!(ProfileReport::parse_collapsed("tick abc").is_err());
        assert!(ProfileReport::parse_collapsed("tick;;x 5").is_err());
        assert!(ProfileReport::parse_collapsed(" 5").is_err());
        assert_eq!(ProfileReport::parse_collapsed("").unwrap(), vec![]);
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let r = sample_report();
        let back: ProfileReport = serde::json::from_str(&serde::json::to_string(&r)).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn hotspot_table_sorts_by_self_time() {
        let table = sample_report().hotspot_table();
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines[0].starts_with("span"));
        assert!(lines[1].starts_with("tick;issue;select"), "{table}");
        assert!(lines[2].starts_with("tick "), "{table}");
        assert!(table.contains('%'));
    }

    #[test]
    fn merge_grafts_component_roots_under_anchor() {
        let mut r = sample_report();
        let mem = ProfileReport {
            batch: 32,
            nodes: vec![ProfileNode {
                name: "l2".into(),
                parent: None,
                calls: 50,
                sampled: 2,
                total_ns: 900,
                self_ns: 900,
            }],
        };
        r.merge(&mem, "mem_hier");
        let anchor = r.nodes.iter().position(|n| n.name == "mem_hier").unwrap();
        let l2 = r.nodes.iter().position(|n| n.name == "l2").unwrap();
        assert_eq!(r.nodes[l2].parent, Some(anchor));
        assert_eq!(r.nodes[anchor].total_ns, 900);
        assert!(r.to_collapsed().contains("mem_hier;l2 900\n"));
        // An all-zero component report merges to nothing.
        let before = r.nodes.len();
        r.merge(&ProfileReport::default(), "empty");
        assert_eq!(r.nodes.len(), before);
    }

    #[test]
    fn chrome_spans_nest_within_parents() {
        let spans = sample_report().chrome_spans(1_000);
        assert_eq!(spans.len(), 3);
        let tick = &spans[0];
        let issue = &spans[1];
        let select = &spans[2];
        assert_eq!(tick.start_us, 1_000);
        assert_eq!(tick.dur_us, 10);
        assert_eq!(issue.depth, 1);
        assert!(issue.start_us >= tick.start_us);
        assert!(issue.start_us + issue.dur_us <= tick.start_us + tick.dur_us);
        assert!(select.start_us + select.dur_us <= issue.start_us + issue.dur_us);
    }

    #[test]
    fn chrome_spans_scale_overflowing_children_into_the_parent() {
        let node = |name: &str, parent, us: u64| ProfileNode {
            name: name.into(),
            parent,
            calls: 1,
            sampled: 1,
            total_ns: us * 1_000,
            self_ns: 0,
        };
        // Three 6 µs children under a 10 µs parent.
        let r = ProfileReport {
            batch: 1,
            nodes: vec![
                node("tick", None, 10),
                node("commit", Some(0), 6),
                node("issue", Some(0), 6),
                node("fetch", Some(0), 6),
            ],
        };
        let spans = r.chrome_spans(0);
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["tick", "commit", "issue", "fetch"]);
        let tick = &spans[0];
        let mut at = tick.start_us;
        for child in &spans[1..] {
            assert!(child.dur_us > 0, "{} vanished", child.name);
            assert_eq!(child.depth, 1);
            assert!(child.start_us >= at, "{} out of order", child.name);
            at = child.start_us + child.dur_us;
        }
        assert!(at <= tick.start_us + tick.dur_us, "children overflow tick");
    }
}
