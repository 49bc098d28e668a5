//! Lock-free metrics primitives and the registry that snapshots them.
//!
//! Every instrument is a thin shell over `AtomicU64`s: recording is a
//! relaxed atomic op with no lock, no allocation, and no branching beyond
//! the histogram's bucket scan, so instruments can sit directly on a
//! service's admission and worker hot paths. The only mutex in the module
//! guards *registration* (naming an instrument in a [`Registry`]) and
//! snapshotting — both cold.
//!
//! Counts are monotone and relaxed-ordered; a [`Snapshot`] taken while
//! traffic is in flight is a consistent-enough view for operations (each
//! individual counter is exact, cross-counter invariants settle once the
//! traffic they describe has drained — which is when the conservation
//! checks in `kola-service` read them).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotone counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge that only ratchets upward (a high-water mark).
#[derive(Debug, Default)]
pub struct MaxGauge(AtomicU64);

impl MaxGauge {
    /// Zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raise the mark to `v` if it is higher.
    pub fn record(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current mark.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram: `bounds[i]` is the inclusive upper edge of
/// bucket `i`, with one implicit overflow bucket above the last bound.
/// Bounds are fixed at construction, so recording is a short scan over an
/// immutable slice plus one atomic add — no lock, no allocation.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// Histogram with the given ascending bucket upper edges.
    pub fn new(bounds: &[u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Exponential bounds `1, 2, 4, …` up to (and including) the first
    /// power of two ≥ `cap` — the all-purpose shape for latencies and
    /// queue depths.
    pub fn pow2(cap: u64) -> Self {
        let mut bounds = Vec::new();
        let mut b = 1u64;
        loop {
            bounds.push(b);
            if b >= cap {
                break;
            }
            b = b.saturating_mul(2);
        }
        Histogram::new(&bounds)
    }

    /// Record one observation.
    pub fn record(&self, v: u64) {
        let i = self.bounds.partition_point(|&b| b < v);
        self.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Consistent-enough copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A plain-data copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Inclusive upper edges; `buckets` has one extra overflow slot.
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts (`bounds.len() + 1` entries).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Largest observation.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Upper-edge estimate of quantile `q` in `[0, 1]`: the bound of the
    /// bucket containing the `⌈q·count⌉`-th observation (the recorded max
    /// for the overflow bucket). Zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return self.bounds.get(i).copied().unwrap_or(self.max);
            }
        }
        self.max
    }

    /// Fold `other`, a snapshot of a histogram with the same bounds, into
    /// this one (an empty default snapshot takes `other`'s shape).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.buckets.is_empty() {
            *self = other.clone();
            return;
        }
        debug_assert_eq!(self.bounds, other.bounds);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Mean observation (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A fixed family of labeled counters (e.g. one per rule id). Labels are
/// frozen at construction, so the hot-path lookup reads an immutable map —
/// no lock. Observations for labels outside the registered set land in a
/// catch-all `other` slot instead of being dropped.
#[derive(Debug)]
pub struct CounterFamily {
    labels: Vec<String>,
    index: HashMap<String, usize>,
    slots: Vec<AtomicU64>,
    other: AtomicU64,
}

impl CounterFamily {
    /// Family over `labels` (duplicates collapse to the first occurrence).
    pub fn new<I, S>(labels: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut out = CounterFamily {
            labels: Vec::new(),
            index: HashMap::new(),
            slots: Vec::new(),
            other: AtomicU64::new(0),
        };
        for l in labels {
            let l = l.into();
            if !out.index.contains_key(&l) {
                out.index.insert(l.clone(), out.labels.len());
                out.labels.push(l);
                out.slots.push(AtomicU64::new(0));
            }
        }
        out
    }

    /// Add `n` to `label`'s counter (to `other` if unregistered).
    pub fn add(&self, label: &str, n: u64) {
        match self.index.get(label) {
            Some(&i) => self.slots[i].fetch_add(n, Ordering::Relaxed),
            None => self.other.fetch_add(n, Ordering::Relaxed),
        };
    }

    /// Add `n` to the counter at registration position `i` — the O(1) lane
    /// for callers that track labels positionally (out-of-range goes to
    /// `other`).
    pub fn add_index(&self, i: usize, n: u64) {
        match self.slots.get(i) {
            Some(s) => s.fetch_add(n, Ordering::Relaxed),
            None => self.other.fetch_add(n, Ordering::Relaxed),
        };
    }

    /// Current value for `label` (`other`'s total for unregistered labels).
    pub fn get(&self, label: &str) -> u64 {
        match self.index.get(label) {
            Some(&i) => self.slots[i].load(Ordering::Relaxed),
            None => self.other.load(Ordering::Relaxed),
        }
    }

    /// Sum across every slot including `other`.
    pub fn total(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .sum::<u64>()
            + self.other.load(Ordering::Relaxed)
    }

    /// `(label, value)` pairs in registration order, nonzero slots only,
    /// with `("other", n)` appended when the catch-all saw traffic.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = self
            .labels
            .iter()
            .zip(&self.slots)
            .map(|(l, s)| (l.clone(), s.load(Ordering::Relaxed)))
            .filter(|(_, n)| *n > 0)
            .collect();
        let o = self.other.load(Ordering::Relaxed);
        if o > 0 {
            v.push(("other".to_string(), o));
        }
        v
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Vec<(String, Arc<Counter>)>,
    gauges: Vec<(String, Arc<MaxGauge>)>,
    histograms: Vec<(String, Arc<Histogram>)>,
    families: Vec<(String, Arc<CounterFamily>)>,
}

/// A named collection of instruments. Registration hands back an
/// `Arc` handle the caller keeps and hits lock-free; the registry itself
/// is only locked to register and to [`Registry::snapshot`]. Registering
/// a name twice returns the existing instrument.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or fetch) the counter called `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().unwrap();
        if let Some((_, c)) = inner.counters.iter().find(|(n, _)| n == name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::new());
        inner.counters.push((name.to_string(), Arc::clone(&c)));
        c
    }

    /// Register (or fetch) the high-water gauge called `name`.
    pub fn max_gauge(&self, name: &str) -> Arc<MaxGauge> {
        let mut inner = self.inner.lock().unwrap();
        if let Some((_, g)) = inner.gauges.iter().find(|(n, _)| n == name) {
            return Arc::clone(g);
        }
        let g = Arc::new(MaxGauge::new());
        inner.gauges.push((name.to_string(), Arc::clone(&g)));
        g
    }

    /// Register (or fetch) the histogram called `name`. `bounds` is used
    /// only on first registration.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        let mut inner = self.inner.lock().unwrap();
        if let Some((_, h)) = inner.histograms.iter().find(|(n, _)| n == name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new(bounds));
        inner.histograms.push((name.to_string(), Arc::clone(&h)));
        h
    }

    /// Register (or fetch) the counter family called `name`. `labels` is
    /// used only on first registration.
    pub fn family<I, S>(&self, name: &str, labels: I) -> Arc<CounterFamily>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut inner = self.inner.lock().unwrap();
        if let Some((_, f)) = inner.families.iter().find(|(n, _)| n == name) {
            return Arc::clone(f);
        }
        let f = Arc::new(CounterFamily::new(labels));
        inner.families.push((name.to_string(), Arc::clone(&f)));
        f
    }

    /// Plain-data copy of every instrument, in registration order.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().unwrap();
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(n, c)| (n.clone(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(n, g)| (n.clone(), g.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(n, h)| (n.clone(), h.snapshot()))
                .collect(),
            families: inner
                .families
                .iter()
                .map(|(n, f)| (n.clone(), f.snapshot()))
                .collect(),
        }
    }
}

/// A plain-data copy of a [`Registry`] at one instant, exportable as JSON.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every high-water gauge.
    pub gauges: Vec<(String, u64)>,
    /// `(name, state)` for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// `(name, labeled values)` for every counter family.
    pub families: Vec<(String, Vec<(String, u64)>)>,
}

impl Snapshot {
    /// Value of the counter called `name` (zero if absent — absent and
    /// never-incremented are the same thing to an invariant check).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Value of the gauge called `name` (zero if absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The histogram called `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// The family called `name` as `(label, value)` pairs (empty if absent).
    pub fn family(&self, name: &str) -> &[(String, u64)] {
        self.families
            .iter()
            .find(|(n, _)| n == name)
            .map_or(&[], |(_, v)| v)
    }

    /// Serialize as a self-contained JSON object (the workspace carries no
    /// serde; the format is the same hand-rolled, stable-key JSON the bench
    /// artifacts use).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"counters\": {");
        push_pairs(&mut s, &self.counters, "    ");
        s.push_str("\n  },\n  \"gauges\": {");
        push_pairs(&mut s, &self.gauges, "    ");
        s.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {}: {{\"count\": {}, \"sum\": {}, \"max\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"bounds\": {}, \"buckets\": {}}}",
                crate::json::string(name),
                h.count,
                h.sum,
                h.max,
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
                crate::json::u64_array(&h.bounds),
                crate::json::u64_array(&h.buckets),
            ));
        }
        s.push_str("\n  },\n  \"families\": {");
        for (i, (name, pairs)) in self.families.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n    {}: {{", crate::json::string(name)));
            push_pairs(&mut s, pairs, "      ");
            s.push_str("\n    }");
        }
        s.push_str("\n  }\n}");
        s
    }
}

fn push_pairs(s: &mut String, pairs: &[(String, u64)], indent: &str) {
    for (i, (name, v)) in pairs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\n{indent}{}: {v}", crate::json::string(name)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new(&[10, 100, 1000]);
        for v in [1, 5, 10, 11, 99, 100, 5000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.buckets, vec![3, 3, 0, 1]);
        assert_eq!(s.max, 5000);
        assert_eq!(s.quantile(0.0), 10);
        assert_eq!(s.quantile(0.5), 100);
        assert_eq!(s.quantile(1.0), 5000);
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn family_routes_unknown_labels_to_other() {
        let f = CounterFamily::new(["a", "b"]);
        f.add("a", 2);
        f.add_index(1, 3);
        f.add("zzz", 7);
        f.add_index(99, 1);
        assert_eq!(f.get("a"), 2);
        assert_eq!(f.get("b"), 3);
        assert_eq!(f.total(), 13);
        assert_eq!(
            f.snapshot(),
            vec![
                ("a".to_string(), 2),
                ("b".to_string(), 3),
                ("other".to_string(), 8)
            ]
        );
    }

    #[test]
    fn registry_dedupes_names_and_snapshots_json() {
        let r = Registry::new();
        let c1 = r.counter("requests");
        let c2 = r.counter("requests");
        c1.inc();
        c2.add(2);
        assert_eq!(c1.get(), 3);
        r.max_gauge("peak").record(41);
        r.max_gauge("peak").record(40);
        r.histogram("lat", &[1, 2, 4]).record(3);
        r.family("rules", ["x"]).add("x", 5);
        let s = r.snapshot();
        assert_eq!(s.counter("requests"), 3);
        assert_eq!(s.gauge("peak"), 41);
        assert_eq!(s.histogram("lat").unwrap().count, 1);
        assert_eq!(s.family("rules"), &[("x".to_string(), 5)]);
        let j = s.to_json();
        assert!(j.contains("\"requests\": 3"));
        assert!(j.contains("\"peak\": 41"));
        assert!(j.contains("\"p50\": 4"));
        assert!(j.contains("\"x\": 5"));
    }

    /// Tenant names are user-supplied strings that end up as metric names,
    /// histogram names, and family labels. Hostile names — embedded quotes,
    /// backslashes, control characters — must come out of `to_json` as
    /// valid escaped JSON strings, never as raw structure-breaking bytes.
    #[test]
    fn hostile_names_and_labels_are_escaped_in_json() {
        let hostile = "ten\"ant\\evil\nname\u{1}";
        let r = Registry::new();
        r.counter(hostile).add(7);
        r.histogram(&format!("latency/{hostile}"), &[1, 2])
            .record(1);
        let f = r.family("tenant_submitted", [hostile, "ok"]);
        f.add(hostile, 3);
        let j = r.snapshot().to_json();
        // The escaped form appears wherever the name was used…
        let escaped = "ten\\\"ant\\\\evil\\nname\\u0001";
        assert!(j.contains(&format!("\"{escaped}\": 7")), "{j}");
        assert!(j.contains(&format!("\"latency/{escaped}\"")), "{j}");
        assert!(j.contains(&format!("\"{escaped}\": 3")), "{j}");
        // …and no raw control byte or unescaped quote sequence leaks out.
        assert!(!j.chars().any(|c| (c as u32) < 0x20 && c != '\n'));
        assert!(!j.contains("ten\"ant"));
        assert!(!j.contains("evil\nname"));
        // Structural sanity: braces and brackets still balance.
        let balance = |open: char, close: char| {
            j.chars().filter(|&c| c == open).count() == j.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}'));
        assert!(balance('[', ']'));
    }
}
